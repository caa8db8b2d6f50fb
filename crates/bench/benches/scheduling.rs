//! Criterion benchmarks for the circuit-side pre-computation: supremacy
//! generation, full-scale planning (the paper's "1–3 seconds" budget,
//! §3.6.1), gate fusion, and the communication collectives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_net::collective::{all_to_all, Communicator};
use qsim_net::fabric::run_cluster;
use qsim_sched::{plan, SchedulerConfig};
use qsim_util::c64;

fn bench_generation(c: &mut Criterion) {
    c.bench_function("generate_45q_depth25", |b| {
        b.iter(|| {
            supremacy_circuit(&SupremacySpec {
                rows: 9,
                cols: 5,
                depth: 25,
                seed: 0,
            })
        });
    });
}

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_depth25_l30");
    for (rows, cols) in [(6u32, 5u32), (7, 6), (9, 5)] {
        let circuit = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth: 25,
            seed: 0,
        });
        let n = rows * cols;
        let cfg = SchedulerConfig::distributed(30.min(n - 1).max(4), 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| plan(&circuit, &cfg));
        });
    }
    group.finish();
}

fn bench_all_to_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_to_all");
    for ranks in [2usize, 4, 8] {
        // 2^16 amplitudes per rank.
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                run_cluster(ranks, |ctx| {
                    let send = vec![c64::new(ctx.rank() as f64, 0.0); 1 << 16];
                    all_to_all(ctx, Communicator::world(ctx), &send).len()
                })
            });
        });
    }
    group.finish();
}

fn bench_ooc_swap(c: &mut Criterion) {
    // External all-to-all (the §5 disk path): one full swap of a 2^16
    // state split into 4 chunk files.
    use qsim_core::BackendPlan;
    use qsim_ooc::OocSimulator;
    use qsim_sched::plan as splan;
    let circuit = {
        let mut c = qsim_circuit::Circuit::new(16);
        for q in 0..16 {
            c.h(q);
        }
        for q in 0..15 {
            c.cz(q, q + 1);
        }
        for q in 0..16 {
            c.push(qsim_circuit::Gate::SqrtX(q));
        }
        c
    };
    let schedule = splan(&circuit, &SchedulerConfig::distributed(14, 4));
    let plan = BackendPlan::from_schedule(circuit, schedule, false);
    c.bench_function("ooc_run_16q", |b| {
        let mut sim = OocSimulator::<f64>::default();
        b.iter(|| sim.run_plan(&plan, false, None).unwrap().norm);
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_generation, bench_planning, bench_all_to_all, bench_ooc_swap
}
criterion_main!(benches);
