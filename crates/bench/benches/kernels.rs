//! Criterion micro-benchmarks for the gate kernels: the optimization-step
//! ladder (Fig. 2), per-k low/high-order sweeps (Fig. 6/9), and the
//! scalar / lanes@256 / lanes@512 ablation. Small state (2^18) so `cargo bench` stays
//! quick; the figure binaries measure the big-state versions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qsim_bench::harness::{high_order_qubits, low_order_qubits, random_gate, random_state};
use qsim_kernels::apply::{apply_gate, KernelConfig, Simd};
use qsim_kernels::avx::apply_avx_eq1;
use qsim_kernels::opt::{apply_inplace, apply_twovec};
use qsim_util::flops::gate_flops;

const N: u32 = 18;

fn bench_opt_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_steps_k4");
    group.throughput(Throughput::Elements(gate_flops(N, 4)));
    let m = random_gate(4, 1);
    let qubits = low_order_qubits(4);
    // Steps 0–2 are reference kernels, called directly; the two-vector
    // step writes a second state and copies it back, the traffic step 1
    // removes.
    let mut state = random_state(N, 2);
    let mut dst = state.clone();
    group.bench_function("step0_twovec", |b| {
        b.iter(|| {
            apply_twovec(&state, &mut dst, &qubits, &m);
            state.copy_from_slice(&dst);
        });
    });
    group.bench_function("step1_inplace", |b| {
        b.iter(|| apply_inplace(&mut state, &qubits, &m));
    });
    group.bench_function("step2_avx_eq1", |b| {
        b.iter(|| apply_avx_eq1(&mut state, &qubits, &m));
    });
    for (name, simd) in [
        ("step3_blocked_scalar", Simd::Scalar),
        ("step3_lanes256", Simd::Avx2),
        ("step4_lanes512", Simd::Auto),
    ] {
        let cfg = KernelConfig { simd, threads: 1 };
        group.bench_function(name, |b| {
            b.iter(|| apply_gate(&mut state, &qubits, &m, &cfg));
        });
    }
    group.finish();
}

fn bench_kernel_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_size");
    let cfg = KernelConfig {
        threads: 1,
        ..KernelConfig::default()
    };
    for k in 1..=5u32 {
        group.throughput(Throughput::Elements(gate_flops(N, k)));
        let m = random_gate(k, 10 + k as u64);
        let mut state = random_state(N, 20 + k as u64);
        let low = low_order_qubits(k);
        group.bench_with_input(BenchmarkId::new("low_order", k), &k, |b, _| {
            b.iter(|| apply_gate(&mut state, &low, &m, &cfg));
        });
        let high = high_order_qubits(N, k);
        group.bench_with_input(BenchmarkId::new("high_order", k), &k, |b, _| {
            b.iter(|| apply_gate(&mut state, &high, &m, &cfg));
        });
    }
    group.finish();
}

fn bench_diagonal_specialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("specialized");
    let mut state = random_state(N, 3);
    let t_diag = [
        qsim_util::c64::one(),
        qsim_util::c64::from_polar(1.0, std::f64::consts::FRAC_PI_4),
    ];
    group.bench_function("t_diagonal", |b| {
        b.iter(|| qsim_kernels::specialized::apply_diagonal(&mut state, &[5], &t_diag));
    });
    // The same T as a dense 1-qubit kernel, for the specialization ratio.
    let t_dense = qsim_circuit::Gate::T(0).matrix::<f64>();
    let cfg = KernelConfig {
        threads: 1,
        ..KernelConfig::default()
    };
    group.bench_function("t_dense_kernel", |b| {
        b.iter(|| apply_gate(&mut state, &[5], &t_dense, &cfg));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_opt_steps, bench_kernel_sizes, bench_diagonal_specialization
}
criterion_main!(benches);
