//! Cross-engine telemetry smoke test: run all three execution engines on
//! one small supremacy circuit with a shared enabled [`Telemetry`], then
//! validate the exported Chrome trace and metrics snapshot with the
//! in-crate JSON parser:
//!
//! * the trace parses, and carries **distinct tracks** for the
//!   single-node engine, every distributed rank, and each OOC pipeline
//!   thread (compute / prefetch / writeback);
//! * every engine phase contributed ≥ 1 span (plan/stage for the
//!   single-node sweep, stage/swap/reduce per rank, compute/read/write
//!   for the OOC pipeline);
//! * the single-node root span accounts for most of the engine's
//!   measured wall-clock (lenient 75% floor here — timing at toy sizes
//!   is noisy; the ≥ 90% acceptance check runs at n ≥ 20 via the CLI);
//! * the metrics snapshot parses and holds populated `swap_ns`,
//!   `chunk_io_ns` and `stage_apply_ns` latency histograms.

use std::collections::HashMap;

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::single::{strip_initial_hadamards, SingleNodeSimulator};
use qsim_core::{Backend, BackendPlan, DistBackend, DistConfig, DistSimulator};
use qsim_kernels::apply::KernelConfig;
use qsim_ooc::{OocBackend, OocConfig, OocSimulator};
use qsim_sched::{plan, SchedulerConfig};
use qsim_telemetry::json::{parse, Json};
use qsim_telemetry::Telemetry;

/// Flatten the parsed trace into (track name, span name, dur µs) rows.
fn trace_spans(doc: &Json) -> Vec<(String, String, f64)> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let mut tid_names: HashMap<i64, String> = HashMap::new();
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) == Some("M") {
            let tid = ev.get("tid").and_then(|t| t.as_f64()).unwrap() as i64;
            let name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                .unwrap()
                .to_string();
            tid_names.insert(tid, name);
        }
    }
    events
        .iter()
        .filter(|ev| ev.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|ev| {
            let tid = ev.get("tid").and_then(|t| t.as_f64()).unwrap() as i64;
            (
                tid_names.get(&tid).cloned().unwrap_or_default(),
                ev.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                ev.get("dur").and_then(|d| d.as_f64()).unwrap(),
            )
        })
        .collect()
}

fn count(spans: &[(String, String, f64)], track: &str, name: &str) -> usize {
    spans
        .iter()
        .filter(|(t, n, _)| t == track && n == name)
        .count()
}

#[test]
fn all_engines_emit_spans_and_metrics() {
    let telemetry = Telemetry::enabled();
    let spec = SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 25,
        seed: 0,
    };
    let circuit = supremacy_circuit(&spec);
    let n = spec.n_qubits();

    // Single-node sweep engine.
    let single = SingleNodeSimulator {
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let out_single = single.try_run_t::<f64>(&circuit).unwrap();

    // Distributed engine, 4 ranks.
    let ranks = 4usize;
    let (exec, uniform) = strip_initial_hadamards(&circuit);
    let l = n - ranks.trailing_zeros();
    let schedule = plan(&exec, &SchedulerConfig::distributed(l, 4));
    assert!(schedule.n_swaps() > 0, "want swaps in the smoke schedule");
    let plan = BackendPlan::from_schedule(exec, schedule, uniform);
    let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: ranks,
        kernel: KernelConfig::sequential(),
        telemetry: telemetry.clone(),
        ..Default::default()
    }));
    Backend::<f64>::run(&mut dist, &plan).expect("dist run");

    // Out-of-core pipelined engine on the same schedule.
    let mut ooc = OocBackend::new(
        OocSimulator::<f64>::new(OocConfig {
            kernel: KernelConfig::sequential(),
            telemetry: telemetry.clone(),
            ..OocConfig::default()
        }),
        ranks,
    );
    ooc.run(&plan).expect("ooc run");

    // --- Chrome trace: parses, distinct tracks, spans per phase. ---
    let doc = parse(&telemetry.chrome_trace_json()).expect("trace parses");
    let spans = trace_spans(&doc);
    let tracks: std::collections::BTreeSet<&str> =
        spans.iter().map(|(t, _, _)| t.as_str()).collect();
    for want in [
        "single",
        "rank 0",
        "rank 1",
        "rank 2",
        "rank 3",
        "ooc.compute",
        "ooc.prefetch",
        "ooc.writeback",
    ] {
        assert!(
            tracks.contains(want),
            "missing track {want:?} in {tracks:?}"
        );
    }

    // Single-node phases.
    assert_eq!(count(&spans, "single", "run"), 1);
    assert!(count(&spans, "single", "plan") >= 1);
    assert!(count(&spans, "single", "stage") >= 1);
    // Distributed phases, on every rank.
    for r in 0..ranks {
        let t = format!("rank {r}");
        assert!(count(&spans, &t, "stage") >= 1, "no stage span on {t}");
        assert!(count(&spans, &t, "swap") >= 1, "no swap span on {t}");
        assert!(count(&spans, &t, "reduce") >= 1, "no reduce span on {t}");
    }
    // OOC pipeline phases across all three threads.
    // Both swap halves ride inside the stage-run passes, and pass 0
    // synthesises its chunks instead of reading them.
    for name in ["stage run", "compute", "scatter", "unpermute"] {
        assert!(count(&spans, "ooc.compute", name) >= 1, "no {name} span");
    }
    assert!(count(&spans, "ooc.prefetch", "synthesise") >= 1);
    assert!(count(&spans, "ooc.prefetch", "read") >= 1);
    assert!(count(&spans, "ooc.writeback", "write piece") >= 1);
    assert!(count(&spans, "ooc.writeback", "write") >= 1);

    // --- Coverage: the single-node root span accounts for ≥ 75% of the
    // engine's own wall-clock measurement. ---
    let run_secs: f64 = spans
        .iter()
        .filter(|(t, n, _)| t == "single" && n == "run")
        .map(|(_, _, dur_us)| dur_us / 1e6)
        .sum();
    let wall = out_single.plan_seconds + out_single.sim_seconds;
    assert!(
        run_secs >= 0.75 * wall,
        "root span covers {run_secs:.6}s of {wall:.6}s wall-clock"
    );

    // --- Metrics snapshot: parses, latency histograms populated. ---
    let metrics = parse(&telemetry.metrics_json()).expect("metrics parse");
    let hists = metrics.get("histograms").expect("histograms section");
    for name in ["swap_ns", "chunk_io_ns", "stage_apply_ns"] {
        let h = hists
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        let count = h.get("count").and_then(|c| c.as_f64()).unwrap();
        assert!(count >= 1.0, "{name} histogram is empty");
    }
    // The per-engine published counters made it into the shared registry.
    let counters = metrics.get("counters").expect("counters section");
    for name in [
        "single.sweep.sweep_passes",
        "dist.fabric.bytes_sent",
        "ooc.io.bytes_read",
    ] {
        assert!(counters.get(name).is_some(), "missing counter {name}");
    }
}
