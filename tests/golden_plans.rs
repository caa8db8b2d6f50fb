//! Golden plans: the scheduler's decisions pinned to the bit.
//!
//! Planning is deterministic, and every engine's amplitudes follow from
//! the plan (the fused matrices are the plan's bits). Each case pins
//! `schedule_fingerprint` of the greedy plan and of the searched plan,
//! the search's `candidates` and both plans' `n_swaps`. The search is the
//! `ScheduleMode::Search` policy (`SearchConfig::default()`, relabeling
//! on while globals exist) priced by one fixed `CostModel::host` table
//! entry (512-bit, 2 workers), so the constants hold on every host. A
//! change to the planner that is meant to be a pure speed-up must leave
//! every row unchanged.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::checkpoint::schedule_fingerprint;
use qsim45::core::single::strip_initial_hadamards;
use qsim45::sched::{plan, search_plan, CostModel, SchedulerConfig, SearchConfig};

struct Case {
    /// (rows, cols, depth, seed) of the supremacy circuit.
    circuit: (u32, u32, u32, u64),
    local_qubits: u32,
    kmax: u32,
    /// Ablation applied on top of `SchedulerConfig::distributed`.
    tweak: fn(&mut SchedulerConfig),
    greedy: u64,
    search: u64,
    candidates: usize,
    /// (greedy, searched) swap counts.
    swaps: (usize, usize),
}

fn paper(_: &mut SchedulerConfig) {}
fn no_swap_search(c: &mut SchedulerConfig) {
    c.swap_search = false;
}
fn no_worst_case(c: &mut SchedulerConfig) {
    c.worst_case_dense = false;
}
fn no_sweep_order(c: &mut SchedulerConfig) {
    c.sweep_order = false;
}
fn one_trial(c: &mut SchedulerConfig) {
    c.cluster_trials = 1;
}

/// Plan every case and return one ready-to-paste line per mismatch.
fn mismatches(cases: &[Case]) -> Vec<String> {
    let model = CostModel::host(512, 2);
    let mut bad = Vec::new();
    for case in cases {
        let (rows, cols, depth, seed) = case.circuit;
        let full = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth,
            seed,
        });
        let (circuit, _) = strip_initial_hadamards(&full);
        let mut cfg = SchedulerConfig::distributed(case.local_qubits, case.kmax);
        (case.tweak)(&mut cfg);
        let greedy = plan(&circuit, &cfg);
        greedy.verify(&circuit);
        let searched = search_plan(
            &circuit,
            &cfg,
            &model,
            &SearchConfig {
                permute_labels: cfg.local_qubits < circuit.n_qubits(),
                ..SearchConfig::default()
            },
        );
        searched.schedule.verify(&circuit);
        let got = (
            schedule_fingerprint(&greedy),
            schedule_fingerprint(&searched.schedule),
            searched.candidates,
            (greedy.n_swaps(), searched.schedule.n_swaps()),
        );
        if got != (case.greedy, case.search, case.candidates, case.swaps) {
            bad.push(format!(
                "{rows}x{cols} d{depth} seed {seed} l={} kmax={}: greedy: 0x{:016x}, search: 0x{:016x}, candidates: {}, swaps: {:?}",
                case.local_qubits, case.kmax, got.0, got.1, got.2, got.3
            ));
        }
    }
    bad
}

#[test]
fn plans_at_21_and_12_qubits_are_unchanged() {
    let n21 = (3, 7, 25, 11);
    // (circuit, l, ablation, greedy, search, candidates, swaps), kmax 4.
    #[rustfmt::skip]
    let rows = [
        (n21, 21, paper as fn(&mut _), 0x3a6e0380964d05d4, 0x3a6e0380964d05d4, 6, (0, 0)),
        (n21, 20, paper, 0xafef62c49a822510, 0xafef62c49a822510, 33, (1, 1)),
        (n21, 17, paper, 0x6e4c7b8143e88232, 0x69f69ab4a6dc839f, 33, (1, 1)),
        ((3, 4, 20, 1), 9, paper, 0x0f06b613b7bde48c, 0x0f06b613b7bde48c, 33, (1, 1)),
        ((3, 4, 20, 5), 9, paper, 0x477f013d5116ebac, 0x477f013d5116ebac, 33, (1, 1)),
        (n21, 17, no_swap_search, 0x0670a39690b06c0c, 0xc69f3e75de657669, 33, (3, 3)),
        (n21, 17, no_worst_case, 0x432f2edf06ffb119, 0xb19908c843b9b5c0, 33, (1, 1)),
        (n21, 17, no_sweep_order, 0xe29d6e0516d3adb2, 0x69f69ab4a6dc839f, 33, (1, 1)),
        (n21, 17, one_trial, 0x61b3ea36eff944a4, 0x61b3ea36eff944a4, 33, (1, 1)),
    ];
    let cases = rows.map(
        |(circuit, local_qubits, tweak, greedy, search, candidates, swaps)| Case {
            circuit,
            local_qubits,
            kmax: 4,
            tweak,
            greedy,
            search,
            candidates,
            swaps,
        },
    );
    let bad = mismatches(&cases);
    assert!(bad.is_empty(), "plans moved:\n{}", bad.join("\n"));
}

#[test]
fn plans_at_45_qubits_are_unchanged() {
    // (kmax, greedy, search, swaps) at 5x9 d25 seed 11, l = 30.
    #[rustfmt::skip]
    let rows = [
        (3, 0x123c58ff75c9ca41, 0x123c58ff75c9ca41, (2, 2)),
        (4, 0xc5c897ef37bc5b40, 0x799f62cfc55d18bf, (2, 2)),
        (5, 0x294917391d7c967a, 0x1181c90795b27d32, (2, 2)),
    ];
    let cases = rows.map(|(kmax, greedy, search, swaps)| Case {
        circuit: (5, 9, 25, 11),
        local_qubits: 30,
        kmax,
        tweak: paper,
        greedy,
        search,
        candidates: 33,
        swaps,
    });
    let bad = mismatches(&cases);
    assert!(bad.is_empty(), "plans moved:\n{}", bad.join("\n"));
}
