//! Stage finding — §3.6.1 step 1, the optimization that matters most in
//! the multi-node setting.
//!
//! The scheduler reorders gates (only across different qubits — gates on
//! the same qubit never commute in supremacy circuits) into *stages*: each
//! stage is a maximal run of gates executable without communication under
//! the current logical→physical mapping. A gate is executable when
//!
//! * all its operands sit at local positions, **or**
//! * it is diagonal and §3.5 specialization is on (diagonal gates on
//!   global qubits are rank-conditional phases — free).
//!
//! Stage finding is worst-case by default (§3.6.1): gates drawn from the
//! *random* single-qubit set {T, X^1/2, Y^1/2} are assumed dense even when
//! the draw produced a T, because the authors cannot rely on lucky draws;
//! only each qubit's deterministic second gate (always T by construction)
//! keeps its diagonal specialization.
//!
//! When a stage stalls, ALL global qubits are swapped with local ones
//! (one all-to-all, §3.4). Which local qubits to give up is either the
//! paper's upper-bound choice (the lowest-order locals) or the "cheap
//! search": a Belady-style furthest-next-local-need selection — the qubit
//! whose next gate *requiring locality* lies furthest in the future is the
//! best candidate to park in the global bits.

use crate::cluster::build_stage_ops;
use crate::config::SchedulerConfig;
use crate::fuse::fuse_schedule;
use crate::schedule::{
    apply_swap_to_mapping, mask_of, positions_of, Schedule, Stage, StageOp, SwapOp,
};
use qsim_circuit::{Circuit, DependencyTracker, Gate};

/// Plan a circuit: stage finding + clustering + swap adjustment, then
/// fusion of every cluster's matrix.
///
/// # Panics
///
/// On `local_qubits` outside `1..=n`, `kmax == 0`, a gate wider than
/// `local_qubits`, and at `2 · local_qubits == n` on a gate that must run
/// local but spans the two halves of the initial mapping: every swap
/// exchanges the halves, so it never runs (every CZ across them when
/// `specialize_diagonal` is off).
pub fn plan(circuit: &Circuit, cfg: &SchedulerConfig) -> Schedule {
    let mut schedule = plan_unfused(circuit, cfg);
    fuse_schedule(circuit, &mut schedule);
    schedule
}

/// [`plan`] without the fusion step: cluster matrices are placeholders
/// (`Schedule::verify` rejects them), so the plan is for pricing only.
pub(crate) fn plan_unfused(circuit: &Circuit, cfg: &SchedulerConfig) -> Schedule {
    let n = circuit.n_qubits();
    let l = cfg.local_qubits;
    assert!(l >= 1 && l <= n, "local qubits {l} out of range (n={n})");
    assert!(cfg.kmax >= 1, "kmax must be positive");
    if let Some(widest) = circuit.gates().iter().map(|g| g.arity() as u32).max() {
        assert!(
            widest <= l,
            "a {widest}-qubit gate cannot run with only {l} local qubits"
        );
    }
    // Clusters can never exceed the local qubit count.
    let cfg = &SchedulerConfig {
        kmax: cfg.kmax.min(l),
        ..*cfg
    };

    let treat_dense = dense_for_scheduling(circuit, cfg);
    let mapping = initial_mapping(circuit, cfg, &treat_dense);
    if 2 * l == n {
        // Every swap exchanges the two halves (see `# Panics`).
        let local = mask_of(0..l);
        let spanning = circuit.gates().iter().enumerate().find(|&(gi, g)| {
            let m = mask_of(g.qubits().into_iter().map(|q| mapping[q as usize]));
            needs_local(g, gi, cfg, &treat_dense) && m & local != 0 && m & !local != 0
        });
        if let Some((gi, g)) = spanning {
            let qs = &g.qubits()[..];
            panic!("unschedulable at local_qubits = n/2 = {l}: every swap exchanges the halves, and gate {gi} ({} on {qs:?}) must run local but spans them", g.name());
        }
    }

    // Phase 1: stage finding on raw gate lists. With the cheap search on,
    // a bounded DFS explores the per-stall candidate swaps and keeps the
    // plan with the fewest swaps; otherwise a single greedy pass with the
    // paper's lowest-order-slot swaps.
    let mut raw_stages = if cfg.swap_search {
        // The opposite worst-case flag's density, for candidate diversity
        // (see `candidate_swaps`); it depends on the circuit only.
        let alt_cfg = SchedulerConfig {
            worst_case_dense: !cfg.worst_case_dense,
            ..*cfg
        };
        let mut search = SwapSearch {
            circuit,
            cfg,
            treat_dense: &treat_dense,
            alt_cfg,
            alt_dense: dense_for_scheduling(circuit, &alt_cfg),
            best: None,
            budget: 4000,
        };
        let tracker = DependencyTracker::new(circuit);
        search.dfs(tracker, mapping.clone(), &mut Vec::new(), 0);
        // The DFS can exhaust its budget on adversarial configurations
        // (e.g. many blocked two-qubit gates with specialization off);
        // the greedy pass always terminates and is the guaranteed
        // fallback.
        search
            .best
            .unwrap_or_else(|| greedy_stages(circuit, cfg, &treat_dense, mapping))
    } else {
        greedy_stages(circuit, cfg, &treat_dense, mapping)
    };
    if raw_stages.is_empty() {
        raw_stages.push((Vec::new(), None, (0..n).collect()));
    }

    // Phase 2: clustering, with §3.6.1-step-3 swap adjustment between
    // consecutive stages.
    let mut stages: Vec<Stage> = Vec::new();
    let mut carried: Vec<usize> = Vec::new();
    for (gates, swap, mapping) in raw_stages {
        let mut stage_gates = std::mem::take(&mut carried);
        stage_gates.extend_from_slice(&gates);
        let mut ops = build_stage_ops(circuit, &stage_gates, &mapping, cfg);
        if cfg.adjust_swaps {
            if let Some(sw) = &swap {
                // Gates carried forward keep their physical positions
                // (their slots are disjoint from the swap).
                carried = pop_movable_suffix(&mut ops, sw, cfg);
            }
        }
        stages.push(Stage { mapping, ops, swap });
    }
    // Only a swap carries gates forward, and the last stage has none.
    debug_assert!(carried.is_empty());

    Schedule {
        n_qubits: n,
        local_qubits: l,
        kmax: cfg.kmax,
        stages,
    }
}

/// Greedily execute every currently-executable gate; returns them in
/// execution order. Stops at the communication stall point.
fn collect_stage(
    circuit: &Circuit,
    tracker: &mut DependencyTracker,
    mapping: &[u32],
    cfg: &SchedulerConfig,
    treat_dense: &[bool],
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut ready = Vec::new();
    loop {
        tracker.ready_gates_into(&mut ready);
        let before = out.len();
        for &gi in &ready {
            if is_executable(&circuit.gates()[gi], gi, mapping, cfg, treat_dense) {
                tracker.execute(gi);
                out.push(gi);
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Can this gate run under the mapping without communication?
fn is_executable(
    g: &Gate,
    gi: usize,
    mapping: &[u32],
    cfg: &SchedulerConfig,
    treat_dense: &[bool],
) -> bool {
    if !needs_local(g, gi, cfg, treat_dense) {
        return true;
    }
    g.qubits()
        .iter()
        .all(|&q| mapping[q as usize] < cfg.local_qubits)
}

/// Does this gate require all operands local (communication if global)?
fn needs_local(g: &Gate, gi: usize, cfg: &SchedulerConfig, treat_dense: &[bool]) -> bool {
    if treat_dense[gi] {
        return true;
    }
    !(cfg.specialize_diagonal && g.is_diagonal())
}

/// Worst-case density flags (§3.6.1): the first non-H single-qubit gate on
/// each qubit is the deterministic T (kept diagonal); every later gate
/// from the random set {T, X^1/2, Y^1/2} is assumed dense. X^1/2 and
/// Y^1/2 are dense anyway, so only later T/T† gates are upgraded.
pub(crate) fn dense_for_scheduling(circuit: &Circuit, cfg: &SchedulerConfig) -> Vec<bool> {
    let n = circuit.n_qubits() as usize;
    let mut first_non_h_seen = vec![false; n];
    let mut out = Vec::with_capacity(circuit.len());
    for g in circuit.gates() {
        let mut dense = g.is_dense() || g.is_permutation();
        // Permutation gates (X, CNOT, SWAP) are executed as dense kernels
        // by this implementation, so they require locality. (Rank
        // renumbering is a possible future specialization, §3.5.)
        if cfg.worst_case_dense {
            if let Gate::T(q) | Gate::Tdg(q) = *g {
                if first_non_h_seen[q as usize] {
                    dense = true;
                }
            }
        }
        if g.arity() == 1 && !matches!(g, Gate::H(_)) {
            let q = g.qubits()[0] as usize;
            first_non_h_seen[q] = true;
        }
        out.push(dense);
    }
    out
}

/// How far does a stage get under `mapping`? Returns (gates executed,
/// circuit finished). Runs on a clone of the tracker — the core of the
/// "cheap search" (§3.6.1): candidate swap targets are scored by actually
/// simulating the stage they enable.
fn simulate_stage(
    circuit: &Circuit,
    tracker: &DependencyTracker,
    mapping: &[u32],
    cfg: &SchedulerConfig,
    treat_dense: &[bool],
) -> (usize, bool) {
    let mut t = tracker.clone();
    let gates = collect_stage(circuit, &mut t, mapping, cfg, treat_dense);
    (gates.len(), t.is_done())
}

/// Initial logical→physical mapping. With the cheap search enabled,
/// several candidate global sets are scored by simulating the first
/// stage; otherwise identity.
fn initial_mapping(circuit: &Circuit, cfg: &SchedulerConfig, treat_dense: &[bool]) -> Vec<u32> {
    let n = circuit.n_qubits();
    let l = cfg.local_qubits;
    let g = n - l;

    if g == 0 || !cfg.swap_search {
        return (0..n).collect();
    }
    // First local-requiring gate index per qubit (usize::MAX if none).
    let mut first_need = vec![usize::MAX; n as usize];
    for (gi, gate) in circuit.gates().iter().enumerate() {
        if needs_local(gate, gi, cfg, treat_dense) {
            for q in gate.qubits() {
                if first_need[q as usize] == usize::MAX {
                    first_need[q as usize] = gi;
                }
            }
        }
    }
    let tracker = DependencyTracker::new(circuit);
    let candidates = [
        build_mapping_from_scores(&first_need, n, l),
        // Contiguity candidates: high/low qubit blocks are spatially
        // clustered on grid workloads, which delays blocking percolation.
        (0..n).collect::<Vec<u32>>(),
        (0..n).map(|q| (q + g) % n).collect::<Vec<u32>>(),
    ];
    candidates
        .into_iter()
        .max_by_key(|m| simulate_stage(circuit, &tracker, m, cfg, treat_dense).0)
        .unwrap()
}

/// One greedy stage-finding pass with the paper's upper-bound swap
/// choice (all globals ↔ lowest-order locals).
type RawStage = (Vec<usize>, Option<SwapOp>, Vec<u32>);

fn greedy_stages(
    circuit: &Circuit,
    cfg: &SchedulerConfig,
    treat_dense: &[bool],
    mut mapping: Vec<u32>,
) -> Vec<RawStage> {
    let n = circuit.n_qubits();
    let l = cfg.local_qubits;
    let g = n - l;

    let mut tracker = DependencyTracker::new(circuit);
    let mut out: Vec<RawStage> = Vec::new();
    let mut stalls = 0usize;
    while !tracker.is_done() {
        let stage_gates = collect_stage(circuit, &mut tracker, &mapping, cfg, treat_dense);
        if tracker.is_done() {
            out.push((stage_gates, None, mapping.clone()));
            break;
        }
        if stage_gates.is_empty() {
            stalls += 1;
            assert!(
                stalls < 6,
                "scheduler livelock: swaps do not unblock the frontier"
            );
        } else {
            stalls = 0;
        }
        // Alternate protection/eviction on consecutive stalls: the
        // eviction swap is step one of the two-swap juggle for blocked
        // wide gates (see basic_swap).
        let swap = basic_swap(
            circuit,
            &tracker,
            &mapping,
            cfg,
            treat_dense,
            stalls % 2 == 1,
        );
        let next = apply_swap_to_mapping(&mapping, &swap, l, g);
        out.push((stage_gates, Some(swap), mapping.clone()));
        mapping = next;
    }
    out
}

/// Local positions holding qubits of currently-blocked frontier gates:
/// evicting them to global space cannot help and (for blocked two-qubit
/// gates) can livelock the swap loop, so the slot choosers avoid them.
fn protected_positions(
    circuit: &Circuit,
    tracker: &DependencyTracker,
    mapping: &[u32],
    cfg: &SchedulerConfig,
    treat_dense: &[bool],
) -> Vec<bool> {
    let l = cfg.local_qubits;
    let mut out = vec![false; l as usize];
    for gi in tracker.ready_gates() {
        let gate = &circuit.gates()[gi];
        if !is_executable(gate, gi, mapping, cfg, treat_dense) {
            for q in gate.qubits() {
                let p = mapping[q as usize];
                if p < l {
                    out[p as usize] = true;
                }
            }
        }
    }
    out
}

/// The paper's upper-bound swap (all globals ↔ lowest-order locals),
/// skipping slots whose qubits a blocked frontier gate needs local.
///
/// `evict`: invert the protection — *prefer* evicting the blocked gates'
/// local operands. This is the first half of the two-swap juggle needed
/// when a blocked wide gate has more local operands than can survive a
/// full swap (survivors = l − g): park ALL its operands in the global
/// bits, then the next full swap brings them in together.
fn basic_swap(
    circuit: &Circuit,
    tracker: &DependencyTracker,
    mapping: &[u32],
    cfg: &SchedulerConfig,
    treat_dense: &[bool],
    evict: bool,
) -> SwapOp {
    let l = cfg.local_qubits;
    let g = circuit.n_qubits() - l;
    let protected = protected_positions(circuit, tracker, mapping, cfg, treat_dense);
    let prefer = |p: &u32| -> bool {
        let is_protected = protected[*p as usize];
        if evict {
            is_protected
        } else {
            !is_protected
        }
    };
    let mut slots: Vec<u32> = (0..l).filter(prefer).collect();
    if (slots.len() as u32) < g {
        slots.extend((0..l).filter(|p| !prefer(p)));
    }
    slots.truncate(g as usize);
    slots.sort_unstable();
    SwapOp { local_slots: slots }
}

/// Bounded DFS over candidate swaps, minimizing the number of swaps
/// (ties: more is not explored further once the bound is hit). The search
/// is the full-strength version of the paper's "cheap search algorithm to
/// find better local qubits to swap with"; `budget` caps explored nodes
/// so planning stays in the paper's 1–3 second regime.
struct SwapSearch<'a> {
    circuit: &'a Circuit,
    cfg: &'a SchedulerConfig,
    treat_dense: &'a [bool],
    /// `cfg` with the opposite worst-case flag, and its density.
    alt_cfg: SchedulerConfig,
    alt_dense: Vec<bool>,
    best: Option<Vec<RawStage>>,
    budget: usize,
}

impl SwapSearch<'_> {
    /// Explore from `tracker` under `mapping`; `acc` holds the stages
    /// (each closed by its swap) leading here and is restored on return.
    fn dfs(
        &mut self,
        mut tracker: DependencyTracker,
        mapping: Vec<u32>,
        acc: &mut Vec<RawStage>,
        empty_streak: usize,
    ) {
        if self.budget == 0 || empty_streak >= 2 {
            // Two consecutive stages without progress: this branch is
            // thrashing (e.g. blocked multi-qubit gates ping-ponging
            // between global sets) — abandon it; the greedy fallback in
            // `plan` guarantees completeness.
            return;
        }
        self.budget -= 1;
        // Prune: already as many swaps as the best complete plan (every
        // stage in `acc` is closed by one).
        let best_swaps = self.best.as_ref().map_or(usize::MAX, |b| b.len() - 1);
        if acc.len() >= best_swaps {
            return;
        }
        let stage_gates = collect_stage(
            self.circuit,
            &mut tracker,
            &mapping,
            self.cfg,
            self.treat_dense,
        );
        if tracker.is_done() {
            // The prune above lets only strictly better plans get here.
            let mut plan = acc.clone();
            plan.push((stage_gates, None, mapping));
            self.best = Some(plan);
            return;
        }
        // Guard against livelock: a swap must change the mapping.
        let l = self.cfg.local_qubits;
        let g = self.circuit.n_qubits() - l;
        let swaps = self.candidate_swaps(&tracker, &mapping);
        let streak = if stage_gates.is_empty() {
            empty_streak + 1
        } else {
            0
        };
        let depth = acc.len();
        acc.push((stage_gates, None, mapping));
        for swap in swaps {
            let (stage_gates, _, mapping) = &acc[depth];
            let next = apply_swap_to_mapping(mapping, &swap, l, g);
            if next == *mapping && stage_gates.is_empty() {
                continue; // no progress possible down this branch
            }
            acc[depth].1 = Some(swap);
            self.dfs(tracker.clone(), next, acc, streak);
        }
        acc.truncate(depth);
    }

    /// Candidate swaps at a stall point, deduplicated.
    fn candidate_swaps(&self, tracker: &DependencyTracker, mapping: &[u32]) -> Vec<SwapOp> {
        let (circuit, cfg, treat_dense) = (self.circuit, self.cfg, self.treat_dense);
        let n = circuit.n_qubits();
        let l = cfg.local_qubits;
        let g = n - l;

        debug_assert!(g > 0, "no swap possible without global qubits");
        // Candidate scores, each turned into a candidate global set:
        // (a) Belady — next local-requiring gate per qubit, furthest first;
        // (b) nearly-finished — fewest remaining local-requiring gates (the
        //     right choice before a potential final stage);
        // (c) the paper's upper bound — lowest-order local slots.
        let mut next_need = vec![usize::MAX; n as usize];
        let mut remaining_need = vec![0usize; n as usize];
        // A second score set under the opposite worst-case flag, giving the
        // search candidate diversity: the worst-case plan is always legal
        // under median rules, so its swap targets are worth trying there
        // too (and vice versa).
        let mut next_need_strict = vec![usize::MAX; n as usize];
        let mut remaining_strict = vec![0usize; n as usize];
        for (gi, gate) in circuit.gates().iter().enumerate() {
            if tracker.is_executed(gi) {
                continue;
            }
            if needs_local(gate, gi, cfg, treat_dense) {
                for q in gate.qubits() {
                    if next_need[q as usize] == usize::MAX {
                        next_need[q as usize] = gi;
                    }
                    remaining_need[q as usize] += 1;
                }
            }
            if needs_local(gate, gi, &self.alt_cfg, &self.alt_dense) {
                for q in gate.qubits() {
                    if next_need_strict[q as usize] == usize::MAX {
                        next_need_strict[q as usize] = gi;
                    }
                    remaining_strict[q as usize] += 1;
                }
            }
        }
        // Qubits involved in currently blocked frontier gates must come (or
        // stay) local: force their scores to "needed immediately".
        for gi in tracker.ready_gates() {
            let gate = &circuit.gates()[gi];
            if !is_executable(gate, gi, mapping, cfg, treat_dense) {
                for q in gate.qubits() {
                    next_need[q as usize] = 0;
                    remaining_need[q as usize] = usize::MAX;
                    next_need_strict[q as usize] = 0;
                    remaining_strict[q as usize] = usize::MAX;
                }
            }
        }
        // Nearly-finished score: invert remaining counts (fewer = better
        // global candidate = larger score).
        let max_rem = circuit.len() + 1;
        let invert =
            |v: &[usize]| -> Vec<usize> { v.iter().map(|&r| max_rem.saturating_sub(r)).collect() };
        let mut candidates: Vec<Vec<u32>> = vec![
            build_mapping_from_scores(&next_need, n, l),
            build_mapping_from_scores(&invert(&remaining_need), n, l),
            build_mapping_from_scores(&next_need_strict, n, l),
            build_mapping_from_scores(&invert(&remaining_strict), n, l),
        ];
        // (c) the basic lowest-order slot swap relative to the current map
        // (with blocked-frontier qubits protected from eviction), and
        // (d) its eviction twin — step one of the two-swap juggle for
        // blocked gates too wide to satisfy in one swap.
        for evict in [false, true] {
            candidates.push(apply_swap_to_mapping(
                mapping,
                &basic_swap(circuit, tracker, mapping, cfg, treat_dense, evict),
                l,
                g,
            ));
        }
        // Order candidates best-first by simulated next-stage progress so
        // the DFS finds a good plan early (tightening its pruning bound).
        let mut scored: Vec<(usize, usize, Vec<u32>)> = candidates
            .into_iter()
            .map(|m| {
                let (gates, done) = simulate_stage(circuit, tracker, &m, cfg, treat_dense);
                (done as usize, gates, m)
            })
            .collect();
        scored.sort_by_key(|s| (std::cmp::Reverse(s.0), std::cmp::Reverse(s.1)));
        let mut out: Vec<SwapOp> = Vec::new();
        for (_, _, target) in scored {
            let swap = mapping_pair_to_swap(mapping, &target, l, g);
            if !out.contains(&swap) {
                out.push(swap);
            }
        }
        out
    }
}

/// Convert (current mapping, target mapping) into a full SwapOp: the new
/// globals that are currently local vacate their slots; current globals
/// fill them. Full swaps move ALL globals in, so when the target would
/// keep a qubit global it is still cycled through a local slot (padded
/// with the lowest-order free local positions).
fn mapping_pair_to_swap(mapping: &[u32], target: &[u32], l: u32, g: u32) -> SwapOp {
    let mut slots = mask_of(
        (0..mapping.len())
            .filter(|&q| target[q] >= l && mapping[q] < l)
            .map(|q| mapping[q]),
    );
    for p in 0..64 {
        if slots.count_ones() >= g {
            break;
        }
        slots |= 1 << p;
    }
    let mut local_slots = positions_of(slots);
    local_slots.truncate(g as usize);
    SwapOp { local_slots }
}

/// Shared helper: given per-qubit scores (higher = better global
/// candidate), build a mapping with the top-g qubits at global positions
/// and everything else local, preserving relative order.
fn build_mapping_from_scores(score: &[usize], n: u32, l: u32) -> Vec<u32> {
    let g = (n - l) as usize;
    let mut order: Vec<u32> = (0..n).collect();
    // Stable: later-needed qubits first; ties by qubit id.
    order.sort_by_key(|&q| (std::cmp::Reverse(score[q as usize]), q));
    let global_set = mask_of(order[..g].iter().copied());
    let mut mapping = vec![0u32; n as usize];
    let mut next_local = 0u32;
    let mut next_global = l;
    for q in 0..n {
        if global_set >> q & 1 == 1 {
            mapping[q as usize] = next_global;
            next_global += 1;
        } else {
            mapping[q as usize] = next_local;
            next_local += 1;
        }
    }
    mapping
}

/// Pop the suffix of underfull, swap-disjoint clusters for §3.6.1 step 3.
/// Returns their gate indices in order (to prepend to the next stage).
fn pop_movable_suffix(ops: &mut Vec<StageOp>, swap: &SwapOp, cfg: &SchedulerConfig) -> Vec<usize> {
    let mut moved: Vec<Vec<usize>> = Vec::new();
    while let Some(StageOp::Cluster(c)) = ops.last() {
        let underfull = c.gate_indices.len() < cfg.kmax as usize;
        let disjoint = c.qubits.iter().all(|q| !swap.local_slots.contains(q));
        if underfull && disjoint {
            if let Some(StageOp::Cluster(c)) = ops.pop() {
                moved.push(c.gate_indices);
            }
        } else {
            break;
        }
    }
    moved.reverse();
    moved.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};

    fn spec(rows: u32, cols: u32, depth: u32) -> Circuit {
        supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth,
            seed: 0,
        })
    }

    #[test]
    fn single_node_plan_has_no_swaps() {
        let c = spec(3, 3, 12);
        let cfg = SchedulerConfig::single_node(9, 4);
        let s = plan(&c, &cfg);
        assert_eq!(s.n_swaps(), 0);
        assert_eq!(s.stages.len(), 1);
        s.verify(&c);
    }

    #[test]
    fn distributed_plan_verifies_and_swaps_bounded() {
        let c = spec(4, 4, 16);
        for l in [12u32, 13, 14] {
            let cfg = SchedulerConfig::distributed(l, 4);
            let s = plan(&c, &cfg);
            s.verify(&c);
            assert!(s.n_swaps() >= 1, "l={l} should need communication");
            assert!(s.n_swaps() <= 6, "l={l}: {} swaps is too many", s.n_swaps());
        }
    }

    #[test]
    fn specialization_reduces_or_equals_swaps() {
        let c = spec(4, 4, 16);
        let on = plan(&c, &SchedulerConfig::distributed(12, 4));
        let mut cfg_off = SchedulerConfig::distributed(12, 4);
        cfg_off.specialize_diagonal = false;
        let off = plan(&c, &cfg_off);
        on.verify(&c);
        off.verify(&c);
        assert!(
            on.n_swaps() <= off.n_swaps(),
            "specialization must not increase swaps: {} vs {}",
            on.n_swaps(),
            off.n_swaps()
        );
    }

    #[test]
    fn swap_search_reduces_or_equals_swaps() {
        let c = spec(4, 4, 24);
        let mut cfg_basic = SchedulerConfig::distributed(12, 4);
        cfg_basic.swap_search = false;
        let basic = plan(&c, &cfg_basic);
        let searched = plan(&c, &SchedulerConfig::distributed(12, 4));
        basic.verify(&c);
        searched.verify(&c);
        assert!(searched.n_swaps() <= basic.n_swaps());
    }

    #[test]
    fn all_gates_scheduled_exactly_once() {
        let c = spec(3, 4, 20);
        let cfg = SchedulerConfig::distributed(9, 3);
        let s = plan(&c, &cfg);
        let mut seen = vec![false; c.len()];
        for stage in &s.stages {
            for op in &stage.ops {
                for &gi in op.gate_indices() {
                    assert!(!seen[gi], "gate {gi} scheduled twice");
                    seen[gi] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn worst_case_dense_flags() {
        // H dense; first T diagonal; subsequent T dense under worst case.
        let mut c = Circuit::new(1);
        c.h(0).t(0).sqrt_x(0).t(0);
        let cfg = SchedulerConfig::distributed(1, 1);
        let d = dense_for_scheduling(&c, &cfg);
        assert_eq!(d, vec![true, false, true, true]);
        let mut cfg2 = cfg;
        cfg2.worst_case_dense = false;
        let d2 = dense_for_scheduling(&c, &cfg2);
        assert_eq!(d2, vec![true, false, true, false]);
    }

    #[test]
    fn mapping_from_scores_puts_late_needs_global() {
        let score = vec![5usize, 100, 1, 50];
        let m = build_mapping_from_scores(&score, 4, 2);
        // Qubits 1 and 3 have the latest needs -> global (positions 2, 3).
        assert!(m[1] >= 2 && m[3] >= 2);
        assert!(m[0] < 2 && m[2] < 2);
    }

    #[test]
    fn fig5_shape_more_depth_not_fewer_swaps() {
        // Swap counts must be monotone (within noise) in circuit depth.
        let mut prev = 0usize;
        for depth in [8u32, 16, 32] {
            let c = spec(4, 4, depth);
            let s = plan(&c, &SchedulerConfig::distributed(12, 4));
            s.verify(&c);
            assert!(
                s.n_swaps() + 1 >= prev,
                "depth {depth}: swaps dropped sharply"
            );
            prev = s.n_swaps();
        }
    }
}
