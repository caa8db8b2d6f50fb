//! Scheduler configuration.

/// Knobs of the §3.5–3.6 optimization pipeline. Every flag corresponds to
/// one of the paper's named optimizations so the benches can ablate them
/// individually.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Number of local qubits l; the remaining `n − l` are global (rank)
    /// bits. `l == n` plans a single-node execution with no swaps.
    pub local_qubits: u32,
    /// Largest fused-cluster size (§3.6.1 step 2). The paper evaluates
    /// kmax ∈ {3, 4, 5} (Table 1).
    pub kmax: u32,
    /// §3.5 gate specialization: diagonal gates (CZ, T, Rz, …) on global
    /// qubits execute without communication. Disabling forces every gate
    /// onto local qubits — the ablation for "3 swaps instead of 2" — and
    /// leaves `2 · local_qubits == n` unschedulable (`plan`'s `# Panics`).
    pub specialize_diagonal: bool,
    /// Worst-case stage finding (§3.6.1): *randomly drawn* single-qubit
    /// gates are assumed dense even if the instance happened to draw a T.
    /// The deterministic second-gate T is still diagonal. This matches the
    /// paper's swap counts; disabling uses the instance's actual gates.
    pub worst_case_dense: bool,
    /// The "cheap search" for better swap targets (§3.6.1 step 1):
    /// Belady-style furthest-next-dense-use selection of which qubits
    /// become global. Disabled = always swap all globals with the
    /// lowest-order local qubits (the paper's upper-bound strategy).
    pub swap_search: bool,
    /// §3.6.1 step 3: move trailing underfull clusters across the next
    /// swap when their qubits stay local, to raise gates/cluster.
    pub adjust_swaps: bool,
    /// Number of clustering seed trials in the "small local search"
    /// (§3.6.1 step 2); 1 = pure greedy.
    pub cluster_trials: usize,
    /// Reorder each stage's op list by qubit footprint so consecutive
    /// clusters share tile bits — feeds the cache-tiled sweep executor
    /// (more ops per streaming pass). Dependency-safe: only ops on
    /// disjoint position sets are commuted.
    pub sweep_order: bool,
}

impl SchedulerConfig {
    /// Paper-faithful defaults for a distributed run with `l` local
    /// qubits.
    pub fn distributed(local_qubits: u32, kmax: u32) -> Self {
        Self {
            local_qubits,
            kmax,
            specialize_diagonal: true,
            worst_case_dense: true,
            swap_search: true,
            adjust_swaps: true,
            cluster_trials: 4,
            sweep_order: true,
        }
    }

    /// Single-node plan: every qubit local, clustering only.
    pub fn single_node(n_qubits: u32, kmax: u32) -> Self {
        Self::distributed(n_qubits, kmax)
    }

    /// The unoptimized upper-bound configuration (no search, no
    /// specialization, no adjustment) — the ablation baseline; see
    /// `specialize_diagonal` for `2 · local_qubits == n`.
    pub fn naive(local_qubits: u32, kmax: u32) -> Self {
        Self {
            local_qubits,
            kmax,
            specialize_diagonal: false,
            worst_case_dense: true,
            swap_search: false,
            adjust_swaps: false,
            cluster_trials: 1,
            sweep_order: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_documented() {
        let d = SchedulerConfig::distributed(30, 4);
        assert!(d.specialize_diagonal && d.swap_search && d.adjust_swaps);
        assert_eq!(d.kmax, 4);
        assert!(d.sweep_order);
        let n = SchedulerConfig::naive(30, 4);
        assert!(!n.specialize_diagonal && !n.swap_search && !n.adjust_swaps);
        assert!(!n.sweep_order);
        let s = SchedulerConfig::single_node(20, 5);
        assert_eq!(s.local_qubits, 20);
    }
}
