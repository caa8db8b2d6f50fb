//! Gate fusion: building one 2^k × 2^k matrix from a run of small gates
//! (§3.6.1 step 2, "execute this k-qubit gate instead of many single- and
//! two-qubit gates").
//!
//! Fusion happens in *physical* coordinates: each gate's logical operands
//! are translated through the stage mapping, located inside the cluster's
//! sorted position list, embedded to the cluster arity, and multiplied
//! onto the accumulated product (later gates on the left).

use crate::schedule::{Schedule, StageOp};
use qsim_circuit::{Circuit, Gate};
use qsim_util::c64;
use qsim_util::matrix::GateMatrix;

/// The planner's one fuse step: fill every cluster matrix of `schedule`,
/// a plan of `circuit` built unfused, under its stage's mapping.
pub(crate) fn fuse_schedule(circuit: &Circuit, schedule: &mut Schedule) {
    for stage in &mut schedule.stages {
        for op in &mut stage.ops {
            if let StageOp::Cluster(c) = op {
                let gates = c.gate_indices.iter().map(|&gi| &circuit.gates()[gi]);
                c.matrix = fuse_gates(gates, &c.qubits, &stage.mapping);
            }
        }
    }
}

/// Fuse `gates` (in application order) into one matrix over the sorted
/// physical positions `cluster_qubits`. `mapping[logical] = physical`.
pub fn fuse_gates<'a>(
    gates: impl IntoIterator<Item = &'a Gate>,
    cluster_qubits: &[u32],
    mapping: &[u32],
) -> GateMatrix<f64> {
    let k = cluster_qubits.len() as u32;
    assert!(k >= 1, "empty cluster");
    debug_assert!(cluster_qubits.windows(2).all(|w| w[0] < w[1]));
    let mut fused = GateMatrix::<f64>::identity(k);
    for g in gates {
        let embedded = embed_gate(g, cluster_qubits, mapping);
        // Later gates act after: |ψ⟩ → G·fused·|ψ⟩.
        fused = embedded.matmul(&fused);
    }
    fused
}

/// Embed one gate into the cluster's operand space.
pub fn embed_gate(g: &Gate, cluster_qubits: &[u32], mapping: &[u32]) -> GateMatrix<f64> {
    let slots: Vec<u32> = g
        .qubits()
        .iter()
        .map(|&q| {
            let p = mapping[q as usize];
            cluster_qubits
                .iter()
                .position(|&cq| cq == p)
                .unwrap_or_else(|| {
                    panic!("gate qubit {q} (phys {p}) outside cluster {cluster_qubits:?}")
                }) as u32
        })
        .collect();
    let m: GateMatrix<f64> = g.matrix();
    m.embed(cluster_qubits.len() as u32, &slots)
}

/// Build the diagonal of a diagonal gate in physical-position operand
/// order, for §3.5 specialized execution. Returns `(positions, diag)`
/// with positions in the gate's operand order mapped to physical.
pub fn diagonal_of(g: &Gate, mapping: &[u32]) -> (Vec<u32>, Vec<c64>) {
    let m: GateMatrix<f64> = g.matrix();
    let diag = m
        .as_diagonal()
        .unwrap_or_else(|| panic!("{} is not diagonal", g.name()));
    let positions = g.qubits().iter().map(|&q| mapping[q as usize]).collect();
    (positions, diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::dense::{apply_gate_dense, zero_state};
    use qsim_util::complex::max_dist;
    use qsim_util::Complex;

    /// Apply a fused cluster matrix to a dense state (test helper).
    fn apply_matrix_dense(
        state: &mut Vec<Complex<f64>>,
        n: u32,
        qubits: &[u32],
        m: &GateMatrix<f64>,
    ) {
        let big = m.embed(n, qubits);
        let d = state.len();
        let mut out = vec![Complex::zero(); d];
        for (r, o) in out.iter_mut().enumerate() {
            for (c, &s) in state.iter().enumerate() {
                *o += big.get(r, c) * s;
            }
        }
        *state = out;
    }

    #[test]
    fn fusion_equals_sequential_application() {
        // H(0), CZ(0,1), T(1), X^1/2(0) fused over cluster {0,1}.
        let gates = vec![Gate::H(0), Gate::CZ(0, 1), Gate::T(1), Gate::SqrtX(0)];
        let mapping = vec![0u32, 1, 2];
        let fused = fuse_gates(&gates, &[0, 1], &mapping);
        assert!(fused.unitarity_residual() < 1e-12);

        let n = 3;
        let mut a = zero_state::<f64>(n);
        // Put some amplitude everywhere first.
        for q in 0..n {
            apply_gate_dense(&mut a, n, &Gate::H(q));
        }
        let mut b = a.clone();
        for g in &gates {
            apply_gate_dense(&mut a, n, g);
        }
        apply_matrix_dense(&mut b, n, &[0, 1], &fused);
        assert!(max_dist(&a, &b) < 1e-12);
    }

    #[test]
    fn fusion_respects_mapping() {
        // Logical qubit 2 mapped to physical 0; H(2) must land on slot 0
        // of cluster {0}.
        let mapping = vec![2u32, 1, 0];
        let fused = fuse_gates(&[Gate::H(2)], &[0], &mapping);
        let h: GateMatrix<f64> = Gate::H(0).matrix();
        assert_eq!(fused, h);
    }

    #[test]
    fn fusion_order_matters() {
        // H then T differs from T then H.
        let h = Gate::H(0);
        let t = Gate::T(0);
        let mapping = vec![0u32];
        let ht = fuse_gates([&h, &t], &[0], &mapping);
        let th = fuse_gates([&t, &h], &[0], &mapping);
        assert!(max_dist(ht.entries(), th.entries()) > 0.1);
        // ht = T·H as matrices.
        let tm: GateMatrix<f64> = t.matrix();
        let hm: GateMatrix<f64> = h.matrix();
        let expect = tm.matmul(&hm);
        assert!(max_dist(ht.entries(), expect.entries()) < 1e-12);
    }

    #[test]
    fn diagonal_extraction_maps_positions() {
        let mapping = vec![5u32, 3, 7];
        let (pos, diag) = diagonal_of(&Gate::CZ(0, 2), &mapping);
        assert_eq!(pos, vec![5, 7]);
        assert_eq!(diag.len(), 4);
        assert_eq!(diag[3], -c64::one());
        assert_eq!(diag[0], c64::one());
    }

    #[test]
    #[should_panic(expected = "not diagonal")]
    fn diagonal_of_dense_gate_panics() {
        let _ = diagonal_of(&Gate::H(0), &[0]);
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn embed_outside_cluster_panics() {
        let mapping = vec![0u32, 1];
        let _ = embed_gate(&Gate::H(1), &[0], &mapping);
    }

    #[test]
    fn fused_supremacy_stage_is_unitary() {
        // Many gates over a 4-qubit cluster stay unitary.
        let gates = vec![
            Gate::H(0),
            Gate::H(1),
            Gate::H(2),
            Gate::H(3),
            Gate::CZ(0, 1),
            Gate::CZ(2, 3),
            Gate::T(0),
            Gate::SqrtY(1),
            Gate::CZ(1, 2),
            Gate::SqrtX(3),
            Gate::T(2),
        ];
        let mapping = vec![0u32, 1, 2, 3];
        let fused = fuse_gates(&gates, &[0, 1, 2, 3], &mapping);
        assert!(fused.unitarity_residual() < 1e-10);
    }
}
