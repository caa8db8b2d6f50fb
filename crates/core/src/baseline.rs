//! The prior-art baseline simulator — the comparator behind Table 2's
//! speedup column.
//!
//! Re-implements the execution strategy of \[5\]/\[19\]: gates run one by
//! one in circuit order (no reordering, no fusion); diagonal gates are
//! specialized (as \[5\] does — its ~50 communication steps per depth-25
//! 42-qubit circuit are the dense single-qubit gates on global qubits);
//! a dense gate on a global qubit triggers the pairwise scheme of \[19\]:
//! **two exchanges of half the state vector** with the partner rank that
//! differs in that global bit. No global-to-local swaps, no clustering,
//! no mapping optimization — exactly the gap the paper's optimizations
//! close.

use crate::dist::physical_to_logical;
use crate::exec::apply_rank_diagonal;
use crate::observables::norm_entropy;
use crate::single::strip_initial_hadamards;
use crate::state::StateVector;
use qsim_circuit::Circuit;
use qsim_kernels::apply::KernelConfig;
use qsim_net::collective::all_reduce_sum;
use qsim_net::fabric::{run_cluster, FabricStats, RankCtx};
use qsim_sched::DiagonalOp;
use qsim_util::c64;
use qsim_util::matrix::GateMatrix;
use std::time::Instant;

/// Baseline run results.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    pub norm: f64,
    pub entropy: f64,
    pub sim_seconds: f64,
    pub fabric: FabricStats,
    /// Count of communication events (global dense gates).
    pub comm_steps: usize,
    pub state: Option<Vec<c64>>,
}

/// Per-gate baseline engine.
pub struct BaselineSimulator {
    pub n_ranks: usize,
    pub kernel: KernelConfig,
    pub gather_state: bool,
}

impl BaselineSimulator {
    pub fn new(n_ranks: usize, kernel: KernelConfig) -> Self {
        Self {
            n_ranks,
            kernel,
            gather_state: false,
        }
    }

    /// Run a circuit per-gate. The initial Hadamard layer (if present) is
    /// replaced by a uniform initialization, as \[5\] also does.
    pub fn run(&self, circuit: &Circuit) -> BaselineOutcome {
        let n = circuit.n_qubits();
        assert!(self.n_ranks.is_power_of_two());
        let g = self.n_ranks.trailing_zeros();
        let l = n - g;
        assert!(l >= 1, "too many ranks for {n} qubits");
        let (exec, init_uniform) = strip_initial_hadamards(circuit);
        let cfg = &self.kernel;
        let gather = self.gather_state;

        let (rank_results, fabric) = run_cluster(self.n_ranks, |ctx| {
            run_rank_baseline(ctx, &exec, l, init_uniform, cfg, gather)
        });
        let comm_steps = rank_results[0].1;
        let mut outcome = BaselineOutcome {
            norm: rank_results[0].2,
            entropy: rank_results[0].3,
            sim_seconds: rank_results.iter().map(|r| r.0).fold(0.0, f64::max),
            fabric,
            comm_steps,
            state: None,
        };
        if gather {
            let mut physical = vec![c64::zero(); 1usize << n];
            for (r, res) in rank_results.iter().enumerate() {
                physical[r << l..(r + 1) << l]
                    .copy_from_slice(res.4.as_ref().expect("gather requested"));
            }
            // Baseline never remaps qubits: physical order IS logical.
            let identity: Vec<u32> = (0..n).collect();
            outcome.state = Some(physical_to_logical(&physical, &identity));
        }
        outcome
    }
}

type RankOut = (f64, usize, f64, f64, Option<Vec<c64>>);

fn run_rank_baseline(
    ctx: &mut RankCtx,
    circuit: &Circuit,
    l: u32,
    init_uniform: bool,
    cfg: &KernelConfig,
    gather: bool,
) -> RankOut {
    let n = circuit.n_qubits();
    let rank = ctx.rank();
    let t0 = Instant::now();
    let mut state = if init_uniform {
        StateVector::<f64>::uniform_slice(l, n)
    } else if rank == 0 {
        StateVector::<f64>::zero(l)
    } else {
        StateVector::<f64>::null(l)
    };
    let mut comm_steps = 0usize;

    for gate in circuit.gates() {
        let qubits = gate.qubits();
        let global: Vec<u32> = qubits.iter().copied().filter(|&q| q >= l).collect();
        if gate.is_diagonal() {
            let m: GateMatrix<f64> = gate.matrix();
            let d = DiagonalOp {
                positions: qubits.to_vec(),
                diag: m.as_diagonal().expect("diagonal gate"),
                gate_indices: vec![],
            };
            apply_rank_diagonal(state.amplitudes_mut(), &d, rank, l);
        } else if global.is_empty() {
            let m: GateMatrix<f64> = gate.matrix();
            state.apply(&qubits, &m, cfg);
        } else {
            // Dense global gate: the [19] pairwise scheme.
            assert_eq!(
                qubits.len(),
                1,
                "baseline supports dense global gates of one qubit (gate {})",
                gate.name()
            );
            let m: GateMatrix<f64> = gate.matrix();
            apply_global_1q_pairwise(ctx, &mut state, global[0] - l, &m);
            comm_steps += 1;
        }
    }

    let (local_norm, local_entropy) =
        norm_entropy(state.amplitudes(), rayon::current_num_threads());
    let norm = all_reduce_sum(ctx, local_norm);
    let entropy = all_reduce_sum(ctx, local_entropy);
    (
        t0.elapsed().as_secs_f64(),
        comm_steps,
        norm,
        entropy,
        gather.then(|| state.amplitudes().to_vec()),
    )
}

/// Apply a dense single-qubit gate on global bit `b` using two pairwise
/// exchanges of half the local slice (\[19\]; Fig. 3a's scheme executed
/// per-gate).
///
/// The amplitude pair for local index `i` is `(A_i, B_i)` with `A` on the
/// bit-0 rank and `B` on the bit-1 rank. The lower rank computes the
/// first half of the index range, the upper rank the second half:
/// exchange 1 ships each rank's "other half" to its partner; each rank
/// applies the 2×2 gate to its half; exchange 2 ships the updated
/// other-side amplitudes back.
pub fn apply_global_1q_pairwise(
    ctx: &mut RankCtx,
    state: &mut StateVector<f64>,
    b: u32,
    m: &GateMatrix<f64>,
) {
    let partner = ctx.rank() ^ (1usize << b);
    let lower = ctx.rank() < partner; // my global bit is 0
    let len = state.len();
    let half = len / 2;
    let (mine_r, theirs_r) = if lower {
        (0..half, half..len)
    } else {
        (half..len, 0..half)
    };
    // Exchange 1: send the half I will NOT compute.
    let received = ctx.exchange(partner, &state.amplitudes()[theirs_r.clone()]);
    debug_assert_eq!(received.len(), half);
    // Compute my half; collect the partner-side updates.
    let (m00, m01, m10, m11) = (m.get(0, 0), m.get(0, 1), m.get(1, 0), m.get(1, 1));
    let mut partner_updates = vec![c64::zero(); half];
    {
        let amps = state.amplitudes_mut();
        for (j, i) in mine_r.clone().enumerate() {
            let (a, bb) = if lower {
                (amps[i], received[j])
            } else {
                (received[j], amps[i])
            };
            let new_a = m00 * a + m01 * bb;
            let new_b = m10 * a + m11 * bb;
            if lower {
                amps[i] = new_a;
                partner_updates[j] = new_b;
            } else {
                amps[i] = new_b;
                partner_updates[j] = new_a;
            }
        }
    }
    // Exchange 2: results travel back.
    let back = ctx.exchange(partner, &partner_updates);
    state.amplitudes_mut()[theirs_r].copy_from_slice(&back);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_util::complex::max_dist;

    fn baseline_state(c: &Circuit, ranks: usize) -> (Vec<c64>, BaselineOutcome) {
        let mut sim = BaselineSimulator::new(ranks, KernelConfig::sequential());
        sim.gather_state = true;
        let out = sim.run(c);
        (out.state.clone().unwrap(), out)
    }

    #[test]
    fn baseline_matches_dense_reference_single_rank() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 12,
            seed: 4,
        });
        let expect = qsim_circuit::dense::simulate_dense::<f64>(&c);
        let (got, out) = baseline_state(&c, 1);
        assert!(max_dist(&got, &expect) < 1e-10);
        assert_eq!(out.comm_steps, 0);
        assert_eq!(out.fabric.total_bytes_sent, 0);
    }

    #[test]
    fn baseline_matches_across_rank_counts() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 16,
            seed: 8,
        });
        let (expect, _) = baseline_state(&c, 1);
        for ranks in [2usize, 4, 8] {
            let (got, out) = baseline_state(&c, ranks);
            assert!(
                max_dist(&got, &expect) < 1e-10,
                "ranks={ranks}: {}",
                max_dist(&got, &expect)
            );
            assert!(out.comm_steps > 0, "ranks={ranks} must communicate");
            assert!((out.norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn comm_steps_equal_global_dense_gate_count() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 4,
            cols: 3,
            depth: 20,
            seed: 2,
        });
        let ranks = 4usize;
        let l = 12 - 2;
        let (_, out) = baseline_state(&c, ranks);
        let expect = qsim_sched::global_gate_count(&c, l, false);
        assert_eq!(out.comm_steps, expect);
    }

    #[test]
    fn pairwise_exchange_bytes_match_two_half_slices() {
        // One dense global gate across 2 ranks: each rank sends
        // half-slice twice => total = 2 ranks * 2 * half * 16 B.
        let mut c = Circuit::new(3);
        c.sqrt_x(2); // qubit 2 global with 2 ranks
        let (got, out) = baseline_state(&c, 2);
        let half = (1usize << 2) / 2;
        // Gate traffic (2 ranks x 2 half-slice exchanges) plus the 32
        // bytes of final norm/entropy all-reduces.
        assert_eq!(out.fabric.total_bytes_sent as usize, 2 * 2 * half * 16 + 32);
        // Against dense reference.
        let expect = qsim_circuit::dense::simulate_dense::<f64>(&c);
        assert!(max_dist(&got, &expect) < 1e-12);
    }

    #[test]
    fn global_diagonal_gates_are_free() {
        let mut c = Circuit::new(3);
        c.cz(0, 2).t(2).z(2);
        let (got, out) = baseline_state(&c, 2);
        assert_eq!(out.comm_steps, 0);
        // Only the final norm/entropy all-reduces touch the wire:
        // 2 ranks x 2 reductions x 8 bytes each way.
        assert_eq!(out.fabric.total_bytes_sent, 32);
        let expect = qsim_circuit::dense::simulate_dense::<f64>(&c);
        assert!(max_dist(&got, &expect) < 1e-12);
    }

    #[test]
    fn global_x_gate_via_pairwise() {
        // X is a permutation but the baseline treats it as dense 1q.
        let mut c = Circuit::new(2);
        c.h(0); // avoid the strip (single H is not a full layer... it is
                // a layer only if every qubit gets one; q1 doesn't).
        c.x(1);
        let (got, _) = baseline_state(&c, 2);
        let expect = qsim_circuit::dense::simulate_dense::<f64>(&c);
        assert!(max_dist(&got, &expect) < 1e-12);
    }
}
