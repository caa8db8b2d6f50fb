//! Single-node simulator (§3.1–3.3 stack).
//!
//! Plans the circuit with the scheduler (pure clustering — with every
//! qubit local there are no swaps), then runs it as the in-memory
//! engine's one partition ([`crate::dist`] at `g = 0`): fused k-qubit
//! kernels swept over the whole register with rayon parallelism.

use crate::backend::{plan_partitioned, BackendPlan};
use crate::checkpoint::CheckpointPolicy;
use crate::dist::{DistConfig, DistSimulator};
use crate::planner::PlanOptions;
use crate::state::StateVector;
use qsim_circuit::Circuit;
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_net::SimError;
use qsim_sched::Schedule;
use qsim_telemetry::Telemetry;

/// What [`SingleNodeSimulator::try_run_t`] hands back: the owned state
/// (physical order) for the library's observables, measurement and noise
/// code, plus the plan and timing it came from.
pub struct SingleOutcome<R: SweepDispatch = f64> {
    pub state: StateVector<R>,
    pub schedule: Schedule,
    /// Seconds spent executing kernels (excludes planning).
    pub sim_seconds: f64,
    /// Seconds spent planning (the paper's "1–3 seconds on a laptop").
    pub plan_seconds: f64,
    /// Streaming-pass counters of the tiled stage executor (zeroed when
    /// the per-gate fallback ran).
    pub sweep: SweepStats,
}

/// Single-node engine.
pub struct SingleNodeSimulator {
    pub kernel: KernelConfig,
    pub kmax: u32,
    /// Tile budget (log2 amplitudes) of the cache-tiled stage executor;
    /// `None` is [`crate::exec::resolve_tile_qubits`]'s default.
    pub tile_qubits: Option<u32>,
    /// Span/metrics sink: the run records plan/init/stage spans on the
    /// `single` track and publishes `SweepStats` under `single.sweep`.
    /// The default disabled handle makes all of it a no-op.
    pub telemetry: Telemetry,
    /// Stage-granular checkpoint/restart (the in-memory unit, as in the
    /// distributed engine): a run killed between stages resumes from the
    /// last completed one. `None` (the default) takes no durability
    /// step.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Schedule policy: greedy (the default, bit-identical to the
    /// pre-search engine) or cost-guided search.
    pub plan_options: PlanOptions,
}

impl Default for SingleNodeSimulator {
    fn default() -> Self {
        Self {
            kernel: KernelConfig::default(),
            kmax: 4,
            tile_qubits: None,
            telemetry: Telemetry::disabled(),
            checkpoint: None,
            plan_options: PlanOptions::default(),
        }
    }
}

impl SingleNodeSimulator {
    pub fn new(kernel: KernelConfig, kmax: u32) -> Self {
        Self {
            kernel,
            kmax,
            ..Self::default()
        }
    }

    /// Plan and run `circuit`, returning the owned final state — the one
    /// entry point besides [`crate::Backend`], for callers that go on to
    /// measure, sample or perturb the state. Starts from the uniform
    /// superposition when the first cycle is the supremacy Hadamard layer
    /// (detected and skipped, §3.6), else from |0…0⟩; the schedule is
    /// planned in f64 as always, then executed at `R` (§5 tiering).
    pub fn try_run_t<R: SweepDispatch>(
        &self,
        circuit: &Circuit,
    ) -> Result<SingleOutcome<R>, SimError> {
        let track = self.telemetry.track("single");
        let _run_span = track.span("run");
        let plan = self.plan::<R>(circuit)?;
        let (out, mut parts) = self
            .one_partition(false)
            .run_partitions::<R>("single", &plan, None)?;
        Ok(SingleOutcome {
            // The one rank's slice is the whole register.
            state: parts.swap_remove(0),
            schedule: plan.schedule,
            sim_seconds: out.sim_seconds,
            plan_seconds: plan.plan_seconds,
            sweep: *out.stats.sweep(),
        })
    }

    /// The partitioned engines' planning ([`plan_partitioned`]) at one
    /// partition, where every qubit is local and nothing swaps.
    pub(crate) fn plan<R: SweepDispatch>(
        &self,
        circuit: &Circuit,
    ) -> Result<BackendPlan, SimError> {
        let track = self.telemetry.track("single");
        let _s = track.span("plan");
        let opts = PlanOptions {
            telemetry: self.telemetry.clone(),
            ..self.plan_options.clone()
        };
        plan_partitioned::<R>(circuit, 1, self.kmax, &opts)
    }

    /// This engine as the in-memory engine's one partition: a single
    /// node is the distributed engine at `g = 0`, where swap, all-reduce
    /// and barrier have no peer.
    pub(crate) fn one_partition(&self, gather_state: bool) -> DistSimulator {
        DistSimulator::new(DistConfig {
            n_ranks: 1,
            kernel: self.kernel,
            gather_state,
            tile_qubits: self.tile_qubits,
            telemetry: self.telemetry.clone(),
            checkpoint: self.checkpoint.clone(),
            ..DistConfig::default()
        })
    }
}

/// If the circuit starts with a full layer of Hadamards (the supremacy
/// cycle 0), return (circuit without them, true): the caller initializes
/// the uniform superposition directly. Otherwise (original, false).
pub fn strip_initial_hadamards(circuit: &Circuit) -> (Circuit, bool) {
    let n = circuit.n_qubits();
    let mut seen = vec![false; n as usize];
    let mut cut = 0usize;
    for (i, g) in circuit.gates().iter().enumerate() {
        if let qsim_circuit::Gate::H(q) = g {
            if !seen[*q as usize] {
                seen[*q as usize] = true;
                cut = i + 1;
                if seen.iter().all(|&s| s) {
                    break;
                }
                continue;
            }
        }
        // A non-H gate (or repeated H) before the layer completes: no
        // strippable layer.
        return (circuit.clone(), false);
    }
    if !seen.iter().all(|&s| s) {
        return (circuit.clone(), false);
    }
    let mut out = Circuit::new(n);
    for g in &circuit.gates()[cut..] {
        out.push(g.clone());
    }
    (out, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::dense::simulate_dense;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_util::complex::max_dist;

    fn run(sim: &SingleNodeSimulator, c: &Circuit) -> SingleOutcome {
        sim.try_run_t::<f64>(c).unwrap()
    }

    fn amps_of(c: &Circuit) -> Vec<qsim_util::c64> {
        run(&SingleNodeSimulator::default(), c)
            .state
            .amplitudes()
            .to_vec()
    }

    #[test]
    fn matches_dense_reference_on_supremacy_circuits() {
        for seed in [0u64, 1, 2] {
            let c = supremacy_circuit(&SupremacySpec {
                rows: 3,
                cols: 3,
                depth: 14,
                seed,
            });
            let expect = simulate_dense::<f64>(&c);
            let got = amps_of(&c);
            assert!(
                max_dist(&got, &expect) < 1e-10,
                "seed {seed}: {}",
                max_dist(&got, &expect)
            );
        }
    }

    #[test]
    fn matches_dense_on_structured_circuit() {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).t(1).cz(1, 2).sqrt_y(3).cnot(2, 3).z(0);
        let expect = simulate_dense::<f64>(&c);
        let got = amps_of(&c);
        assert!(max_dist(&got, &expect) < 1e-12);
    }

    #[test]
    fn kmax_variants_agree() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 16,
            seed: 7,
        });
        let mut reference: Option<Vec<qsim_util::c64>> = None;
        for kmax in [2u32, 3, 4, 5] {
            let sim = SingleNodeSimulator::new(KernelConfig::default(), kmax);
            let out = run(&sim, &c);
            out.schedule.verify(&strip_initial_hadamards(&c).0);
            let amps = out.state.amplitudes().to_vec();
            if let Some(r) = &reference {
                assert!(max_dist(r, &amps) < 1e-10, "kmax={kmax} diverges");
            } else {
                reference = Some(amps);
            }
        }
    }

    #[test]
    fn strip_detects_h_layer() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 2,
            cols: 3,
            depth: 10,
            seed: 0,
        });
        let (stripped, uniform) = strip_initial_hadamards(&c);
        assert!(uniform);
        assert_eq!(stripped.len(), c.len() - 6);

        let mut c2 = Circuit::new(2);
        c2.h(0).t(0).h(1);
        let (same, uniform2) = strip_initial_hadamards(&c2);
        assert!(!uniform2);
        assert_eq!(same.len(), 3);
    }

    #[test]
    fn norm_preserved_on_deeper_circuit() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 4,
            cols: 4,
            depth: 20,
            seed: 11,
        });
        let out = run(&SingleNodeSimulator::default(), &c);
        assert!((out.state.norm_sqr() - 1.0).abs() < 1e-9);
        assert!(out.sim_seconds >= 0.0 && out.plan_seconds >= 0.0);
        // Entropy of a deep 16-qubit random circuit approaches n−0.61.
        let h = out.state.entropy();
        assert!(h > 13.0 && h <= 16.0, "entropy {h}");
    }

    #[test]
    fn single_precision_run_tracks_f64() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 20,
            seed: 6,
        });
        let f64_state = run(&SingleNodeSimulator::default(), &c).state;
        let f32_state = SingleNodeSimulator::default()
            .try_run_t::<f32>(&c)
            .unwrap()
            .state;
        // Per-amplitude agreement at f32 precision after ~500 gates.
        let mut worst = 0.0f64;
        for (a, b) in f64_state.amplitudes().iter().zip(f32_state.amplitudes()) {
            worst = worst.max((a.re - b.re as f64).abs().max((a.im - b.im as f64).abs()));
        }
        assert!(worst < 5e-4, "f32 drift {worst}");
        assert!((f32_state.norm_sqr() as f64 - 1.0).abs() < 1e-4);
        // Entropy agreement (the paper's observable).
        assert!((f64_state.entropy() - f32_state.entropy() as f64).abs() < 1e-2);
    }

    #[test]
    fn gate_by_gate_vs_scheduled_t_gate_phases() {
        // Regression guard for diagonal fusion sign errors: T^8 = I.
        let mut c = Circuit::new(2);
        for _ in 0..8 {
            c.t(0);
        }
        c.h(1); // force at least one dense cluster
        let got = amps_of(&c);
        let expect = simulate_dense::<f64>(&c);
        assert!(max_dist(&got, &expect) < 1e-12);
    }
}
