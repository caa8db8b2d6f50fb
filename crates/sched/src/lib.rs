//! # qsim-sched
//!
//! The circuit-optimization layer of the paper (§3.5–3.6): everything that
//! happens *before* any amplitude is touched, turning a gate list into a
//! communication-minimal execution plan.
//!
//! * [`schedule`] — the plan data model: stages of fused operations,
//!   each but the last closed by a global-to-local swap
//!   ([`Schedule::check_shape`]), with the logical→physical qubit mapping
//!   tracked per stage. The stage with its closing swap is the unit every
//!   engine executes, checkpoints and reports progress in.
//! * [`stage`] — stage finding (§3.6.1 step 1): greedy commutation-aware
//!   reordering that maximizes the run of gates executable without
//!   communication, with diagonal-gate specialization on global qubits
//!   (§3.5) and a Belady-style "cheap search" for which qubits to swap.
//! * [`cluster`] — clustering (§3.6.1 step 2): merging runs of 1- and
//!   2-qubit gates into k ≤ kmax fused gates, with a small local search to
//!   maximize gates per cluster, and the step-3 swap-point adjustment.
//! * [`fuse`] — matrix fusion: embedding and multiplying gate matrices
//!   into one 2^k × 2^k cluster matrix.
//! * [`comm`] — communication statistics: swap counts, per-gate global
//!   gate counts (the comparison baseline of Fig. 5), and byte-volume
//!   models.
//! * [`sweep`] — stage-sweep planning for the cache-tiled executor:
//!   footprint-aware op ordering and grouping of consecutive ops into
//!   single streaming passes.
//! * [`cost`] — the schedule cost model: machine-independent resource
//!   counts ([`PlanResources`]) weighted into modeled seconds by a
//!   per-machine [`CostModel`].
//! * [`search`] — cost-guided schedule search: beam over planner
//!   configurations plus annealing over logical relabelings, with the
//!   greedy plan as a structural floor.
//!
//! The top-level entry point is [`stage::plan`]: circuit + config →
//! [`Schedule`]; [`search::search_plan`] is the optimizing variant.

pub mod cluster;
pub mod comm;
pub mod config;
pub mod cost;
pub mod fuse;
pub mod schedule;
pub mod search;
pub mod stage;
pub mod sweep;

pub use comm::{global_gate_count, CommStats};
pub use config::SchedulerConfig;
pub use cost::{plan_resources, CostModel, PlanResources};
pub use schedule::{Cluster, DiagonalOp, Schedule, Stage, StageOp, SwapOp};
pub use search::{search_plan, SearchConfig, SearchOutcome};
pub use stage::{check_schedulable, plan};
pub use sweep::{plan_stage_sweeps, SweepPass, SweepPlan};
