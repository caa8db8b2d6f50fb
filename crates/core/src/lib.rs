//! # qsim-core
//!
//! The simulators. The execution engines share the kernels, circuits
//! and schedules of the sibling crates:
//!
//! * [`dist`] — the in-memory engine: executes a [`qsim_sched`]
//!   schedule across `2^g` ranks of the [`qsim_net`] fabric, realizing
//!   global-to-local swaps as local bit permutations around all-to-alls
//!   (§3.4) and diagonal global gates as rank-conditional phases (§3.5).
//! * [`single`] — single-node simulator: plans the circuit (clustering
//!   only, no swaps) and runs it as the in-memory engine's one partition,
//!   fused k-qubit kernels with rayon parallelism — the paper's §3.1–3.3
//!   stack.
//! * [`baseline`] — the prior-art comparator (\[5\]/\[19\]): per-gate
//!   execution, no fusion, global gates via two pairwise half-state
//!   exchanges. Table 2's speedups are measured against this engine.
//!
//! Every production engine (the out-of-core one in `qsim-ooc` included)
//! is reached through the [`Backend`] trait and executes
//! communication-free stages through [`exec::StageExecutor`]: stages are
//! compiled once (matrices packed, ops grouped into streaming passes)
//! and each pass applies a whole group of fused gates per traversal of a
//! partition. [`run::drive`] is the one stage loop of every engine —
//! resume, progress, the manifest flip, the stop and the run state — over
//! a [`run::PartitionStore`] that holds the partitions, and
//! [`checkpoint`] holds the one checkpoint policy and manifest protocol it
//! commits through.
//!
//! Supporting modules: [`state`] (aligned state-vector container) and
//! [`observables`] (entropy, sampling, cross-entropy — §4.2.2's measured
//! quantities).

pub mod backend;
pub mod baseline;
pub mod checkpoint;
pub mod dist;
pub mod exec;
pub mod observables;
pub mod planner;
pub mod run;
pub mod single;
pub mod state;

pub use backend::{
    partition_geometry, plan_partitioned, Backend, BackendOutcome, BackendPlan, BackendStats,
    DistBackend, SingleBackend,
};
pub use baseline::BaselineSimulator;
pub use checkpoint::{CheckpointError, CheckpointPolicy, Manifest, RunKey};
pub use dist::{DistConfig, DistSimulator};
pub use exec::{compile_stages, execute_compiled_stage, CompiledStage, StageExecutor};
pub use planner::{plan_schedule, PlanOptions, PlannedSchedule, ScheduleMode};
pub use qsim_net::SimError;
pub use single::{SingleNodeSimulator, SingleOutcome};
pub use state::StateVector;
