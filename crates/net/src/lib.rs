//! # qsim-net
//!
//! The multi-node substrate (§3.4) — an in-process message-passing fabric
//! standing in for MPI. Ranks are OS threads, each owning a private slice
//! of the distributed state vector; communication is real data movement
//! through shared-memory mailboxes with full byte accounting, so the
//! traffic numbers the paper reports (Fig. 5, Table 2's comm column) are
//! measured, not modelled.
//!
//! * [`fabric`] — rank spawning, ordered point-to-point channels,
//!   barriers, per-rank byte/time counters.
//! * [`collective`] — the collectives the simulator uses: all-to-all over
//!   the world (the full global-to-local swap), pairwise half-state exchange
//!   (the scheme of \[19\], used by the baseline simulator), and all-reduce
//!   (entropy/norm reductions, §4.2.2).
//! * [`error`] / [`fault`] — the typed failure surface ([`SimError`]) and
//!   scripted fault injection ([`FaultPlan`]): a killed or panicking rank
//!   poisons the fabric, peers unblock instead of hanging, and
//!   [`fabric::Cluster::run`] reports the root cause.

pub mod collective;
pub mod error;
pub mod fabric;
pub mod fault;

pub use error::SimError;
pub use fabric::{
    run_cluster, try_run_cluster_hooked, Cluster, CommCounters, FabricStats, PoisonHook, RankCtx,
};
pub use fault::{FaultAction, FaultPlan};
