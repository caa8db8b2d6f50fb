//! Typed failure surface of the rank fabric.
//!
//! Before this module, a lost rank was fatal twice over: the dead rank's
//! panic unwound its own thread, every peer blocked forever in a recv or
//! barrier, and the driver's `join().expect` turned the whole process
//! into a poisoned hang. [`SimError`] plus the fabric's poison protocol
//! (see `fabric`) replace that with one typed, attributable error: the
//! *first* failing rank's cause survives, peers are woken and classified
//! as collateral ([`SimError::FabricPoisoned`]), and the driver returns
//! `Err` instead of panicking.

use std::fmt;

/// Why a clustered run failed.
#[derive(Debug)]
pub enum SimError {
    /// A configured [`crate::FaultPlan`] killed this rank at the given
    /// swap boundary (fault-injection testing).
    InjectedFault { rank: usize, swap_index: usize },
    /// An engine-level stop point halted a run after `unit` completed
    /// checkpoint units (single-process fault injection, where there is
    /// no fabric to kill a rank through).
    InjectedStop { unit: usize },
    /// The rank body panicked; `message` is the panic payload when it
    /// was a string.
    RankPanicked { rank: usize, message: String },
    /// This rank failed only because *another* rank poisoned the fabric
    /// — collateral damage, never the root cause reported by
    /// `try_run_cluster_hooked` when any other error is available.
    FabricPoisoned { rank: usize },
    /// Checkpoint/restart bookkeeping failed (manifest or snapshot).
    Checkpoint(String),
    /// Filesystem failure outside the checkpoint protocol.
    Io(std::io::Error),
}

impl SimError {
    /// The rank this error is attributed to, when known.
    pub fn rank(&self) -> Option<usize> {
        match self {
            SimError::InjectedFault { rank, .. }
            | SimError::RankPanicked { rank, .. }
            | SimError::FabricPoisoned { rank } => Some(*rank),
            SimError::InjectedStop { .. } | SimError::Checkpoint(_) | SimError::Io(_) => None,
        }
    }

    /// Ordering key for root-cause selection: direct failures beat
    /// panics, panics beat collateral poisoning.
    pub(crate) fn severity(&self) -> u8 {
        match self {
            SimError::FabricPoisoned { .. } => 2,
            SimError::RankPanicked { .. } => 1,
            _ => 0,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InjectedFault { rank, swap_index } => {
                write!(f, "rank {rank} killed by fault plan at swap {swap_index}")
            }
            SimError::InjectedStop { unit } => {
                write!(f, "run stopped by injected fault after unit {unit}")
            }
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::FabricPoisoned { rank } => {
                write!(f, "rank {rank} aborted: fabric poisoned by a failed peer")
            }
            SimError::Checkpoint(m) => write!(f, "checkpoint failure: {m}"),
            SimError::Io(e) => write!(f, "io failure: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io(e)
    }
}
