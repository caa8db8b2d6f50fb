//! Fault-injection plans for the rank fabric.
//!
//! A [`FaultPlan`] scripts rank deaths at *swap indices* — the natural
//! failure boundary of the paper's execution model, since swaps are the
//! only points where ranks are mutually dependent. Rank bodies opt in by
//! calling `RankCtx::fault_point(swap_index)` before each swap; a
//! scripted rank then dies there (modelling node loss), poisoning the
//! fabric so peers unblock with a typed [`crate::SimError`] instead of
//! hanging.

/// What a fault point should do for a given (rank, swap index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Die at this boundary with [`crate::SimError::InjectedFault`].
    Kill,
}

/// A scripted set of failures, shared read-only by every rank.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    kills: Vec<(usize, usize)>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `rank` when it reaches swap `swap_index`.
    pub fn kill(mut self, rank: usize, swap_index: usize) -> Self {
        self.kills.push((rank, swap_index));
        self
    }

    /// Resolve the scripted action for this (rank, swap index).
    pub fn action(&self, rank: usize, swap_index: usize) -> FaultAction {
        if self.kills.contains(&(rank, swap_index)) {
            FaultAction::Kill
        } else {
            FaultAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_scripted_kills() {
        let plan = FaultPlan::new().kill(2, 1).kill(0, 3);
        assert_eq!(plan.action(0, 0), FaultAction::None);
        assert_eq!(plan.action(2, 0), FaultAction::None, "only at its swap");
        assert_eq!(plan.action(2, 1), FaultAction::Kill);
        assert_eq!(plan.action(0, 3), FaultAction::Kill);
        assert_eq!(FaultPlan::new().action(0, 0), FaultAction::None);
    }
}
