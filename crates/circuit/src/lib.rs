//! # qsim-circuit
//!
//! Quantum-circuit intermediate representation and workloads:
//!
//! * [`gate`] — the gate set of quantum supremacy circuits (H, T, X^1/2,
//!   Y^1/2, CZ, …) plus generic rotations and arbitrary unitaries, each
//!   with its dense matrix and the structural properties the scheduler
//!   exploits (diagonality, permutation structure, §3.5).
//! * [`circuit`] — flat gate list with cycle (clock) annotations and a
//!   builder API.
//! * [`dag`] — per-qubit dependency chains; gates on disjoint qubits
//!   commute trivially (§3.6.1), so the dependency structure *is* the
//!   per-qubit program order.
//! * [`supremacy`] — the Fig. 1 generator for Google's low-depth random
//!   circuits on a 2-D nearest-neighbour grid.
//! * [`dense`] — a small dense reference simulator (explicit embedded
//!   matrices); the ground truth for every other execution path in the
//!   workspace.

pub mod algorithms;
pub mod circuit;
pub mod dag;
pub mod dense;
pub mod gate;
pub mod supremacy;

pub use circuit::Circuit;
pub use dag::DependencyTracker;
pub use gate::{Gate, Operands};
pub use supremacy::{supremacy_circuit, SupremacySpec};
