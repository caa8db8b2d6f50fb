//! The random-circuit sources of the root integration tests.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::{Circuit, Gate};
use qsim45::util::matrix::GateMatrix;
use qsim45::util::Xoshiro256;

/// An angle in `[-3, 3)`.
fn angle(rng: &mut Xoshiro256) -> f64 {
    rng.next_f64() * 6.0 - 3.0
}

/// The matrix of a named single-qubit gate: products of these stay
/// unitary, so they make sound `U1`/`U2` operands.
fn named_matrix(rng: &mut Xoshiro256) -> GateMatrix<f64> {
    let fixed: [fn(u32) -> Gate; 4] = [Gate::H, Gate::T, Gate::SqrtX, Gate::SqrtY];
    let rotations: [fn(u32, f64) -> Gate; 2] = [Gate::Rx, Gate::Ry];
    match rng.next_below(6) as usize {
        k @ 0..=3 => fixed[k](0).matrix(),
        k => rotations[k - 4](0, angle(rng)).matrix(),
    }
}

/// One gate on `n ≥ 3` qubits, uniform over every [`Gate`] variant, its
/// operands distinct.
fn random_gate(rng: &mut Xoshiro256, n: u32) -> Gate {
    use Gate::*;
    let fixed: [fn(u32) -> Gate; 10] = [H, T, Tdg, S, Sdg, X, Y, Z, SqrtX, SqrtY];
    let rotations: [fn(u32, f64) -> Gate; 3] = [Rz, Rx, Ry];
    let mut qs: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut qs);
    let (a, b, c, theta) = (qs[0], qs[1], qs[2], angle(rng));
    match rng.next_below(21) as usize {
        k @ 0..=9 => fixed[k](a),
        k @ 10..=12 => rotations[k - 10](a, theta),
        13 => CZ(a, b),
        14 => Swap(a, b),
        15 => CPhase(a, b, theta),
        16 => CCZ(a, b, c),
        17 => CNot {
            target: a,
            control: b,
        },
        18 => Toffoli {
            target: a,
            c1: b,
            c2: c,
        },
        19 => U1(a, Box::new(named_matrix(rng).matmul(&named_matrix(rng)))),
        _ => {
            // An entangler after a product of two single-qubit unitaries:
            // not symmetric in its operands, so their order matters.
            let local = named_matrix(rng).kron(&named_matrix(rng));
            let entangler: GateMatrix<f64> = CNot {
                target: 0,
                control: 1,
            }
            .matrix();
            U2(a, b, Box::new(entangler.matmul(&local)))
        }
    }
}

/// `n_gates` gates on `n ≥ 3` qubits drawn from `seed`.
pub fn random_circuit(n: u32, n_gates: usize, seed: u64) -> Circuit {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..n_gates {
        c.push(random_gate(&mut rng, n));
    }
    c
}

/// The two-qubit gate [`grid_asym`] puts in place of each CZ.
#[allow(dead_code)] // not every test binary draws a grid
#[derive(Clone, Copy, Debug)]
pub enum TwoQubit {
    /// `CNot`, its control on the side the seed draws: a permutation gate.
    CNot,
    /// A seeded dense unitary, its operands in seeded order.
    U2,
}

/// A seeded dense two-qubit unitary: single-qubit layers between a CNOT
/// each way and a controlled phase, so its operator-Schmidt rank is up
/// to 4 and it is not symmetric in its operands.
fn dense_u2(rng: &mut Xoshiro256) -> GateMatrix<f64> {
    let mut layer = || named_matrix(rng).kron(&named_matrix(rng));
    let cnot: GateMatrix<f64> = Gate::CNot {
        target: 0,
        control: 1,
    }
    .matrix();
    let swap: GateMatrix<f64> = Gate::Swap(0, 1).matrix();
    let reversed = swap.matmul(&cnot).matmul(&swap);
    let (a, b, c) = (layer(), layer(), layer());
    let phase: GateMatrix<f64> = Gate::CPhase(0, 1, 0.7).matrix();
    a.matmul(&cnot)
        .matmul(&b)
        .matmul(&reversed)
        .matmul(&c)
        .matmul(&phase)
}

/// The Boixo layout of a `rows × cols` supremacy circuit at `depth`, with
/// each CZ replaced by `two_qubit` (drawn from `seed`). CZ is symmetric
/// and diagonal, so supremacy amplitudes cannot see the operand order of
/// a two-qubit gate; these two gates can, through the fuser, the tile
/// kernels and the swaps.
#[allow(dead_code)] // not every test binary draws a grid
pub fn grid_asym(rows: u32, cols: u32, depth: u32, seed: u64, two_qubit: TwoQubit) -> Circuit {
    let grid = supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed,
    });
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = Circuit::new(grid.n_qubits());
    for g in grid.gates() {
        let &Gate::CZ(a, b) = g else {
            c.push(g.clone());
            continue;
        };
        let (a, b) = if rng.next_below(2) == 1 {
            (b, a)
        } else {
            (a, b)
        };
        c.push(match two_qubit {
            TwoQubit::CNot => Gate::CNot {
                target: a,
                control: b,
            },
            TwoQubit::U2 => Gate::U2(a, b, Box::new(dense_u2(&mut rng))),
        });
    }
    c
}
