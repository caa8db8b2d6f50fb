//! The echo: C followed by C† is the identity, so a run of C·C† from a
//! basis state |s⟩ must land back on |s⟩ — on every engine, partition
//! count, prefetch depth and precision, and across a kill at every unit.
//! The planner sees C·C† as one fresh circuit, so its swaps, and which
//! qubits are global when, fall in different places in the two halves:
//! a permutation or rank-bit error in one half is not undone by the
//! other. The check names one amplitude, not an aggregate.

mod common;

use common::random_circuit;
use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::{
    Backend, CheckpointPolicy, DistBackend, DistConfig, DistSimulator, SimError, SingleBackend,
    SingleNodeSimulator,
};
use qsim45::kernels::{KernelConfig, SweepDispatch};
use qsim45::ooc::{OocBackend, OocConfig, OocSimulator, ScratchDir};
use qsim45::util::Xoshiro256;

/// `(C·C† prepared on |s⟩, s)`: X gates set the bits of a random nonzero
/// `s`, then C — a `rows × cols` supremacy circuit followed by random
/// gates of every kind — then C†.
fn echo(rows: u32, cols: u32, depth: u32, seed: u64) -> (Circuit, usize) {
    let n = rows * cols;
    let mut c = supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed,
    });
    for g in random_circuit(n, 24, seed).gates() {
        c.push(g.clone());
    }
    let s = 1 + Xoshiro256::seed_from_u64(seed).next_below((1 << n) - 1) as usize;
    let mut out = Circuit::new(n);
    for q in (0..n).filter(|q| s >> q & 1 == 1) {
        out.x(q);
    }
    for g in c.gates().iter().chain(c.adjoint().gates()) {
        out.push(g.clone());
    }
    (out, s)
}

/// `n_ranks` in-memory ranks with sequential kernels.
fn dist<R: SweepDispatch>(n_ranks: usize) -> Box<dyn Backend<R>> {
    let kernel = KernelConfig::sequential();
    let dist = DistSimulator::new(DistConfig {
        n_ranks,
        kernel,
        ..Default::default()
    });
    Box::new(DistBackend::new(dist))
}

/// 16 chunks out of core at `prefetch_depth`, sequential kernels.
fn ooc<R: SweepDispatch>(prefetch_depth: usize) -> Box<dyn Backend<R>> {
    let ooc = OocSimulator::<R>::new(OocConfig {
        kernel: KernelConfig::sequential(),
        prefetch_depth,
        ..OocConfig::default()
    });
    Box::new(OocBackend::new(ooc, 16))
}

/// The stores one echo configuration takes in turn, by name.
type Stores<R> = (String, Vec<Box<dyn Backend<R>>>);

/// Every engine configuration the echo runs, each as the stores its kill
/// loop takes in turn: the single node, 2, 4 and 16 in-memory ranks, 16
/// chunks out of core at prefetch depths 1 and 3 — and 16 partitions
/// alternating between the two stores at every stop, since both commit
/// one layout. Sequential kernels; every store gathers its state.
fn backends<R: SweepDispatch>() -> Vec<Stores<R>> {
    let single = SingleBackend::new(SingleNodeSimulator {
        kernel: KernelConfig::sequential(),
        ..Default::default()
    });
    let mut out: Vec<Stores<R>> = vec![("single".into(), vec![Box::new(single)])];
    for n_ranks in [2, 4, 16] {
        out.push((format!("dist x{n_ranks}"), vec![dist(n_ranks)]));
    }
    for depth in [1, 3] {
        out.push((format!("ooc x16 depth {depth}"), vec![ooc(depth)]));
    }
    let across = vec![dist(16), ooc(1), ooc(3)];
    out.push(("dist x16 / ooc x16 depths 1, 3".into(), across));
    for b in out.iter_mut().flat_map(|(_, stores)| stores) {
        b.gather_state(true);
    }
    out
}

/// The echo on every backend at precision `R`: an uninterrupted run, then
/// a run killed at every unit in turn — each kill resumed by the next run,
/// on the entry's next store — whose last resume must land on |s⟩ too.
fn echo_everywhere<R: SweepDispatch>(rows: u32, cols: u32, depth: u32, seed: u64) {
    let (circuit, s) = echo(rows, cols, depth, seed);
    // ε: 1e-10 at f64; at f32 the depth-scaled bound of the f32 property
    // suite, 2e-6 per gate.
    let eps = match R::BYTES {
        8 => 1e-10,
        _ => 2e-6 * (circuit.len() as f64 + 1.0),
    };
    for (name, mut stores) in backends::<R>() {
        let plan = stores[0].plan(&circuit).expect(&name);
        let units = plan.schedule.stages.len();
        let landed = |b: &mut Box<dyn Backend<R>>, how: &str| {
            let out = b.run(&plan).unwrap_or_else(|e| panic!("{name} {how}: {e}"));
            let state = out.state.expect("gathered state");
            let hit = state[s].norm_sqr().to_f64();
            assert!(hit >= 1.0 - eps, "{name} {how}: |α_s|² = {hit}, s = {s}");
            for (i, a) in state.iter().enumerate().filter(|&(i, _)| i != s) {
                let off = a.norm_sqr().to_f64().sqrt();
                assert!(off <= eps, "{name} {how}: |α_{i}| = {off}, s = {s}");
            }
        };
        landed(&mut stores[0], "uninterrupted");

        let dir = ScratchDir::new("echo");
        let n_stores = stores.len();
        for stop in 1..=units {
            let policy = match stop {
                1 => CheckpointPolicy::new(dir.path()),
                _ => CheckpointPolicy::resume(dir.path()),
            };
            let b = &mut stores[stop % n_stores];
            b.checkpoint(policy);
            match b.run_to_stage(&plan, Some(stop)) {
                Err(SimError::InjectedStop { unit }) => assert_eq!(unit, stop, "{name}"),
                other => panic!("{name}: kill at unit {stop} of {units}: {other:?}"),
            }
        }
        let b = &mut stores[(units + 1) % n_stores];
        b.checkpoint(CheckpointPolicy::resume(dir.path()));
        landed(b, &format!("killed at each of {units} units"));
    }
}

#[test]
fn the_echo_lands_on_its_basis_state_at_16_qubits() {
    echo_everywhere::<f64>(4, 4, 12, 5);
    echo_everywhere::<f32>(4, 4, 12, 6);
}

/// The same at 20 qubits (a 4 × 5 grid at depth 25): a release-mode run.
#[test]
#[ignore = "n = 20 on every backend: run in release"]
fn the_echo_lands_on_its_basis_state_at_20_qubits() {
    echo_everywhere::<f64>(4, 5, 25, 7);
    echo_everywhere::<f32>(4, 5, 25, 8);
}
