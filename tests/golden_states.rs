//! Golden states: the bits every engine computes, pinned across commits
//! (the differential oracle compares engines within one). Each class —
//! circuit, partition count P, precision, greedy plan — pins `fnv1a64`
//! of the gathered logical-order amplitude bytes, the norm and entropy
//! `to_bits`, and the `schedule_fingerprint`; every engine holding the
//! class must hit its row. A change that moves a row updates it and names
//! the cause in CHANGES.md.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::checkpoint::{fnv1a64, schedule_fingerprint};
use qsim45::core::{
    Backend, DistBackend, DistConfig, DistSimulator, SingleBackend, SingleNodeSimulator,
};
use qsim45::kernels::{KernelConfig, SweepDispatch};
use qsim45::ooc::{OocBackend, OocConfig, OocSimulator};
use qsim45::util::complex::amps_as_bytes;

/// The engines that hold `parts` partitions, on sequential kernels.
fn engines<R: SweepDispatch>(parts: usize) -> Vec<Box<dyn Backend<R>>> {
    let dist = Box::new(DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: parts,
        kernel: KernelConfig::sequential(),
        ..Default::default()
    })));
    if parts == 1 {
        let single = SingleNodeSimulator {
            kernel: KernelConfig::sequential(),
            ..Default::default()
        };
        return vec![Box::new(SingleBackend::new(single)), dist];
    }
    let ooc = OocSimulator::<R>::new(OocConfig::sequential());
    vec![dist, Box::new(OocBackend::new(ooc, parts))]
}

/// Each engine holding the class, with `[state, norm, entropy, schedule]`.
fn observe<R: SweepDispatch>(rows: u32, cols: u32, parts: usize) -> Vec<(&'static str, [u64; 4])> {
    let circuit = supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth: 25,
        seed: 1,
    });
    engines::<R>(parts)
        .into_iter()
        .map(|mut b| {
            let name = b.name();
            b.gather_state(true);
            let plan = b.plan(&circuit).expect(name);
            let out = b.run(&plan).expect(name);
            let state = out.state.expect("gathered state");
            let bits = [
                fnv1a64(amps_as_bytes(&state)),
                out.norm.to_bits(),
                out.entropy.to_bits(),
                schedule_fingerprint(&plan.schedule),
            ];
            (name, bits)
        })
        .collect()
}

#[test]
fn every_engine_computes_the_pinned_bits() {
    // (rows, cols, P, precision, [state, norm, entropy, schedule]), d25
    // seed 1.
    #[rustfmt::skip]
    let classes: [(u32, u32, usize, &str, [u64; 4]); 12] = [
        (3, 3, 1, "f64", [0xcdaebff3f8824627, 0x3feffffffffffff9, 0x4020bf0c301a8c1f, 0xff5e4790992fdd0b]),
        (3, 3, 4, "f64", [0xb52a344684b11f82, 0x3feffffffffffff4, 0x4020bf0c301a8c1e, 0x0544359c0c3470c7]),
        (3, 3, 16, "f64", [0xf6972b06a3d62849, 0x3feffffffffffff3, 0x4020bf0c301a8c1e, 0xec85e1fb8de1100f]),
        (3, 3, 1, "f32", [0x81b93e586c648d20, 0x3fefffff6e582000, 0x4020bf0bf0882e39, 0xff5e4790992fdd0b]),
        (3, 3, 4, "f32", [0x10efe41a444ced81, 0x3fefffff4bc91000, 0x4020bf0be1729b8d, 0x0544359c0c3470c7]),
        (3, 3, 16, "f32", [0xc5d51af389347eb6, 0x3fefffff4a363000, 0x4020bf0be16a693c, 0xec85e1fb8de1100f]),
        (3, 4, 1, "f64", [0xb65ca716f03c0239, 0x3fefffffffffffec, 0x40264a6e5300a14f, 0xb8b933409b0064ef]),
        (3, 4, 4, "f64", [0xc195808744d4e0d8, 0x3feffffffffffff5, 0x40264a6e5300a14b, 0xa2a310d1033c28e1]),
        (3, 4, 16, "f64", [0x017d0c0824f341f7, 0x3feffffffffffff0, 0x40264a6e5300a144, 0xd0a4034b999b2e35]),
        (3, 4, 1, "f32", [0x67f627ebd3f65d39, 0x3fefffff73517640, 0x40264a6dfdf0cbe8, 0xb8b933409b0064ef]),
        (3, 4, 4, "f32", [0xc6ad43e15ba4c79e, 0x3fefffff78bdf240, 0x40264a6e008e02ce, 0xa2a310d1033c28e1]),
        (3, 4, 16, "f32", [0x60cf851428337f6d, 0x3fefffff7e365b40, 0x40264a6e03fac3f4, 0xd0a4034b999b2e35]),
    ];
    let mut moved = Vec::new();
    for (rows, cols, parts, precision, want) in classes {
        let got = match precision {
            "f64" => observe::<f64>(rows, cols, parts),
            _ => observe::<f32>(rows, cols, parts),
        };
        for (engine, bits) in got {
            if bits != want {
                let [s, n, e, f] = bits;
                moved.push(format!(
                    "{engine}: ({rows}, {cols}, {parts}, \"{precision}\", \
                     [0x{s:016x}, 0x{n:016x}, 0x{e:016x}, 0x{f:016x}]),"
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "golden states moved:\n{}",
        moved.join("\n")
    );
}
