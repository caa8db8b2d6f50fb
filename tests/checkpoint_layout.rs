//! One generation layout on both partition stores (§5: a chunk is a
//! rank). After every unit, an in-memory run and an out-of-core run of
//! one plan hold byte-identical checkpoint directories, so a run killed
//! on one store resumes on the other to the uninterrupted bits; and the
//! committed version-6 directories under `tests/data` resume, on either
//! store, to one pinned list of final digests.

use std::collections::BTreeMap;
use std::path::Path;

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::checkpoint::{fnv1a64, generation_layout, Manifest};
use qsim45::core::{
    Backend, BackendPlan, CheckpointPolicy, DistBackend, DistConfig, DistSimulator, SimError,
};
use qsim45::kernels::parallel::par_scatter;
use qsim45::kernels::{KernelConfig, SweepDispatch};
use qsim45::ooc::{Codec, OocBackend, OocConfig, OocSimulator, ScratchDir};
use qsim45::util::bits::BitPermutation;
use qsim45::util::complex::{amps_as_bytes, Complex};

/// `parts` in-memory ranks, sequential kernels, state gathered.
fn dist<R: SweepDispatch>(parts: usize) -> Box<dyn Backend<R>> {
    let mut b = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: parts,
        kernel: KernelConfig::sequential(),
        ..DistConfig::default()
    }));
    Backend::<R>::gather_state(&mut b, true);
    Box::new(b)
}

/// `parts` chunks out of core under `codec`, sequential kernels, state
/// gathered.
fn ooc<R: SweepDispatch>(parts: usize, codec: Codec) -> Box<dyn Backend<R>> {
    let config = OocConfig {
        compress: codec,
        ..OocConfig::sequential()
    };
    let mut b = OocBackend::new(OocSimulator::<R>::new(config), parts);
    Backend::<R>::gather_state(&mut b, true);
    Box::new(b)
}

fn supremacy(rows: u32, cols: u32, depth: u32, seed: u64) -> Circuit {
    supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed,
    })
}

/// Every file of `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let entries = std::fs::read_dir(dir).expect("checkpoint directory");
    let path = |e: std::io::Result<std::fs::DirEntry>| e.expect("directory entry").path();
    entries
        .map(path)
        .map(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).map(str::to_string);
            let bytes = std::fs::read(&p).expect("artifact");
            (name.expect("a file name"), bytes)
        })
        .collect()
}

/// Run `plan` on `b` under `policy` to the injected stop after `stop`
/// units.
fn stop_at<R: SweepDispatch>(
    b: &mut Box<dyn Backend<R>>,
    plan: &BackendPlan,
    policy: CheckpointPolicy,
    stop: usize,
) {
    b.checkpoint(policy);
    match b.run_to_stage(plan, Some(stop)) {
        Err(SimError::InjectedStop { unit }) => assert_eq!(unit, stop),
        other => panic!("stop at unit {stop}: {:?}", other.map(|_| ())),
    }
}

/// `c` at `parts` partitions, both stores, at precision `R`: after every
/// unit their directories hold the same files byte for byte; a third run
/// alternating stores at every stop resumes to the uninterrupted bits.
fn one_layout<R: SweepDispatch>(c: &Circuit, parts: usize) {
    let mut stores = [dist::<R>(parts), ooc::<R>(parts, Codec::None)];
    let plan = stores[0].plan(c).expect("plan");
    let units = plan.schedule.stages.len();
    let layouts = (1..units).filter(|&u| generation_layout(&plan.schedule, u).is_some());
    assert!(layouts.count() >= 1, "want a generation in a swap's layout");
    let plain = stores[0].run(&plan).expect("uninterrupted").state;
    let dirs = [(); 3].map(|()| ScratchDir::new("one_layout"));
    for stop in 1..=units {
        let policy = |dir: &ScratchDir| match stop {
            1 => CheckpointPolicy::new(dir.path()),
            _ => CheckpointPolicy::resume(dir.path()),
        };
        for (b, dir) in stores.iter_mut().zip(&dirs) {
            stop_at(b, &plan, policy(dir), stop);
        }
        let at = format!("{} at unit {stop} of {units}", R::NAME);
        let [on_dist, on_ooc] = [&dirs[0], &dirs[1]].map(|d| files(d.path()));
        assert_eq!(on_dist.len(), on_ooc.len(), "{at}");
        for (name, bytes) in &on_dist {
            assert!(on_ooc.get(name) == Some(bytes), "{at}: {name} differs");
        }
        stop_at(&mut stores[stop % 2], &plan, policy(&dirs[2]), stop);
    }
    let last = &mut stores[(units + 1) % 2];
    last.checkpoint(CheckpointPolicy::resume(dirs[2].path()));
    let resumed = last.run(&plan).expect("cross-store resume").state;
    let bits = |s: Option<Vec<Complex<R>>>| amps_as_bytes(&s.expect("gathered")).to_vec();
    assert!(bits(resumed) == bits(plain), "{}: resume diverged", R::NAME);
}

/// 4×`cols` at depths 25 and 40 over 4 partitions, f64 and f32.
fn one_layout_everywhere(cols: u32) {
    for depth in [25, 40] {
        let c = supremacy(4, cols, depth, 0);
        one_layout::<f64>(&c, 4);
        one_layout::<f32>(&c, 4);
    }
}

#[test]
fn both_stores_commit_the_same_bytes_after_every_unit() {
    one_layout_everywhere(3);
}

/// The same at 20 qubits: a release-mode run.
#[test]
#[ignore = "n = 20 on both stores: run in release"]
fn both_stores_commit_the_same_bytes_at_20_qubits() {
    one_layout_everywhere(5);
}

/// The committed version-6 checkpoints of 3×3 d25 seed 7 at 4
/// partitions, f64, stopped after unit 1 — the first whose swap leaves a
/// non-identity layout: `raw` (codec `none`, written in memory) and `rle`
/// (`shuffle-rle`, written out of core). Only the named generation and
/// the manifest are kept.
const GOLDEN: [(&str, Codec); 2] = [("raw", Codec::None), ("rle", Codec::ShuffleRle)];
const GOLDEN_STOP: usize = 1;

fn golden_dir(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/data/checkpoint_v6_{name}"))
}

fn golden_circuit() -> Circuit {
    supremacy(3, 3, 25, 7)
}

/// The raw digests of the final generation, one per partition: each
/// rank's final slice (the gathered state put back in the physical order
/// of the last stage, whose layout is the state as computed).
const FINAL_DIGESTS: [u64; 4] = [
    0x7966_6720_dfe7_05c7,
    0xd4dc_6c69_78ea_7e52,
    0xa50b_1b25_1ed1_4042,
    0x33ca_a11d_ac01_2aba,
];

/// Per-partition raw digests of a final state gathered in logical order.
fn final_digests(plan: &BackendPlan, logical: &[Complex<f64>], parts: usize) -> Vec<u64> {
    let mapping = BitPermutation::new(plan.schedule.final_mapping().to_vec());
    let mut physical = vec![Complex::zero(); logical.len()];
    par_scatter(logical, &mut physical, &mapping, 0, 1);
    let slice = logical.len() / parts;
    let digest = |s: &[Complex<f64>]| fnv1a64(amps_as_bytes(s));
    physical.chunks(slice).map(digest).collect()
}

#[test]
fn golden_checkpoints_resume_on_either_store() {
    let c = golden_circuit();
    let resumes: [(&str, Box<dyn Backend<f64>>); 3] = [
        ("raw", dist(4)),
        ("raw", ooc(4, Codec::None)),
        ("rle", ooc(4, Codec::ShuffleRle)),
    ];
    for (name, mut b) in resumes {
        let at = format!("{name} on {}", b.name());
        let plan = b.plan(&c).expect("plan");
        let scratch = ScratchDir::new("golden_resume");
        std::fs::create_dir_all(scratch.path()).expect("scratch directory");
        for (file, bytes) in files(&golden_dir(name)) {
            std::fs::write(scratch.path().join(file), bytes).expect("copy");
        }
        b.checkpoint(CheckpointPolicy::resume(scratch.path()));
        let out = b.run(&plan).unwrap_or_else(|e| panic!("{at}: {e}"));
        let state = out.state.expect("gathered state");
        assert_eq!(final_digests(&plan, &state, 4), FINAL_DIGESTS, "{at}");
        let m = Manifest::load(scratch.path())
            .expect("manifest")
            .expect("one");
        assert_eq!(m.next_unit, plan.schedule.stages.len(), "{at}");
        if name == "raw" {
            assert_eq!(m.digests, FINAL_DIGESTS, "{at}");
        }
    }
}

/// Rewrite the committed directories (after a format change): run the
/// golden circuit to the stop on the store that writes each, and keep
/// the manifest and the generation it names.
#[test]
#[ignore = "rewrites tests/data: run by hand after a format change"]
fn write_golden_checkpoints() {
    let c = golden_circuit();
    for (name, codec) in GOLDEN {
        let mut b = match codec {
            Codec::None => dist::<f64>(4),
            _ => ooc::<f64>(4, codec),
        };
        let plan = b.plan(&c).expect("plan");
        let layouts: Vec<bool> = (1..=GOLDEN_STOP)
            .map(|u| generation_layout(&plan.schedule, u).is_some())
            .collect();
        assert_eq!(layouts.iter().position(|&l| l), Some(GOLDEN_STOP - 1));
        let dir = golden_dir(name);
        let _ = std::fs::remove_dir_all(&dir);
        stop_at(&mut b, &plan, CheckpointPolicy::new(&dir), GOLDEN_STOP);
        let keep = format!(".g{}.amps", GOLDEN_STOP % 2);
        for file in files(&dir).into_keys() {
            if file.ends_with(".amps") && !file.ends_with(&keep) {
                std::fs::remove_file(dir.join(file)).expect("remove");
            }
        }
    }
}
