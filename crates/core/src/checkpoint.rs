//! Checkpoint/restart primitives shared by the engines.
//!
//! The paper's stage segmentation (§3.6.1) exists so a petascale
//! traversal can be cut at communication boundaries; this module is the
//! on-disk half of that promise. A checkpoint is a [`Manifest`] — a
//! small JSON document recording the schedule fingerprint, a *unit*
//! cursor (the stage, with the swap that closes it, on every engine) and
//! one digest per durable artifact (rank slice or chunk file).
//!
//! Durability protocol (every engine, every unit). Each engine keeps
//! two generations of its *partition artifacts* — one file per rank slice
//! in memory, per chunk out of core (§5: the chunk index is the rank id)
//! — named by [`part_path`] from the parity of the unit that wrote them.
//! Unit `u` reads generation `u − 1` and writes generation `u` into the
//! parity the durable manifest does not name; then
//!
//! 1. `sync_all` each new artifact and digest the whole file as stored,
//!    over the bytes the engine wrote — never by reading the file back
//!    ([`write_part`] per rank; out of core, the chunk store's digesting
//!    writer, which the commit fsyncs). Resume reads each artifact of the
//!    named generation once, where it needs its bytes, and checks it as
//!    it reads ([`read_raw_part`], the one raw reader, under [`read_part`]
//!    per rank and the first pass's chunk reads out of core);
//! 2. publish the manifest naming `u` *atomically* — temp file →
//!    `sync_all` → rename over [`MANIFEST_FILE`] → directory fsync, which
//!    also makes the directory entries of newly created artifacts durable.
//!    The run driver does this, and only it: [`crate::run::drive`].
//!
//! The manifest flip is the only commit. A crash at any byte of unit `u`
//! leaves the manifest naming the intact generation `u − 1` next to
//! garbage in the other parity, which resume ignores and the replay
//! overwrites; a crash inside (2) is resolved by the atomicity of
//! `rename`. No rank or pass may start unit `u + 1` — overwriting
//! generation `u − 1` — before the manifest naming `u` is durable. A
//! fresh start deletes any older manifest first ([`RunKey::resume_point`],
//! called by [`crate::run::drive`]), because it reuses the names that
//! manifest points at. Every store commits one layout
//! ([`generation_layout`]), so either store resumes the other's directory.
//!
//! u64 values (hashes, digests) are serialized as *hex strings*:
//! the in-workspace JSON parser ([`qsim_telemetry::json`]) reads numbers
//! as f64, which would silently lose bits above 2^53.

use crate::dist::slots_to_top_permutation;
use qsim_kernels::parallel::{par_gather, par_scatter};
use qsim_net::SimError;
use qsim_sched::{Schedule, StageOp};
use qsim_telemetry::json::{self, Json};
use qsim_util::align::grown;
use qsim_util::bits::BitPermutation;
use qsim_util::complex::{amps_as_bytes, amps_as_bytes_mut, Complex};
use qsim_util::Real;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Manifest format version; bumped on any incompatible layout change, so
/// an older directory is a [`CheckpointError::Mismatch`] naming its
/// version. 2 added `precision`, 3 `codec`, 4 named artifacts by
/// generation parity, 5 by [`part_path`] on every engine, and 6 gave every
/// store one layout ([`generation_layout`]) and dropped the engine field.
pub const MANIFEST_VERSION: u32 = 6;

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Where the crash flight record lands: next to the checkpoint manifest,
/// so the post-mortem artifact travels with the resume state it
/// describes. (The name is fixed by `qsim_telemetry::FLIGHT_FILE`; this
/// helper just pins the *placement* policy in one place.)
pub fn flight_path(dir: &Path) -> PathBuf {
    dir.join(qsim_telemetry::recorder::FLIGHT_FILE)
}

/// Why a checkpoint could not be written or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The manifest exists but cannot be parsed (torn write would be
    /// prevented by the atomic protocol; this indicates corruption or a
    /// foreign file).
    Corrupt(String),
    /// The manifest is well-formed but describes a different run
    /// (schedule, geometry, precision, codec or digest mismatch).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint manifest: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Every engine reports a rejected or failed checkpoint as the one typed
/// variant callers match for "durable state rejected".
impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e.to_string())
    }
}

/// The versioned checkpoint manifest (one per checkpoint directory).
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    pub version: u32,
    /// Structural fingerprint of the schedule ([`schedule_fingerprint`]).
    pub schedule_hash: u64,
    pub n_qubits: u32,
    pub local_qubits: u32,
    /// Amplitude precision of the durable artifacts ([`Real::NAME`]:
    /// `"f64"` / `"f32"`). Resuming with a different precision is a
    /// [`CheckpointError::Mismatch`], never a silent reinterpretation.
    pub precision: String,
    /// Chunk codec the artifacts are stored under (`"none"`,
    /// `"shuffle-rle"`, `"lossy-<bits>"`). Digests hash the bytes as
    /// stored, so a cross-codec resume is a [`CheckpointError::Mismatch`].
    pub codec: String,
    /// Whether the run started from the uniform superposition (§3.6)
    /// rather than |0…0⟩.
    pub init_uniform: bool,
    /// First unit not yet applied durably.
    pub next_unit: usize,
    /// Total units in the plan (cursor sanity bound).
    pub total_units: usize,
    /// FNV-1a digest of each durable artifact at this cursor, in
    /// artifact order (chunk index / rank id).
    pub digests: Vec<u64>,
}

impl Manifest {
    /// Serialize to the on-disk JSON document.
    pub fn to_json(&self) -> String {
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"version\": {},\n",
                "  \"schedule_hash\": \"{:016x}\",\n",
                "  \"n_qubits\": {},\n",
                "  \"local_qubits\": {},\n",
                "  \"precision\": \"{}\",\n",
                "  \"codec\": \"{}\",\n",
                "  \"init_uniform\": {},\n",
                "  \"next_unit\": {},\n",
                "  \"total_units\": {},\n",
                "  \"digests\": [{}]\n",
                "}}\n"
            ),
            self.version,
            self.schedule_hash,
            self.n_qubits,
            self.local_qubits,
            self.precision,
            self.codec,
            self.init_uniform,
            self.next_unit,
            self.total_units,
            digests.join(", "),
        )
    }

    /// Parse the on-disk JSON document.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let corrupt = CheckpointError::Corrupt;
        let doc = json::parse(text).map_err(corrupt)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| corrupt(format!("missing '{key}'")))
        };
        let string = |key: &str| -> Result<String, CheckpointError> {
            let s = field(key)?.as_str().map(str::to_string);
            s.ok_or_else(|| corrupt(format!("'{key}' is not a string")))
        };
        let hex = |s: &str| {
            u64::from_str_radix(s, 16).map_err(|e| corrupt(format!("bad hex '{s}': {e}")))
        };
        // Integer fields must be exact integers in `0..2^32 − 1`, so the
        // casts below are lossless: `-1` or `4.5` is corruption, not 0 or 4.
        let int = |key: &str| match field(key)?.as_f64() {
            Some(x) if x >= 0.0 && x.fract() == 0.0 && x < u32::MAX as f64 => Ok(x as u64),
            _ => Err(corrupt(format!("'{key}' is not a non-negative integer"))),
        };
        let version = int("version")? as u32;
        if version != MANIFEST_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "manifest version {version}, this build reads {MANIFEST_VERSION}"
            )));
        }
        let Some(&Json::Bool(init_uniform)) = doc.get("init_uniform") else {
            return Err(corrupt("missing 'init_uniform'".into()));
        };
        let digests = field("digests")?
            .as_array()
            .ok_or_else(|| corrupt("'digests' is not an array".into()))?
            .iter()
            .map(|j| {
                hex(j
                    .as_str()
                    .ok_or_else(|| corrupt("non-string digest".into()))?)
            })
            .collect::<Result<Vec<u64>, _>>()?;
        let m = Manifest {
            version,
            schedule_hash: hex(&string("schedule_hash")?)?,
            n_qubits: int("n_qubits")? as u32,
            local_qubits: int("local_qubits")? as u32,
            precision: string("precision")?,
            codec: string("codec")?,
            init_uniform,
            next_unit: int("next_unit")? as usize,
            total_units: int("total_units")? as usize,
            digests,
        };
        if m.next_unit > m.total_units {
            return Err(corrupt(format!(
                "cursor {} past total {}",
                m.next_unit, m.total_units
            )));
        }
        Ok(m)
    }

    /// Durably publish this manifest in `dir`: temp file → `sync_all` →
    /// rename over [`MANIFEST_FILE`] → directory fsync. After this
    /// returns, a crash at any instant leaves exactly this manifest (or
    /// a later one) visible.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        fsync_dir(dir)
    }

    /// Load and parse the manifest in `dir`; `Ok(None)` when no
    /// checkpoint has been published there yet.
    pub fn load(dir: &Path) -> Result<Option<Self>, CheckpointError> {
        let path = dir.join(MANIFEST_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Self::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CheckpointError::Io(e)),
        }
    }

    /// [`Manifest::from_json`] over the file's raw bytes: bytes that are
    /// not UTF-8 are a corrupt manifest, not an IO failure.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CheckpointError::Corrupt(format!("not UTF-8: {e}")))?;
        Self::from_json(text)
    }

    /// Check that this manifest belongs to the run `key` describes;
    /// returns where to restart — the first stage whose effects are NOT
    /// yet durable on disk.
    pub fn validate(&self, key: &RunKey) -> Result<usize, CheckpointError> {
        let fail = |m: String| Err(CheckpointError::Mismatch(m));
        let schedule = key.schedule;
        let hash = schedule_fingerprint(schedule);
        if self.schedule_hash != hash {
            return fail(format!(
                "schedule hash {:016x} != {hash:016x} (different circuit or plan)",
                self.schedule_hash
            ));
        }
        if (self.n_qubits, self.local_qubits) != (schedule.n_qubits, schedule.local_qubits) {
            return fail(format!(
                "geometry n={} l={} != n={} l={}",
                self.n_qubits, self.local_qubits, schedule.n_qubits, schedule.local_qubits
            ));
        }
        if self.precision != key.precision {
            return fail(format!(
                "checkpoint written at precision {}, engine running at {} \
                 (cross-precision resume would reinterpret raw amplitude bytes)",
                self.precision, key.precision
            ));
        }
        if self.codec != key.codec {
            return fail(format!(
                "checkpoint written under codec '{}', engine running with '{}' \
                 (cross-codec resume would mis-read every chunk record)",
                self.codec, key.codec
            ));
        }
        if self.init_uniform != key.init_uniform {
            return fail(format!(
                "initial state uniform={} != uniform={}",
                self.init_uniform, key.init_uniform
            ));
        }
        if self.total_units != schedule.stages.len() {
            return fail(format!(
                "plan has {} units, manifest recorded {}",
                schedule.stages.len(),
                self.total_units
            ));
        }
        if self.digests.len() != key.n_artifacts {
            return fail(format!(
                "{} artifacts on disk layout, manifest recorded {}",
                key.n_artifacts,
                self.digests.len()
            ));
        }
        Ok(self.next_unit)
    }
}

/// The one checkpoint policy every engine takes: where the manifest and
/// the state artifacts live, and whether to pick the run up from them.
/// (Out of core the directory is also the chunk store: the manifest sits
/// next to the chunk files it describes.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    pub dir: PathBuf,
    /// Resume from the directory's manifest when one exists. A missing
    /// manifest is a fresh start, not an error — the crash may have
    /// landed before the first checkpoint was published.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Checkpoint every completed unit into `dir`, starting fresh.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            resume: false,
        }
    }

    /// Checkpoint into `dir`, resuming from its manifest when present.
    pub fn resume(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            resume: true,
        }
    }
}

/// Everything that makes two executions "the same run": what a manifest
/// records when it is written and what [`Manifest::validate`] compares
/// on resume. The run driver ([`crate::run::drive`]) builds one per run.
/// The unit count is the schedule's stage count on every engine.
#[derive(Clone, Copy, Debug)]
pub struct RunKey<'a> {
    pub schedule: &'a Schedule,
    /// [`Real::NAME`] of the working precision.
    pub precision: &'static str,
    /// Chunk codec name (`"none"` for the in-memory engines).
    pub codec: &'a str,
    pub init_uniform: bool,
    /// Durable artifacts per generation (1, ranks, or chunks).
    pub n_artifacts: usize,
}

impl RunKey<'_> {
    /// The manifest for "`unit` of the schedule's stages done", with one
    /// digest per artifact.
    pub fn manifest(&self, unit: usize, digests: Vec<u64>) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            schedule_hash: schedule_fingerprint(self.schedule),
            n_qubits: self.schedule.n_qubits,
            local_qubits: self.schedule.local_qubits,
            precision: self.precision.to_string(),
            codec: self.codec.to_string(),
            init_uniform: self.init_uniform,
            next_unit: unit,
            total_units: self.schedule.stages.len(),
            digests,
        }
    }

    /// Resolve `policy` against the directory: create it, and under
    /// `resume` load and validate its manifest. Returns the first unit
    /// still to run and the artifact digests the manifest promises;
    /// `None` is a fresh start.
    ///
    /// A fresh start (not `resume`) durably deletes any manifest already
    /// there before the run writes an artifact: the new run reuses the
    /// generation names, so a crash in its first unit could otherwise
    /// tear files an older run's manifest still names.
    pub fn resume_point(
        &self,
        policy: &CheckpointPolicy,
    ) -> Result<Option<(usize, Vec<u64>)>, CheckpointError> {
        let dir = &policy.dir;
        std::fs::create_dir_all(dir).map_err(|e| at_path(dir, e))?;
        if !policy.resume {
            match std::fs::remove_file(dir.join(MANIFEST_FILE)) {
                Ok(()) => fsync_dir(dir).map_err(|e| at_path(dir, e))?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(at_path(dir, e).into()),
            }
            return Ok(None);
        }
        let Some(m) = Manifest::load(dir)? else {
            return Ok(None);
        };
        let next_unit = m.validate(self)?;
        Ok(Some((next_unit, m.digests)))
    }
}

/// An IO failure on `path`, with the path in its message (a partition
/// file's name names the partition) and its [`io::ErrorKind`] kept.
pub fn at_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// The file of partition `part` (rank slice or chunk) in generation
/// `generation`: named by its parity, so two generations alternate
/// between two files per partition.
pub fn part_path(dir: &Path, part: usize, generation: usize) -> PathBuf {
    dir.join(format!("part_{part:06}.g{}.amps", generation % 2))
}

/// The one layout rule of every partition store: generation `u` of a
/// partition holds, at file offset `y`, the amplitude the next stage
/// computes at `p⁻¹(y)`, where `p` is the slots→top permutation of the
/// swap that closed unit `u − 1` — the all-to-all's assembly before its
/// unpermute. Returns that `p⁻¹`; `None` when the unit closed with no
/// swap or an identity `p` (and for generation 0): the state as computed.
pub fn generation_layout(schedule: &Schedule, generation: usize) -> Option<BitPermutation> {
    let unit = generation.checked_sub(1)?;
    let swap = schedule.stages.get(unit)?.swap.as_ref()?;
    let p = slots_to_top_permutation(&swap.local_slots, schedule.local_qubits);
    (!p.is_identity()).then(|| p.inverse())
}

/// Amplitudes per block of a raw partition read or write.
pub const PART_BLOCK_AMPS: usize = 4096;

/// Durably write partition `part` as generation `generation` (the
/// in-memory store's step 1) in the generation's `layout`: raw bytes
/// ([`amps_as_bytes`], an uncompressed chunk file's format), one block
/// at a time — gathered through `layout` into `block` — then `sync_all`,
/// the digest taken from the bytes written.
pub fn write_part<R: Real>(
    dir: &Path,
    part: usize,
    generation: usize,
    amps: &[Complex<R>],
    layout: Option<&BitPermutation>,
    block: &mut Vec<Complex<R>>,
) -> Result<u64, CheckpointError> {
    let path = part_path(dir, part, generation);
    let mut digest = Fnv1a::new();
    let mut write = || {
        let mut f = File::create(&path)?;
        for base in (0..amps.len()).step_by(PART_BLOCK_AMPS) {
            let n = PART_BLOCK_AMPS.min(amps.len() - base);
            let bytes = amps_as_bytes(match layout {
                None => &amps[base..base + n],
                Some(p) => {
                    par_gather(amps, grown(block, n), p, base, 1);
                    &block[..n]
                }
            });
            digest.write(bytes);
            f.write_all(bytes)?;
        }
        f.sync_all()
    };
    write().map_err(|e| at_path(&path, e))?;
    Ok(digest.finish())
}

/// Read partition `part` of generation `generation` into `out` with the
/// one raw reader ([`read_raw_part`]), checked against the manifest's
/// `want` and placed through the generation's `layout`.
pub fn read_part<R: Real>(
    dir: &Path,
    part: usize,
    generation: usize,
    want: u64,
    out: &mut [Complex<R>],
    layout: Option<&BitPermutation>,
    block: &mut Vec<Complex<R>>,
) -> Result<(), CheckpointError> {
    let path = part_path(dir, part, generation);
    let mut f = File::open(&path).map_err(|e| at_path(&path, e))?;
    read_raw_part(part, &mut f, out, Some(want), layout, block).map_err(|e| match e {
        CheckpointError::Io(e) => at_path(&path, e).into(),
        e => e,
    })
}

/// The one raw partition reader, on every store: `out.len()` amplitudes
/// from `f` (at the file's start), [`PART_BLOCK_AMPS`] at a time. Without
/// `layout` each block is read straight into place; with it (a
/// [`generation_layout`]) each is staged in `block` and the amplitude at
/// file offset `y` lands at `out[p⁻¹(y)]`. A file a manifest names (`want`)
/// must hold exactly the partition's bytes — fewer is a torn file, more
/// are bytes its digest would not see — and the running digest of every
/// byte, in file order, must be `want` ([`check_part_digest`]).
pub fn read_raw_part<R: Real>(
    part: usize,
    f: &mut File,
    out: &mut [Complex<R>],
    want: Option<u64>,
    layout: Option<&BitPermutation>,
    block: &mut Vec<Complex<R>>,
) -> Result<(), CheckpointError> {
    let bytes = std::mem::size_of_val(out) as u64;
    let len = want.map_or(Ok(bytes), |_| f.metadata().map(|m| m.len()))?;
    if len != bytes {
        return Err(CheckpointError::Mismatch(format!(
            "partition {part}: the file holds {len} bytes, not the partition's {bytes}"
        )));
    }
    let mut digest = want.map(|w| (Fnv1a::new(), w));
    for base in (0..out.len()).step_by(PART_BLOCK_AMPS) {
        let n = PART_BLOCK_AMPS.min(out.len() - base);
        let read = match layout {
            None => &mut out[base..base + n],
            Some(_) => grown(block, n),
        };
        f.read_exact(amps_as_bytes_mut(read))?;
        if let Some((h, _)) = &mut digest {
            h.write(amps_as_bytes(read));
        }
        if let Some(p) = layout {
            par_scatter(&block[..n], out, p, base, 1);
        }
    }
    digest.map_or(Ok(()), |(h, w)| check_part_digest(part, h.finish(), w))
}

/// The one artifact verifier, on every engine: `got`, the [`Fnv1a`] a
/// reader folded every byte of partition `part`'s file into, in file order
/// (raw, or codec frames as stored), must be the manifest's `want`.
pub fn check_part_digest(part: usize, got: u64, want: u64) -> Result<(), CheckpointError> {
    if got != want {
        return Err(CheckpointError::Mismatch(format!(
            "partition {part} digest {got:016x} != manifest {want:016x} (torn artifact)"
        )));
    }
    Ok(())
}

/// fsync a directory so preceding renames/creates in it are durable.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Incremental FNV-1a (64-bit) over a byte stream. Multi-byte values
/// are folded in little-endian, as partition artifacts store them.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Fold in a float by bit pattern (exact, no rounding ambiguity).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte slice: the digest of a partition artifact's whole
/// file ([`check_part_digest`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Structural fingerprint of a schedule: a deterministic walk over the
/// plan's geometry, mappings, fused matrices (by f64 bit pattern) and
/// swaps. Two schedules collide only if they execute identically, so a
/// manifest hash match guarantees the resumed run replays the same
/// plan. (Deliberately not a `Debug`-string hash: formatting is not a
/// stable encoding.)
pub fn schedule_fingerprint(schedule: &Schedule) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"qsched/v1");
    h.write_u32(schedule.n_qubits);
    h.write_u32(schedule.local_qubits);
    h.write_u32(schedule.kmax);
    h.write_usize(schedule.stages.len());
    for stage in &schedule.stages {
        h.write_usize(stage.mapping.len());
        for &m in &stage.mapping {
            h.write_u32(m);
        }
        h.write_usize(stage.ops.len());
        for op in &stage.ops {
            match op {
                StageOp::Cluster(c) => {
                    h.write_u32(1);
                    h.write_usize(c.qubits.len());
                    for &q in &c.qubits {
                        h.write_u32(q);
                    }
                    h.write_usize(c.gate_indices.len());
                    for &gi in &c.gate_indices {
                        h.write_usize(gi);
                    }
                    h.write_u32(c.matrix.k());
                    for e in c.matrix.entries() {
                        h.write_f64(e.re);
                        h.write_f64(e.im);
                    }
                }
                StageOp::Diagonal(d) => {
                    h.write_u32(2);
                    h.write_usize(d.positions.len());
                    for &p in &d.positions {
                        h.write_u32(p);
                    }
                    h.write_usize(d.diag.len());
                    for e in &d.diag {
                        h.write_f64(e.re);
                        h.write_f64(e.im);
                    }
                    h.write_usize(d.gate_indices.len());
                    for &gi in &d.gate_indices {
                        h.write_usize(gi);
                    }
                }
            }
        }
        match &stage.swap {
            None => h.write_u32(0),
            Some(s) => {
                h.write_u32(1);
                h.write_usize(s.local_slots.len());
                for &slot in &s.local_slots {
                    h.write_u32(slot);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_sched::{Cluster, Stage, SwapOp};
    use qsim_util::c64;
    use qsim_util::matrix::GateMatrix;

    fn tiny_schedule() -> Schedule {
        Schedule {
            n_qubits: 3,
            local_qubits: 2,
            kmax: 2,
            stages: vec![
                Stage {
                    mapping: vec![0, 1, 2],
                    ops: vec![StageOp::Cluster(Cluster {
                        qubits: vec![0, 1],
                        gate_indices: vec![0],
                        diagonal: false,
                        matrix: GateMatrix::identity(2),
                    })],
                    swap: Some(SwapOp {
                        local_slots: vec![0],
                    }),
                },
                Stage {
                    mapping: vec![2, 1, 0],
                    ops: vec![],
                    swap: None,
                },
            ],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "qsim_ckpt_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let m = Manifest {
            version: MANIFEST_VERSION,
            schedule_hash: 0xdead_beef_0123_4567,
            n_qubits: 20,
            local_qubits: 16,
            precision: "f64".into(),
            codec: "shuffle-rle".into(),
            init_uniform: true,
            next_unit: 3,
            total_units: 9,
            digests: vec![0, 1, u64::MAX - 1, 0x8000_0000_0000_0001],
        };
        m.write_atomic(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(back, m);
        assert!(
            !dir.join(format!("{MANIFEST_FILE}.tmp")).exists(),
            "temp file must not survive publication"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_is_none_without_manifest_and_rejects_garbage() {
        let dir = tmpdir("missing");
        assert!(Manifest::load(&dir).unwrap().is_none());
        std::fs::write(dir.join(MANIFEST_FILE), b"{not json").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(CheckpointError::Corrupt(_))
        ));
        // 200,000 nested arrays: a typed error, not a stack overflow.
        std::fs::write(dir.join(MANIFEST_FILE), "[".repeat(200_000)).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn key(sched: &Schedule) -> RunKey<'_> {
        RunKey {
            schedule: sched,
            precision: "f64",
            codec: "none",
            init_uniform: true,
            n_artifacts: 2,
        }
    }

    #[test]
    fn manifest_integers_must_be_exact_and_non_negative() {
        let sched = tiny_schedule();
        let good = key(&sched).manifest(1, vec![7, 8]).to_json();
        for (field, bad) in [
            ("\"next_unit\": 1", "\"next_unit\": -1"),
            ("\"next_unit\": 1", "\"next_unit\": 0.5"),
            ("\"version\": 6", "\"version\": 6.5"),
            ("\"n_qubits\": 3", "\"n_qubits\": 1e300"),
            ("\"total_units\": 2", "\"total_units\": 4294967296"),
        ] {
            let text = good.replace(field, bad);
            assert_ne!(text, good, "{field}");
            assert!(
                matches!(Manifest::from_json(&text), Err(CheckpointError::Corrupt(_))),
                "{bad}"
            );
        }
        // An older manifest is a foreign format, not a torn file.
        let old = MANIFEST_VERSION - 1;
        let text = good.replace(
            &format!("\"version\": {MANIFEST_VERSION}"),
            &format!("\"version\": {old}"),
        );
        assert!(matches!(
            Manifest::from_json(&text),
            Err(CheckpointError::Mismatch(m)) if m.contains(&format!("version {old}"))
        ));
    }

    #[test]
    fn every_truncation_and_byte_corruption_is_typed() {
        let sched = tiny_schedule();
        let good = key(&sched).manifest(1, vec![7, u64::MAX]).to_json();
        let typed = |bytes: &[u8]| match Manifest::from_bytes(bytes) {
            Ok(_) | Err(CheckpointError::Corrupt(_) | CheckpointError::Mismatch(_)) => true,
            Err(CheckpointError::Io(_)) => false,
        };
        for len in 0..good.len() {
            assert!(typed(&good.as_bytes()[..len]), "prefix of {len} bytes");
        }
        let mut bytes = good.clone().into_bytes();
        for i in 0..bytes.len() {
            let orig = bytes[i];
            for b in 0..=255u8 {
                bytes[i] = b;
                assert!(typed(&bytes), "byte {i} = {b:#04x}");
            }
            bytes[i] = orig;
        }
    }

    #[test]
    fn a_fresh_start_removes_an_existing_manifest() {
        let dir = tmpdir("fresh");
        let sched = tiny_schedule();
        let key = key(&sched);
        key.manifest(1, vec![7, 8]).write_atomic(&dir).unwrap();
        let resume = CheckpointPolicy::resume(&dir);
        assert_eq!(key.resume_point(&resume).unwrap(), Some((1, vec![7, 8])));
        assert_eq!(
            key.resume_point(&CheckpointPolicy::new(&dir)).unwrap(),
            None
        );
        assert!(!dir.join(MANIFEST_FILE).exists());
        assert_eq!(key.resume_point(&resume).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_foreign_runs() {
        let sched = tiny_schedule();
        let key = key(&sched);
        let m = key.manifest(1, vec![7, 8]);
        assert_eq!(m.validate(&key).unwrap(), 1);
        let foreign = [
            RunKey {
                init_uniform: false,
                ..key
            },
            RunKey {
                n_artifacts: 4,
                ..key
            },
        ];
        for k in &foreign {
            assert!(m.validate(k).is_err(), "{k:?}");
        }
        // Cross-precision resume is a typed mismatch, both directions.
        let key32 = RunKey {
            precision: "f32",
            ..key
        };
        assert!(matches!(
            m.validate(&key32),
            Err(CheckpointError::Mismatch(_))
        ));
        let m32 = key32.manifest(1, vec![7, 8]);
        assert!(matches!(
            m32.validate(&key),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(m32.validate(&key32).is_ok());
        // Cross-codec resume is a typed mismatch, both directions: the
        // digests hash encoded bytes, so the codec is part of the format.
        let key_rle = RunKey {
            codec: "shuffle-rle",
            ..key
        };
        assert!(matches!(
            m.validate(&key_rle),
            Err(CheckpointError::Mismatch(_))
        ));
        let mrle = key_rle.manifest(1, vec![7, 8]);
        assert!(matches!(
            mrle.validate(&key),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(mrle.validate(&key_rle).is_ok());
        let mut other = sched.clone();
        other.stages[0].swap = None;
        other.stages[1].mapping = sched.stages[0].mapping.clone();
        assert!(m
            .validate(&RunKey {
                schedule: &other,
                ..key
            })
            .is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let a = tiny_schedule();
        let b = tiny_schedule();
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        let mut c = tiny_schedule();
        c.kmax = 3;
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&c));
        let mut d = tiny_schedule();
        if let StageOp::Cluster(cl) = &mut d.stages[0].ops[0] {
            cl.matrix.set(0, 0, c64::new(0.0, 1.0));
        }
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&d));
    }

    /// Generation `u` is laid out by the swap that closed unit `u − 1`:
    /// none before the first unit and after the swap-free last one.
    #[test]
    fn the_layout_follows_the_swap_that_closed_the_unit() {
        let sched = tiny_schedule();
        let layouts: Vec<_> = (0..=3).map(|u| generation_layout(&sched, u)).collect();
        let p = slots_to_top_permutation(&[0], 2);
        assert_eq!(layouts, [None, Some(p.inverse()), None, None]);
    }

    /// A partition artifact is `2 * R::BYTES` raw bytes per amplitude, its
    /// digest is [`fnv1a64`] of the written file, and it reads back only
    /// at exactly that size and under that digest. Through a layout `q`
    /// the file holds `amps[q(y)]` at offset `y`, and reads back in place.
    fn part_round_trip<R: Real>(amps: &[Complex<R>]) -> Result<(), CheckpointError> {
        let dir = tmpdir(R::NAME);
        assert_eq!(part_path(&dir, 0, 5), part_path(&dir, 0, 3));
        assert_eq!(part_path(&dir, 7, 2), dir.join("part_000007.g0.amps"));
        let block = &mut Vec::new();
        let path = part_path(&dir, 0, 5);
        let mut back = vec![Complex::<R>::zero(); amps.len()];
        let q = slots_to_top_permutation(&[0, 2], amps.len().trailing_zeros()).inverse();
        let mut gathered = back.clone();
        par_gather(amps, &mut gathered, &q, 0, 1);
        for (layout, stored) in [(Some(&q), &gathered[..]), (None, amps)] {
            let wrote = write_part(&dir, 0, 5, amps, layout, block)?;
            let raw = std::fs::read(&path)?;
            assert!(raw == amps_as_bytes(stored), "{}", layout.is_some());
            assert_eq!(wrote, fnv1a64(&raw));
            read_part(&dir, 0, 5, wrote, &mut back, layout, block)?;
            assert_eq!(back, amps);
        }
        let wrote = fnv1a64(amps_as_bytes(amps));
        let raw = std::fs::read(&path)?;
        let mut read = |want| read_part(&dir, 0, 5, want, &mut back, None, block);
        let mismatch = |r: Result<(), CheckpointError>| {
            assert!(matches!(r, Err(CheckpointError::Mismatch(_))), "{r:?}")
        };
        mismatch(read(!wrote));
        // Extra bytes after the partition, or too few: rejected by size.
        for len in [raw.len() + 4099, raw.len() + 1, raw.len() - 1, 0] {
            let mut torn = raw.clone();
            torn.resize(len, 0xa5);
            std::fs::write(&path, &torn)?;
            mismatch(read(wrote));
        }
        // A missing file is the IO failure, with its path.
        std::fs::remove_file(&path)?;
        match read(wrote) {
            Err(CheckpointError::Io(e)) => assert!(e.to_string().contains("part_000000")),
            other => panic!("expected Io, got {other:?}"),
        }
        Ok(std::fs::remove_dir_all(&dir)?)
    }

    #[test]
    fn partitions_round_trip_at_both_precisions() -> Result<(), CheckpointError> {
        use qsim_util::c32;
        // Two blocks of `PART_BLOCK_AMPS`.
        let amps: Vec<c64> = (0..2 * PART_BLOCK_AMPS)
            .map(|i| c64::new(i as f64 * 0.25, -(i as f64)))
            .collect();
        part_round_trip(&amps)?;
        part_round_trip(
            &amps
                .iter()
                .map(|a| a.convert::<f32>())
                .collect::<Vec<c32>>(),
        )
    }
}
