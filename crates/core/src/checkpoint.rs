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
//! two generations of its artifacts, named by the parity of the unit
//! that wrote them (`state_a002.g0.amps`, `chunk_000003.g1.amps`). Unit
//! `u` reads generation `u − 1` and writes generation `u` into the
//! parity the durable manifest does not name; then
//!
//! 1. `sync_all` each new artifact and digest it as stored (the engine's
//!    half: [`save_snapshot`] per rank, the chunk store's `sync_digests`);
//! 2. publish the manifest naming `u` *atomically* — temp file →
//!    `sync_all` → rename over [`MANIFEST_FILE`] → directory fsync, which
//!    also makes the directory entries of newly created artifacts durable.
//!    The run frame does this, and only it: [`crate::run::Run::publish`].
//!
//! The manifest flip is the only commit. A crash at any byte of unit `u`
//! leaves the manifest naming the intact generation `u − 1` next to
//! garbage in the other parity, which resume ignores and the replay
//! overwrites; a crash inside (2) is resolved by the atomicity of
//! `rename`. No rank or pass may start unit `u + 1` — overwriting
//! generation `u − 1` — before the manifest naming `u` is durable. A
//! fresh start deletes any older manifest first ([`RunKey::resume_point`],
//! called by [`crate::run::Run::begin`]), because it reuses the names that
//! manifest points at.
//!
//! u64 values (hashes, digests, seeds) are serialized as *hex strings*:
//! the in-workspace JSON parser ([`qsim_telemetry::json`]) reads numbers
//! as f64, which would silently lose bits above 2^53.

use qsim_net::SimError;
use qsim_sched::{Schedule, StageOp};
use qsim_telemetry::json::{self, Json};
use qsim_util::complex::Complex;
use qsim_util::Real;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Manifest format version; bumped on any incompatible layout change.
/// Version 2 added the `precision` geometry field — amplitude artifacts
/// are raw `2 * R::BYTES`-per-amplitude files, so precision is as
/// load-bearing as `n_qubits`. Version 3 added `codec`: under a chunk
/// codec the artifacts hold encoded frames and their digests hash those
/// encoded bytes, so resuming across codecs would mis-read every chunk.
/// Version 4 names artifacts by generation parity instead of by unit (or
/// by a staged/live pair), so a version-3 directory is a
/// [`CheckpointError::Mismatch`], not a missing file.
pub const MANIFEST_VERSION: u32 = 4;

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
    /// (schedule, geometry, engine or digest mismatch).
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
    /// Which engine wrote this checkpoint (`"single"`, `"dist"`, `"ooc"`).
    pub engine: String,
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
    /// Seed of any stochastic stage (0 when unused) — recorded so a
    /// resumed run reproduces the interrupted one exactly.
    pub rng_seed: u64,
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
                "  \"engine\": \"{}\",\n",
                "  \"schedule_hash\": \"{:016x}\",\n",
                "  \"n_qubits\": {},\n",
                "  \"local_qubits\": {},\n",
                "  \"precision\": \"{}\",\n",
                "  \"codec\": \"{}\",\n",
                "  \"init_uniform\": {},\n",
                "  \"rng_seed\": \"{:016x}\",\n",
                "  \"next_unit\": {},\n",
                "  \"total_units\": {},\n",
                "  \"digests\": [{}]\n",
                "}}\n"
            ),
            self.version,
            self.engine,
            self.schedule_hash,
            self.n_qubits,
            self.local_qubits,
            self.precision,
            self.codec,
            self.init_uniform,
            self.rng_seed,
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
            engine: string("engine")?,
            schedule_hash: hex(&string("schedule_hash")?)?,
            n_qubits: int("n_qubits")? as u32,
            local_qubits: int("local_qubits")? as u32,
            precision: string("precision")?,
            codec: string("codec")?,
            init_uniform,
            rng_seed: hex(&string("rng_seed")?)?,
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
        if self.engine != key.engine {
            return fail(format!("engine '{}' != '{}'", self.engine, key.engine));
        }
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
/// on resume. Each engine builds one per run and opens its
/// [`crate::run::Run`] with it. The unit count is the schedule's stage
/// count on every engine.
#[derive(Clone, Copy, Debug)]
pub struct RunKey<'a> {
    /// `"single"`, `"dist"` or `"ooc"`.
    pub engine: &'static str,
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
            engine: self.engine.to_string(),
            schedule_hash: schedule_fingerprint(self.schedule),
            n_qubits: self.schedule.n_qubits,
            local_qubits: self.schedule.local_qubits,
            precision: self.precision.to_string(),
            codec: self.codec.to_string(),
            init_uniform: self.init_uniform,
            rng_seed: 0,
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
                Err(e) => return Err(at_path(dir, e)),
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

fn at_path(path: &Path, e: io::Error) -> CheckpointError {
    CheckpointError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Durably write artifact `artifact`'s snapshot of generation `unit`
/// (the in-memory engine's per-unit step 1) over whatever generation
/// `unit − 2` left under that parity, and return its digest. Bytes are
/// little-endian `(re, im)` scalar pairs at the state's precision — the
/// same layout as the chunk store on every supported target.
pub fn save_snapshot<R: Real>(
    dir: &Path,
    artifact: usize,
    unit: usize,
    amps: &[Complex<R>],
) -> Result<u64, CheckpointError> {
    let path = snapshot_path(dir, artifact, unit);
    let write = || -> io::Result<u64> {
        let mut f = io::BufWriter::new(File::create(&path)?);
        let mut h = Fnv1a::new();
        for a in amps {
            for x in [a.re, a.im] {
                let bytes = &x.to_bits_u64().to_le_bytes()[..R::BYTES];
                f.write_all(bytes)?;
                h.write(bytes);
            }
        }
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(h.finish())
    };
    write().map_err(|e| at_path(&path, e))
}

/// Load artifact `artifact`'s snapshot of generation `unit` and verify it
/// against the digest the manifest recorded — a torn or stale snapshot
/// is a typed error, never silently wrong amplitudes.
pub fn load_snapshot<R: Real>(
    dir: &Path,
    artifact: usize,
    unit: usize,
    len: usize,
    want: u64,
) -> Result<Vec<Complex<R>>, CheckpointError> {
    let path = snapshot_path(dir, artifact, unit);
    let read = || -> io::Result<(Vec<Complex<R>>, u64)> {
        let mut f = io::BufReader::new(File::open(&path)?);
        let mut h = Fnv1a::new();
        let mut scalar = || -> io::Result<R> {
            let mut b = [0u8; 8];
            f.read_exact(&mut b[..R::BYTES])?;
            h.write(&b[..R::BYTES]);
            Ok(R::from_bits_u64(u64::from_le_bytes(b)))
        };
        let amps = (0..len)
            .map(|_| Ok(Complex::new(scalar()?, scalar()?)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((amps, h.finish()))
    };
    let (amps, digest) = read().map_err(|e| at_path(&path, e))?;
    if digest != want {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot {} does not match the manifest digest",
            path.display()
        )));
    }
    Ok(amps)
}

/// fsync a directory so preceding renames/creates in it are durable.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Incremental FNV-1a (64-bit) over a byte stream. Multi-byte values
/// are folded in little-endian, matching the raw-file digests of the
/// chunk store on every supported target.
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

/// FNV-1a of a byte slice (file-content digests).
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

/// Path of a rank slice snapshot (the whole register on a single node)
/// of generation `unit` inside a checkpoint directory: named by the
/// unit's parity, so two generations alternate between two files.
pub fn snapshot_path(dir: &Path, artifact: usize, unit: usize) -> PathBuf {
    dir.join(format!("state_a{artifact:03}.g{}.amps", unit % 2))
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
            engine: "ooc".into(),
            schedule_hash: 0xdead_beef_0123_4567,
            n_qubits: 20,
            local_qubits: 16,
            precision: "f64".into(),
            codec: "shuffle-rle".into(),
            init_uniform: true,
            rng_seed: u64::MAX, // exercises full 64-bit width
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
            engine: "ooc",
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
            ("\"version\": 4", "\"version\": 4.5"),
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
        // A version-3 manifest is a foreign format, not a torn file.
        let v3 = good.replace("\"version\": 4", "\"version\": 3");
        assert!(matches!(
            Manifest::from_json(&v3),
            Err(CheckpointError::Mismatch(_))
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
                engine: "dist",
                ..key
            },
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

    /// A snapshot is `2 * R::BYTES` raw bytes per amplitude, its digest is
    /// [`fnv1a64`] of the written file, and it loads back only under that
    /// digest.
    fn snapshot_round_trip<R: Real>(amps: &[Complex<R>]) {
        let dir = tmpdir(R::NAME);
        assert_eq!(snapshot_path(&dir, 0, 5), snapshot_path(&dir, 0, 3));
        let wrote = save_snapshot(&dir, 0, 5, amps).unwrap();
        let raw = std::fs::read(snapshot_path(&dir, 0, 5)).unwrap();
        assert_eq!(raw.len(), amps.len() * 2 * R::BYTES);
        assert_eq!(wrote, fnv1a64(&raw));
        let back = load_snapshot::<R>(&dir, 0, 5, amps.len(), wrote).unwrap();
        assert_eq!(back, amps);
        assert!(matches!(
            load_snapshot::<R>(&dir, 0, 5, amps.len(), !wrote),
            Err(CheckpointError::Mismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_round_trip_at_both_precisions() {
        use qsim_util::c32;
        let amps: Vec<c64> = (0..32)
            .map(|i| c64::new(i as f64 * 0.25, -(i as f64)))
            .collect();
        snapshot_round_trip(&amps);
        snapshot_round_trip(
            &amps
                .iter()
                .map(|a| a.convert::<f32>())
                .collect::<Vec<c32>>(),
        );
    }
}
