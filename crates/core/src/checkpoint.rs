//! Crash-safe training checkpoints.
//!
//! A [`TrainCheckpoint`] bundles everything a killed run needs to resume
//! bit-identically: the model parameters, the optimizer moments, the
//! epoch cursor (per-epoch RNG streams are re-derived from the master
//! seed, so no generator state needs serializing), the full
//! [`PrivacyLedger`] (whose accumulated γ vector *is* the RDP accountant
//! state), and the loss history.
//!
//! This is the one on-disk model format. A released model (`privim
//! train --checkpoint`) is a full [`TrainCheckpoint`] too, so the file a
//! server loads carries the ledger that accounts for its weights, and
//! every reader decodes it through [`CheckpointStore::load`].
//!
//! Every file is written by [`CheckpointStore::write`] with the classic
//! durable protocol: write to a temp file, `fsync`, atomically rename
//! into place, `fsync` the directory. [`CheckpointStore`] writes its
//! generations that way and only then prunes old ones — the previous
//! good checkpoint is never deleted before the new one is durable.
//! Every file carries a versioned header with a CRC32 over the payload,
//! so torn writes and bit rot are detected at load time and the store
//! falls back to the newest older generation that still verifies.
//!
//! The encoding is a hand-rolled little-endian binary format
//! (`f64::to_bits`, length-prefixed sections): lossless, so restored
//! runs continue bit-for-bit, and dependency-free.

use std::io::Write;
use std::path::{Path, PathBuf};

use privim_dp::ledger::PrivacyLedger;
use privim_nn::matrix::Matrix;
use privim_nn::models::ModelKind;
use privim_nn::optim::OptimizerSnapshot;
use privim_nn::serialize::Checkpoint as ModelCheckpoint;
use privim_obs::FaultSignal;

/// Magic prefix of the checkpoint file format.
const CKPT_MAGIC: &[u8; 4] = b"PVCK";
/// Format version; bumped on any layout change. Version 2 added the
/// 128-bit run trace id after `config_crc`; version 3 added the split
/// provenance section after the histories. Loading still accepts
/// version-2 files (they decode with `split: None`), so stores written
/// by older builds keep their newest-valid fallback.
const CKPT_VERSION: u32 = 3;
/// Oldest format version [`CheckpointStore::load`] still accepts.
const CKPT_MIN_VERSION: u32 = 2;
/// Header: magic + version + payload length + payload CRC32.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// Errors from saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying (or injected) I/O failure.
    Io(std::io::Error),
    /// The file failed header, checksum, or structural validation.
    Corrupt(String),
    /// An injected kill fired mid-operation (fault harness only): abort
    /// immediately, leaving on-disk state exactly as it is.
    Killed {
        /// The fault site that fired.
        site: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Killed { site } => write!(f, "killed at fault site {site}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<FaultSignal> for CheckpointError {
    fn from(signal: FaultSignal) -> Self {
        match signal {
            FaultSignal::Kill { site } => CheckpointError::Killed { site },
            FaultSignal::Io(e) => CheckpointError::Io(e),
        }
    }
}

/// CRC32 (IEEE 802.3, reflected) over `bytes`. Table-free bitwise form:
/// checkpoint payloads are small enough that throughput is irrelevant
/// next to the `fsync` they precede.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// How the train/test node split was drawn, persisted so privacy
/// audits can reconstruct the exact membership ground truth from the
/// checkpoint alone (no side channel to the original invocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitProvenance {
    /// Seed of the RNG handed to `NodeSplit::random`.
    pub split_seed: u64,
    /// Fraction of nodes assigned to the train split.
    pub train_fraction: f64,
}

/// Everything needed to resume a killed training run bit-identically.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Number of completed epochs (the resume loop starts here).
    pub epoch: u64,
    /// The run's master seed; per-epoch RNGs are derived from it, so the
    /// epoch cursor alone pins the entire remaining randomness.
    pub master_seed: u64,
    /// CRC32 of the run configuration's debug rendering; resuming under
    /// a different configuration is refused.
    pub config_crc: u32,
    /// The run-scoped trace id (0 when tracing is off). Restored on
    /// resume so a continuation provably correlates with its
    /// predecessor's telemetry across the kill.
    pub trace_id: u128,
    /// Model architecture + parameters.
    pub model: ModelCheckpoint,
    /// Optimizer internal state (moments, step counter).
    pub optimizer: OptimizerSnapshot,
    /// The privacy ledger (None for non-private runs). Its accumulated
    /// γ vector is the accountant state; restoring it restores exact ε
    /// accounting.
    pub ledger: Option<PrivacyLedger>,
    /// Mean batch loss of every completed epoch.
    pub losses: Vec<f64>,
    /// Clip fraction of every completed epoch (private runs).
    pub clip_fractions: Vec<f64>,
    /// Split provenance (None for runs that drew no node split, and
    /// for checkpoints written by format versions before 3).
    pub split: Option<SplitProvenance>,
}

impl TrainCheckpoint {
    /// Encodes the checkpoint payload (header-less; the store adds the
    /// checksummed header on write).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.master_seed.to_le_bytes());
        out.extend_from_slice(&self.config_crc.to_le_bytes());
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        // Model: kind (index into ModelKind::ALL), dims, named matrices.
        let kind_code = ModelKind::ALL
            .iter()
            .position(|&k| k == self.model.kind)
            .expect("every ModelKind appears in ALL") as u8;
        out.push(kind_code);
        out.extend_from_slice(&(self.model.in_dim as u64).to_le_bytes());
        out.extend_from_slice(&(self.model.hidden as u64).to_le_bytes());
        out.extend_from_slice(&(self.model.layers as u64).to_le_bytes());
        out.extend_from_slice(&(self.model.params.len() as u64).to_le_bytes());
        for (name, value) in &self.model.params {
            put_str(&mut out, name);
            put_matrix(&mut out, value);
        }
        // Optimizer.
        match &self.optimizer {
            OptimizerSnapshot::Sgd { lr } => {
                out.push(0);
                put_f64(&mut out, *lr);
            }
            OptimizerSnapshot::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                out.push(1);
                for x in [*lr, *beta1, *beta2, *eps] {
                    put_f64(&mut out, x);
                }
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&(m.len() as u64).to_le_bytes());
                for block in m.iter().chain(v.iter()) {
                    put_matrix(&mut out, block);
                }
            }
        }
        // Ledger (length-prefixed embedded blob).
        match &self.ledger {
            None => out.push(0),
            Some(ledger) => {
                out.push(1);
                let blob = ledger.to_bytes();
                out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
                out.extend_from_slice(&blob);
            }
        }
        // Histories.
        put_f64_vec(&mut out, &self.losses);
        put_f64_vec(&mut out, &self.clip_fractions);
        // Split provenance (format version 3+).
        match &self.split {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&s.split_seed.to_le_bytes());
                put_f64(&mut out, s.train_fraction);
            }
        }
        out
    }

    /// Decodes a payload produced by [`TrainCheckpoint::to_bytes`]
    /// (i.e. the current format version).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::from_bytes_versioned(bytes, CKPT_VERSION)
    }

    /// Decodes a payload written by format `version`. Decoding is
    /// strict per version — a version-2 payload must *not* carry the
    /// split section and a version-3 payload must — so every
    /// truncation or extension of a valid payload still fails. Every
    /// length and discriminant is bounds-checked; malformed input
    /// yields `Err`, never a panic.
    pub fn from_bytes_versioned(bytes: &[u8], version: u32) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        let epoch = r.u64()?;
        let master_seed = r.u64()?;
        let config_crc = r.u32()?;
        let trace_id = r.u128()?;
        let kind_code = r.u8()? as usize;
        let kind = *ModelKind::ALL
            .get(kind_code)
            .ok_or_else(|| corrupt(format!("unknown model kind code {kind_code}")))?;
        let in_dim = r.len_checked("in_dim")?;
        let hidden = r.len_checked("hidden")?;
        let layers = r.len_checked("layers")?;
        let n_params = r.len_checked("param count")?;
        let mut params = Vec::with_capacity(n_params.min(1024));
        for _ in 0..n_params {
            let name = r.string()?;
            let value = r.matrix()?;
            params.push((name, value));
        }
        let model = ModelCheckpoint {
            kind,
            in_dim,
            hidden,
            layers,
            params,
        };
        model
            .validate()
            .map_err(|e| corrupt(format!("model section: {e}")))?;
        let optimizer = match r.u8()? {
            0 => OptimizerSnapshot::Sgd { lr: r.f64()? },
            1 => {
                let lr = r.f64()?;
                let beta1 = r.f64()?;
                let beta2 = r.f64()?;
                let eps = r.f64()?;
                let t = r.u64()?;
                let blocks = r.len_checked("moment count")?;
                let mut m = Vec::with_capacity(blocks.min(1024));
                let mut v = Vec::with_capacity(blocks.min(1024));
                for _ in 0..blocks {
                    m.push(r.matrix()?);
                }
                for _ in 0..blocks {
                    v.push(r.matrix()?);
                }
                OptimizerSnapshot::Adam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    t,
                    m,
                    v,
                }
            }
            tag => return Err(corrupt(format!("unknown optimizer tag {tag}"))),
        };
        let ledger = match r.u8()? {
            0 => None,
            1 => {
                let len = r.len_checked("ledger blob")?;
                let blob = r.take(len)?;
                Some(PrivacyLedger::from_bytes(blob).map_err(|e| corrupt(format!("ledger: {e}")))?)
            }
            tag => return Err(corrupt(format!("unknown ledger tag {tag}"))),
        };
        let losses = r.f64_vec()?;
        let clip_fractions = r.f64_vec()?;
        let split = if version >= 3 {
            match r.u8()? {
                0 => None,
                1 => Some(SplitProvenance {
                    split_seed: r.u64()?,
                    train_fraction: r.f64()?,
                }),
                tag => return Err(corrupt(format!("unknown split tag {tag}"))),
            }
        } else {
            None
        };
        if r.pos != bytes.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after payload",
                bytes.len() - r.pos
            )));
        }
        Ok(TrainCheckpoint {
            epoch,
            master_seed,
            config_crc,
            trace_id,
            model,
            optimizer,
            ledger,
            losses,
            clip_fractions,
            split,
        })
    }
}

fn corrupt(msg: String) -> CheckpointError {
    CheckpointError::Corrupt(msg)
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for &v in m.data() {
        put_f64(out, v);
    }
}

fn put_f64_vec(out: &mut Vec<u8>, vs: &[f64]) {
    out.extend_from_slice(&(vs.len() as u64).to_le_bytes());
    for &v in vs {
        put_f64(out, v);
    }
}

/// Bounds-checked little-endian cursor.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("truncated at byte {}", self.pos)))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, CheckpointError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A u64 length that must still be addressable within the buffer —
    /// rejects absurd counts before any allocation happens.
    fn len_checked(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > self.bytes.len() as u64 {
            return Err(corrupt(format!("implausible {what} {n}")));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.len_checked("string length")?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("non-utf8 string".into()))
    }

    fn matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.len_checked("matrix rows")?;
        let cols = self.len_checked("matrix cols")?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n.checked_mul(8).is_some_and(|b| b <= self.bytes.len()))
            .ok_or_else(|| corrupt(format!("implausible matrix shape {rows}x{cols}")))?;
        Ok(Matrix::from_vec(rows, cols, self.f64s(n)?))
    }

    /// `n` floats; `n` is already bounded by the input length, and a
    /// short input fails at its first missing value.
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        (0..n).map(|_| self.f64()).collect()
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len_checked("f64 vec")?;
        self.f64s(n)
    }
}

/// A directory of checkpoint generations (`gen-NNNNNN.ckpt`), newest
/// wins, with atomic durable writes and bounded retention.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`, retaining the
    /// newest `keep` generations (minimum 1).
    pub fn open<P: AsRef<Path>>(dir: P, keep: usize) -> Result<Self, CheckpointError> {
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            keep: keep.max(1),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn gen_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("gen-{epoch:06}.ckpt"))
    }

    /// Durably writes `ckpt` as generation `ckpt.epoch` through
    /// [`CheckpointStore::write`], then prunes: the previous good
    /// checkpoint is never deleted before the new one is durable.
    pub fn save(&self, ckpt: &TrainCheckpoint) -> Result<PathBuf, CheckpointError> {
        let final_path = self.gen_path(ckpt.epoch);
        let bytes = Self::write(&final_path, ckpt)?;
        privim_obs::counter("checkpoint.saved").add(1);
        privim_obs::debug!(
            "checkpoint",
            "saved",
            epoch = ckpt.epoch,
            bytes = bytes,
            path = final_path.display().to_string(),
        );
        self.prune()?;
        Ok(final_path)
    }

    /// The one durable write path for checkpoint files, shared by store
    /// generations and the released model file: temp-write (as
    /// `.NAME.tmp` next to `path`) → `fsync` → rename → `fsync(dir)`. A
    /// crash at any instruction leaves either the old `path` untouched
    /// (temp never renamed) or the new file fully durable. Returns the
    /// file's length in bytes.
    pub fn write(path: &Path, ckpt: &TrainCheckpoint) -> Result<usize, CheckpointError> {
        privim_obs::fault_point("checkpoint.write.pre").map_err(CheckpointError::from)?;
        let payload = ckpt.to_bytes();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(CKPT_MAGIC);
        header.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(&payload).to_le_bytes());

        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let name = path.file_name().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} names no file", path.display()),
            )
        })?;
        let tmp_path = dir.join(format!(".{}.tmp", name.to_string_lossy()));
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(&header)?;
            let half = payload.len() / 2;
            f.write_all(&payload[..half])?;
            // A kill here leaves a torn temp file that is never renamed:
            // the file at `path` is untouched, exactly like a real
            // SIGKILL mid-write.
            privim_obs::fault_point("checkpoint.write.mid").map_err(CheckpointError::from)?;
            f.write_all(&payload[half..])?;
            f.sync_all()?;
        }
        // Silent-corruption site: a TruncateTail/FlipByte arm here rots
        // the temp file after its fsync, so the damage survives the
        // rename and only the CRC at load time can catch it.
        privim_obs::fault_point_file("checkpoint.write.pre_rename", &tmp_path)
            .map_err(CheckpointError::from)?;
        std::fs::rename(&tmp_path, path)?;
        let post_rename = privim_obs::fault_point("checkpoint.write.post_rename");
        sync_dir(dir)?;
        // The kill is honored only after the rename itself is on disk —
        // the new file is durable, old generations were not yet pruned.
        post_rename.map_err(CheckpointError::from)?;
        Ok(HEADER_LEN + payload.len())
    }

    /// All generations on disk, ascending by epoch. Temp files and
    /// foreign names are ignored.
    pub fn generations(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
            {
                if let Ok(epoch) = num.parse::<u64>() {
                    out.push((epoch, entry.path()));
                }
            }
        }
        out.sort_by_key(|&(epoch, _)| epoch);
        Ok(out)
    }

    /// Loads and fully validates one checkpoint file: header, version,
    /// declared length, CRC32, then structural decoding.
    pub fn load(path: &Path) -> Result<TrainCheckpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file shorter than header: {}",
                bytes.len()
            )));
        }
        if &bytes[..4] != CKPT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if !(CKPT_MIN_VERSION..=CKPT_VERSION).contains(&version) {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let declared = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != declared {
            return Err(corrupt(format!(
                "payload length {} != declared {declared} (torn write)",
                payload.len()
            )));
        }
        let actual_crc = crc32(payload);
        if actual_crc != stored_crc {
            return Err(corrupt(format!(
                "crc mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
            )));
        }
        TrainCheckpoint::from_bytes_versioned(payload, version)
    }

    /// Loads the newest generation that passes full validation, walking
    /// back through older generations when the latest is torn or rotted.
    /// Returns `Ok(None)` when the store holds no loadable checkpoint.
    pub fn load_latest_valid(&self) -> Result<Option<(TrainCheckpoint, PathBuf)>, CheckpointError> {
        let gens = self.generations()?;
        for (epoch, path) in gens.into_iter().rev() {
            match Self::load(&path) {
                Ok(ckpt) => return Ok(Some((ckpt, path))),
                Err(CheckpointError::Corrupt(msg)) => {
                    privim_obs::counter("checkpoint.corrupt_skipped").add(1);
                    privim_obs::warn!(
                        "checkpoint",
                        "corrupt_generation_skipped",
                        epoch = epoch,
                        path = path.display().to_string(),
                        reason = msg,
                    );
                }
                Err(other) => return Err(other),
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` generations. Called only after
    /// a new generation is fully durable.
    fn prune(&self) -> Result<(), CheckpointError> {
        let gens = self.generations()?;
        if gens.len() > self.keep {
            for (_, path) in &gens[..gens.len() - self.keep] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

/// `fsync` on the directory so the rename itself is durable (no-op
/// outside Unix).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use privim_nn::models::build_model;
    use privim_nn::optim::{Adam, Optimizer, Sgd};
    use privim_obs::{clear_fault_plan, set_fault_plan, FaultAction, FaultPlan};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Mutex, MutexGuard};

    /// The fault plan is process-global: a plan one test arms fires on any
    /// checkpoint write in the process. Tests that arm a plan, and tests
    /// that write checkpoints, hold this lock so neither sees the other.
    pub(crate) fn fault_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample_checkpoint(epoch: u64) -> TrainCheckpoint {
        let mut rng = StdRng::seed_from_u64(epoch ^ 0xC0FFEE);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let mut adam = Adam::new(0.01);
        // Give Adam nonzero moments so the round trip is non-trivial.
        let mut params = model.params().clone();
        let grad = privim_nn::params::GradVec::zeros_like(&params);
        adam.step(&mut params, &grad);
        let mut ledger = PrivacyLedger::new(1e-5);
        let sub = privim_dp::rdp::SubsampledConfig {
            max_occurrences: 4,
            batch_size: 8,
            container_size: 64,
        };
        for _ in 0..3 {
            ledger.record_step(
                privim_dp::ledger::MechanismKind::SubsampledGaussian,
                2.0,
                4.0,
                &sub,
            );
        }
        TrainCheckpoint {
            epoch,
            master_seed: 42,
            config_crc: 0xDEAD_BEEF,
            trace_id: 0x00C0_FFEE_00C0_FFEE_00C0_FFEE_00C0_FFEE,
            model: ModelCheckpoint::capture(model.as_ref(), 4, 8, 2),
            optimizer: adam.snapshot(),
            ledger: Some(ledger),
            losses: vec![0.9, 0.7, 0.5],
            clip_fractions: vec![0.5, 0.25, 0.125],
            split: Some(SplitProvenance {
                split_seed: 42,
                train_fraction: 0.5,
            }),
        }
    }

    fn tmp_store(name: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("privim-ckpt-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::open(&dir, keep).unwrap()
    }

    #[test]
    fn round_trip_is_bitwise_lossless() {
        let ckpt = sample_checkpoint(7);
        let decoded = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded.epoch, 7);
        assert_eq!(decoded.master_seed, 42);
        assert_eq!(decoded.config_crc, 0xDEAD_BEEF);
        assert_eq!(decoded.trace_id, ckpt.trace_id);
        assert_eq!(decoded.optimizer, ckpt.optimizer);
        for ((n1, m1), (n2, m2)) in ckpt.model.params.iter().zip(&decoded.model.params) {
            assert_eq!(n1, n2);
            for (a, b) in m1.data().iter().zip(m2.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let l1 = ckpt.ledger.as_ref().unwrap();
        let l2 = decoded.ledger.as_ref().unwrap();
        assert_eq!(l1.entries(), l2.entries());
        for (a, b) in l1.gammas().iter().zip(l2.gammas()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.losses, ckpt.losses);
        assert_eq!(decoded.clip_fractions, ckpt.clip_fractions);
        assert_eq!(decoded.split, ckpt.split);
        assert_eq!(
            decoded.split.unwrap().train_fraction.to_bits(),
            0.5f64.to_bits()
        );
    }

    #[test]
    fn version2_payloads_still_decode_without_split() {
        // A version-2 payload is exactly a version-3 payload with
        // `split: None` minus its trailing one-byte split tag.
        let mut ckpt = sample_checkpoint(4);
        ckpt.split = None;
        let v3 = ckpt.to_bytes();
        let v2 = &v3[..v3.len() - 1];
        let decoded = TrainCheckpoint::from_bytes_versioned(v2, 2).unwrap();
        assert_eq!(decoded.epoch, 4);
        assert!(decoded.split.is_none());
        // Strict per-version framing: a v3 decode of a v2 payload is a
        // truncation, and a v2 decode of a v3 payload has a trailing
        // byte — both must fail.
        assert!(TrainCheckpoint::from_bytes_versioned(v2, 3).is_err());
        assert!(TrainCheckpoint::from_bytes_versioned(&v3, 2).is_err());
    }

    #[test]
    fn store_loads_version2_files_written_by_older_builds() {
        let store = tmp_store("v2compat", 3);
        let mut ckpt = sample_checkpoint(9);
        ckpt.split = None;
        let v3 = ckpt.to_bytes();
        let payload = &v3[..v3.len() - 1];
        let mut file = Vec::new();
        file.extend_from_slice(CKPT_MAGIC);
        file.extend_from_slice(&2u32.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
        let path = store.dir().join("gen-000009.ckpt");
        std::fs::write(&path, &file).unwrap();
        let loaded = CheckpointStore::load(&path).unwrap();
        assert_eq!(loaded.epoch, 9);
        assert!(loaded.split.is_none(), "v2 files decode with no split");
        // The newest-valid fallback walk also sees it.
        let (latest, _) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(latest.epoch, 9);
        // An out-of-range version is rejected outright.
        file[4..8].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            CheckpointStore::load(&path),
            Err(CheckpointError::Corrupt(msg)) if msg.contains("unsupported version")
        ));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn sgd_and_no_ledger_round_trip() {
        let mut ckpt = sample_checkpoint(1);
        ckpt.optimizer = Sgd::new(0.3).snapshot();
        ckpt.ledger = None;
        let decoded = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded.optimizer, ckpt.optimizer);
        assert!(decoded.ledger.is_none());
    }

    #[test]
    fn decoder_rejects_mutations_never_panics() {
        let bytes = sample_checkpoint(3).to_bytes();
        // Every truncation point (stride keeps runtime sane).
        for cut in (0..bytes.len()).step_by(3) {
            assert!(
                TrainCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} must fail"
            );
        }
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(TrainCheckpoint::from_bytes(&extended).is_err());
        // Byte-flip sweep: decoding must never panic; flips in f64
        // payloads may legitimately still parse.
        for pos in (0..bytes.len()).step_by(5) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0xFF;
            let _ = TrainCheckpoint::from_bytes(&mutated);
        }
    }

    #[test]
    fn store_save_load_and_prune() {
        let _g = fault_lock();
        let store = tmp_store("prune", 2);
        for epoch in [5u64, 10, 15, 20] {
            store.save(&sample_checkpoint(epoch)).unwrap();
        }
        let gens = store.generations().unwrap();
        let epochs: Vec<u64> = gens.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, vec![15, 20], "keep=2 retains the newest two");
        let (latest, path) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(latest.epoch, 20);
        assert!(path.ends_with("gen-000020.ckpt"));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() {
        let _g = fault_lock();
        let store = tmp_store("fallback", 3);
        store.save(&sample_checkpoint(1)).unwrap();
        store.save(&sample_checkpoint(2)).unwrap();
        // Rot the newest generation on disk.
        let gens = store.generations().unwrap();
        let newest = &gens.last().unwrap().1;
        privim_obs::fault::flip_byte(newest, 40).unwrap();
        let (ckpt, _) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(ckpt.epoch, 1, "must fall back past the rotted gen 2");
        // Truncate the older one too: nothing valid remains.
        let older = &store.generations().unwrap()[0].1;
        privim_obs::fault::truncate_tail(older, 10_000_000).unwrap();
        assert!(store.load_latest_valid().unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn kill_mid_write_leaves_previous_generation_intact() {
        let _g = fault_lock();
        let store = tmp_store("midkill", 3);
        store.save(&sample_checkpoint(1)).unwrap();
        set_fault_plan(FaultPlan::kill_after("checkpoint.write.mid", 1));
        match store.save(&sample_checkpoint(2)) {
            Err(CheckpointError::Killed { site }) => {
                assert_eq!(site, "checkpoint.write.mid");
            }
            other => panic!("expected kill, got {other:?}"),
        }
        clear_fault_plan();
        // The torn temp file is ignored; generation 1 still loads.
        let (ckpt, _) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(ckpt.epoch, 1);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn silent_pre_rename_corruption_is_caught_by_crc() {
        let _g = fault_lock();
        let store = tmp_store("rot", 3);
        store.save(&sample_checkpoint(1)).unwrap();
        set_fault_plan(FaultPlan::new().arm(
            "checkpoint.write.pre_rename",
            1,
            FaultAction::TruncateTail(7),
        ));
        // The save itself reports success — the corruption is silent.
        store.save(&sample_checkpoint(2)).unwrap();
        clear_fault_plan();
        assert!(
            matches!(
                CheckpointStore::load(&store.gen_path(2)),
                Err(CheckpointError::Corrupt(_))
            ),
            "gen 2 must fail its CRC"
        );
        let (ckpt, _) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(ckpt.epoch, 1, "fallback to the last good generation");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn injected_io_error_surfaces_as_io() {
        let _g = fault_lock();
        let store = tmp_store("ioerr", 3);
        set_fault_plan(FaultPlan::new().arm("checkpoint.write.pre", 1, FaultAction::IoError));
        assert!(matches!(
            store.save(&sample_checkpoint(1)),
            Err(CheckpointError::Io(_))
        ));
        clear_fault_plan();
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Points the header of a (possibly mutated) file at its current
    /// payload, so the mutation gets past the length and CRC checks and
    /// reaches the structural decoder.
    fn restamp(file: &mut [u8]) {
        if file.len() >= HEADER_LEN {
            let payload_len = (file.len() - HEADER_LEN) as u64;
            let crc = crc32(&file[HEADER_LEN..]);
            file[8..16].copy_from_slice(&payload_len.to_le_bytes());
            file[16..20].copy_from_slice(&crc.to_le_bytes());
        }
    }

    #[test]
    fn loader_fuzz_never_panics() {
        // Seeded fuzz of the PVCK loader over real files: flipped bytes,
        // extreme length fields, cuts, splices and forged versions, half
        // of them with the header re-stamped. `load` and then `restore`
        // and a forward pass must return, never panic.
        let _g = fault_lock();
        let store = tmp_store("fuzz", 8);
        let mut sgd = sample_checkpoint(2);
        sgd.optimizer = Sgd::new(0.3).snapshot();
        sgd.ledger = None;
        sgd.split = None;
        let mut grat = sample_checkpoint(3);
        let mut rng = StdRng::seed_from_u64(3);
        let model = build_model(ModelKind::Grat, 3, 4, 3, &mut rng);
        grat.model = ModelCheckpoint::capture(model.as_ref(), 3, 4, 3);
        let files: Vec<Vec<u8>> = [sample_checkpoint(1), sgd, grat]
            .iter()
            .map(|c| std::fs::read(store.save(c).unwrap()).unwrap())
            .collect();
        let mut b = privim_graph::GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, 0.5);
        }
        let graph = b.build();
        let target = store.dir().join("fuzz.ckpt");
        let mut rng = StdRng::seed_from_u64(0xF022);
        let (mut decoded, mut restored) = (0, 0);
        for case in 0..1500 {
            let mut file = files[case % files.len()].clone();
            let len = file.len();
            match rng.gen_range(0..5usize) {
                0 => {
                    for _ in 0..rng.gen_range(1..5usize) {
                        file[rng.gen_range(0..len)] ^= 1 << rng.gen_range(0..8u32);
                    }
                }
                1 => {
                    let extreme = [0, 1, u64::MAX, 1 << 40, len as u64][rng.gen_range(0..5usize)];
                    let at = rng.gen_range(HEADER_LEN..len - 8);
                    file[at..at + 8].copy_from_slice(&extreme.to_le_bytes());
                }
                2 => file.truncate(rng.gen_range(0..len)),
                3 => {
                    let at = rng.gen_range(0..len);
                    let other = &files[rng.gen_range(0..files.len())];
                    let from = rng.gen_range(0..other.len());
                    file.splice(at.., other[from..].iter().copied());
                }
                _ => file[4..8].copy_from_slice(&rng.gen_range(0..5u32).to_le_bytes()),
            }
            if case % 2 == 0 {
                restamp(&mut file);
            }
            std::fs::write(&target, &file).unwrap();
            let Ok(ckpt) = CheckpointStore::load(&target) else {
                continue;
            };
            decoded += 1;
            if let Ok(model) = ckpt.model.restore() {
                let gt = privim_nn::graph_tensors::GraphTensors::with_structural_features(
                    &graph,
                    ckpt.model.in_dim,
                );
                let _ = model.seed_probabilities(&gt);
                restored += 1;
            }
        }
        // Weight flips and forged version bytes decode; so must some
        // mutations of every source file.
        assert!(
            decoded > 100 && restored > 100,
            "{decoded} decoded, {restored} restored"
        );

        // Inputs that are not PVCK files at all.
        let mut other_magic = files[0].clone();
        other_magic[..4].copy_from_slice(b"PVIM");
        let json_model = br#"{"hidden":8,"in_dim":4,"kind":"Gcn","layers":2,"params":[]}"#;
        for bytes in [
            &b""[..],
            b"PVCK",
            &files[0][..HEADER_LEN],
            &other_magic,
            json_model,
        ] {
            std::fs::write(&target, bytes).unwrap();
            assert!(
                matches!(
                    CheckpointStore::load(&target),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
