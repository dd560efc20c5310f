//! Durable, crash-consistent CPD-ALS checkpoints.
//!
//! A [`CheckpointStore`] owns one directory of versioned, checksummed
//! checkpoint files (`ckpt-<seq>.spck`). Writes are atomic in the
//! happy path — encode, write to a temp file, fsync, rename — so a
//! reader never observes a half-written file *unless* the process died
//! between the rename and the data blocks becoming durable. That
//! failure mode is exactly what the `crash:RATE` fault kind injects: a
//! crashed write leaves a torn byte-prefix at the *final* path, and
//! recovery must scan back past it.
//!
//! # File format (`SPCK`, version 1, little-endian)
//!
//! ```text
//! magic      4  b"SPCK"
//! version    u32
//! seq        u64   monotone write sequence within the store
//! iteration  u64   completed ALS iterations at checkpoint time
//! rank       u32
//! order      u32   number of factor matrices
//! per mode:  rows u64, then rows·rank f32 (row-major factor data)
//! lambda:    len u64, then len f32
//! fits:      len u64, then len f64 (the fit trajectory so far)
//! checksum   u64   FNV-1a over every preceding byte
//! ```
//!
//! The trailing checksum makes torn and corrupt files self-evident:
//! [`CheckpointStore::latest_valid`] walks files in descending sequence
//! order, counts every invalid file it skips, and returns the newest
//! state that round-trips. Because ALS is deterministic, resuming from
//! *any* valid checkpoint on the trajectory replays the identical
//! remaining iterations — a warm restart converges to the same fit as
//! an uninterrupted run, bit for bit.

use std::path::{Path, PathBuf};

use dense::Matrix;
use gpu_sim::FaultPlan;

/// Format magic: the first four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SPCK";
/// Current (and only) format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Everything a warm restart needs to continue an ALS run exactly where
/// a checkpoint left it.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Write sequence of the file this state came from.
    pub seq: u64,
    /// Completed ALS iterations at checkpoint time.
    pub iteration: usize,
    pub factors: Vec<Matrix>,
    pub lambda: Vec<f32>,
    /// Fit trajectory through `iteration` (rollback iterations included).
    pub fits: Vec<f64>,
}

impl CheckpointState {
    /// Checks that this state can continue a rank-`rank` run over a
    /// tensor of dimensions `dims`: one factor per mode with that mode's
    /// rows and `rank` columns, and `rank` weights.
    pub fn check_shape(
        &self,
        dims: &[sptensor::Index],
        rank: usize,
    ) -> Result<(), CheckpointError> {
        let mismatch = |detail: String| {
            Err(CheckpointError::ShapeMismatch {
                seq: self.seq,
                detail,
            })
        };
        if self.factors.len() != dims.len() {
            let order = self.factors.len();
            return mismatch(format!("order {order}, run has order {}", dims.len()));
        }
        for (mode, (f, &rows)) in self.factors.iter().zip(dims).enumerate() {
            if f.rows() != rows as usize {
                return mismatch(format!("mode {mode} has {} rows, run has {rows}", f.rows()));
            }
            if f.cols() != rank {
                return mismatch(format!("rank {}, run has rank {rank}", f.cols()));
            }
        }
        if self.lambda.len() != rank {
            let n = self.lambda.len();
            return mismatch(format!("{n} weights, run has rank {rank}"));
        }
        Ok(())
    }
}

/// A typed checkpoint failure: genuine I/O trouble or a file that does
/// not decode (torn, corrupt, foreign, or from an unknown version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io { path: String, detail: String },
    /// The file is shorter than the fixed header + checksum.
    TooShort { path: String },
    /// The file does not start with the `SPCK` magic.
    BadMagic { path: String },
    /// The file's version is not one this build can read.
    UnsupportedVersion { path: String, version: u32 },
    /// The trailing checksum does not match the payload (torn/corrupt).
    ChecksumMismatch { path: String },
    /// The payload is structurally inconsistent (lengths overrun).
    Malformed { path: String, detail: String },
    /// A valid checkpoint of another run: its order, rows per mode or
    /// rank differ from the run that tried to resume from it.
    ShapeMismatch { seq: u64, detail: String },
}

impl CheckpointError {
    fn io(path: &Path, err: std::io::Error) -> CheckpointError {
        CheckpointError::Io {
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O error at {path}: {detail}")
            }
            CheckpointError::TooShort { path } => {
                write!(f, "checkpoint {path} is too short (torn write)")
            }
            CheckpointError::BadMagic { path } => {
                write!(f, "checkpoint {path} has no SPCK magic")
            }
            CheckpointError::UnsupportedVersion { path, version } => {
                write!(f, "checkpoint {path} has unsupported version {version}")
            }
            CheckpointError::ChecksumMismatch { path } => {
                write!(f, "checkpoint {path} fails its checksum (torn/corrupt)")
            }
            CheckpointError::Malformed { path, detail } => {
                write!(f, "checkpoint {path} is malformed: {detail}")
            }
            CheckpointError::ShapeMismatch { seq, detail } => {
                write!(f, "checkpoint {seq} does not fit this run: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What one durable write did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Temp + fsync + rename completed; the file is durable and valid.
    Written { seq: u64, bytes: u64 },
    /// An injected `crash` fault killed the writer mid-write: a torn
    /// prefix of the encoding sits at the final path.
    Crashed { seq: u64, torn_bytes: u64 },
}

/// Result of scanning a store for the newest valid checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// The newest state that decoded and checksummed clean, if any.
    pub state: Option<CheckpointState>,
    /// Torn/corrupt/foreign files skipped on the way (newest-first scan).
    pub skipped: u64,
}

/// A directory of durable checkpoints for one labeled run.
///
/// `label` keys the crash-fault draws (`FaultPlan::write_crash(label,
/// seq)`), so two runs with the same fault plan and label crash — or
/// don't — identically: the chaos harness depends on that to diff
/// same-seed runs byte for byte.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    label: String,
    crash: Option<FaultPlan>,
    next_seq: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory `dir`.
    /// Sequence numbering continues after the highest existing file —
    /// torn files included, so a crashed sequence number is never
    /// reused and every crash draw happens at most once.
    pub fn open(dir: &Path, label: &str) -> Result<CheckpointStore, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::io(dir, e))?;
        let next_seq = Self::scan_seqs(dir)?.first().map_or(0, |&s| s + 1);
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            label: label.to_string(),
            crash: None,
            next_seq,
        })
    }

    /// The same store with mid-write crash injection drawn from `plan`
    /// (plans without crash faults are dropped).
    pub fn with_crash_plan(mut self, plan: Option<&FaultPlan>) -> CheckpointStore {
        self.crash = plan.filter(|p| p.has_crash_faults()).cloned();
        self
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Existing checkpoint sequence numbers, newest first (valid or not).
    fn scan_seqs(dir: &Path) -> Result<Vec<u64>, CheckpointError> {
        let mut seqs = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| CheckpointError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| CheckpointError::io(dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".spck"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        Ok(seqs)
    }

    fn file_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:08}.spck"))
    }

    /// Durably writes one checkpoint, or tears it if the crash draw for
    /// this `(label, seq)` site fires. The happy path is atomic: encode,
    /// write `*.tmp`, fsync, rename. The crash path models the one hole
    /// in that protocol — a rename made visible before the data blocks
    /// were durable — by leaving a byte-prefix of the encoding at the
    /// *final* path, which the trailing checksum makes detectable.
    pub fn write(
        &mut self,
        iteration: usize,
        factors: &[Matrix],
        lambda: &[f32],
        fits: &[f64],
    ) -> Result<WriteOutcome, CheckpointError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = encode(seq, iteration, factors, lambda, fits);
        let path = self.file_path(seq);
        if let Some(frac) = self
            .crash
            .as_ref()
            .and_then(|p| p.write_crash(&self.label, seq))
        {
            let torn = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
            std::fs::write(&path, &bytes[..torn]).map_err(|e| CheckpointError::io(&path, e))?;
            return Ok(WriteOutcome::Crashed {
                seq,
                torn_bytes: torn as u64,
            });
        }
        let tmp = self.dir.join(format!("ckpt-{seq:08}.tmp"));
        let write_all = || -> std::io::Result<()> {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()
        };
        write_all().map_err(|e| CheckpointError::io(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| CheckpointError::io(&path, e))?;
        Ok(WriteOutcome::Written {
            seq,
            bytes: bytes.len() as u64,
        })
    }

    /// Scans back (newest sequence first) to the most recent checkpoint
    /// that decodes and checksums clean, counting every torn/corrupt
    /// file skipped on the way.
    pub fn latest_valid(&self) -> Result<Scan, CheckpointError> {
        let mut skipped = 0u64;
        for seq in Self::scan_seqs(&self.dir)? {
            match load(&self.file_path(seq)) {
                Ok(state) => {
                    return Ok(Scan {
                        state: Some(state),
                        skipped,
                    })
                }
                Err(CheckpointError::Io { path, detail }) => {
                    return Err(CheckpointError::Io { path, detail })
                }
                Err(_) => skipped += 1,
            }
        }
        Ok(Scan {
            state: None,
            skipped,
        })
    }
}

/// Encodes one checkpoint to its on-disk byte representation.
fn encode(seq: u64, iteration: usize, factors: &[Matrix], lambda: &[f32], fits: &[f64]) -> Vec<u8> {
    let rank = factors.first().map_or(0, |m| m.cols());
    let mut b = Vec::with_capacity(
        64 + factors
            .iter()
            .map(|m| 8 + m.data().len() * 4)
            .sum::<usize>(),
    );
    b.extend_from_slice(&CHECKPOINT_MAGIC);
    b.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&(iteration as u64).to_le_bytes());
    b.extend_from_slice(&(rank as u32).to_le_bytes());
    b.extend_from_slice(&(factors.len() as u32).to_le_bytes());
    for m in factors {
        b.extend_from_slice(&(m.rows() as u64).to_le_bytes());
        for v in m.data() {
            b.extend_from_slice(&v.to_le_bytes());
        }
    }
    b.extend_from_slice(&(lambda.len() as u64).to_le_bytes());
    for v in lambda {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b.extend_from_slice(&(fits.len() as u64).to_le_bytes());
    for v in fits {
        b.extend_from_slice(&v.to_le_bytes());
    }
    let sum = fnv1a64(&b);
    b.extend_from_slice(&sum.to_le_bytes());
    b
}

/// Loads and validates one checkpoint file.
pub fn load(path: &Path) -> Result<CheckpointState, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::io(path, e))?;
    decode(&bytes, path)
}

/// Decodes one checkpoint from bytes, validating magic, version, and
/// the trailing checksum before trusting any length field.
pub fn decode(bytes: &[u8], path: &Path) -> Result<CheckpointState, CheckpointError> {
    let p = || path.display().to_string();
    // Header (4+4+8+8+4+4) + three zero-length sections (8·3) + checksum.
    if bytes.len() < 4 + 4 + 8 + 8 + 4 + 4 + 8 {
        return Err(CheckpointError::TooShort { path: p() });
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic { path: p() });
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let mut c = Cursor {
        bytes: payload,
        pos: 4,
        path,
    };
    let version = c.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion { path: p(), version });
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(sum_bytes);
    if fnv1a64(payload) != u64::from_le_bytes(sum) {
        return Err(CheckpointError::ChecksumMismatch { path: p() });
    }
    let seq = c.u64()?;
    let iteration = c.u64()? as usize;
    let rank = c.u32()? as usize;
    let order = c.u32()? as usize;
    let mut factors = Vec::with_capacity(order.min(8));
    for _ in 0..order {
        let rows = c.u64()? as usize;
        let n = rows
            .checked_mul(rank)
            .ok_or_else(|| c.malformed("factor size overflows"))?;
        let data = c.f32s(n)?;
        factors.push(Matrix::from_vec(rows, rank, data));
    }
    let lambda_len = c.u64()? as usize;
    let lambda = c.f32s(lambda_len)?;
    let fits_len = c.u64()? as usize;
    let fits = c.f64s(fits_len)?;
    if c.pos != payload.len() {
        return Err(c.malformed("trailing bytes after fits"));
    }
    Ok(CheckpointState {
        seq,
        iteration,
        factors,
        lambda,
        fits,
    })
}

/// Bounds-checked little-endian reader over a checkpoint payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl Cursor<'_> {
    fn malformed(&self, detail: &str) -> CheckpointError {
        CheckpointError::Malformed {
            path: self.path.display().to_string(),
            detail: detail.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.malformed("length field overruns the file"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(
            n.checked_mul(4)
                .ok_or_else(|| self.malformed("f32 count overflows"))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let raw = self.take(
            n.checked_mul(8)
                .ok_or_else(|| self.malformed("f64 count overflows"))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }
}

/// FNV-1a over bytes — the file checksum. Not cryptographic; it only
/// needs to make torn writes and bit rot self-evident.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sptk_ckpt_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_state() -> (Vec<Matrix>, Vec<f32>, Vec<f64>) {
        let factors = vec![
            Matrix::random(5, 4, 1),
            Matrix::random(6, 4, 2),
            Matrix::random(7, 4, 3),
        ];
        let lambda = vec![1.0, 0.5, 0.25, 0.125];
        let fits = vec![0.1, 0.4, 0.7];
        (factors, lambda, fits)
    }

    #[test]
    fn write_then_load_round_trips_exactly() {
        let dir = tmpdir("roundtrip");
        let mut store = CheckpointStore::open(&dir, "t").unwrap();
        let (factors, lambda, fits) = sample_state();
        let out = store.write(3, &factors, &lambda, &fits).unwrap();
        assert!(matches!(out, WriteOutcome::Written { seq: 0, .. }));
        let scan = store.latest_valid().unwrap();
        assert_eq!(scan.skipped, 0);
        let state = scan.state.unwrap();
        assert_eq!(state.seq, 0);
        assert_eq!(state.iteration, 3);
        assert_eq!(state.factors, factors);
        assert_eq!(state.lambda, lambda);
        assert_eq!(state.fits, fits);
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_tears_the_file_and_scan_skips_it() {
        let dir = tmpdir("crash");
        let plan = FaultPlan::parse("crash:1.0", 99).unwrap();
        let mut store = CheckpointStore::open(&dir, "job0")
            .unwrap()
            .with_crash_plan(Some(&plan));
        let (factors, lambda, fits) = sample_state();
        // Rate 1: every write crashes.
        let out = store.write(2, &factors, &lambda, &fits).unwrap();
        let WriteOutcome::Crashed { seq, torn_bytes } = out else {
            panic!("rate-1 crash plan must tear the write: {out:?}");
        };
        assert_eq!(seq, 0);
        let full = encode(0, 2, &factors, &lambda, &fits).len() as u64;
        assert!(torn_bytes < full, "torn file must be a strict prefix");
        // The torn file sits at the final path and fails validation.
        let err = load(&store.file_path(0)).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::TooShort { .. }
                    | CheckpointError::ChecksumMismatch { .. }
                    | CheckpointError::BadMagic { .. }
            ),
            "torn file must fail with a typed error, got {err:?}"
        );
        let scan = store.latest_valid().unwrap();
        assert!(scan.state.is_none());
        assert_eq!(scan.skipped, 1);

        // A clean write after the crash scans past the torn file.
        let mut clean = CheckpointStore::open(&dir, "job0").unwrap();
        assert_eq!(clean.next_seq, 1, "crashed seq is never reused");
        clean.write(4, &factors, &lambda, &fits).unwrap();
        let scan = clean.latest_valid().unwrap();
        assert_eq!(scan.state.unwrap().iteration, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_foreign_files_yield_typed_errors() {
        let dir = tmpdir("typed");
        let mut store = CheckpointStore::open(&dir, "t").unwrap();
        let (factors, lambda, fits) = sample_state();
        store.write(1, &factors, &lambda, &fits).unwrap();
        let path = store.file_path(0);
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        bytes[20] ^= 0xFF;
        assert!(matches!(
            decode(&bytes, &path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // Wrong magic.
        let mut bad = std::fs::read(&path).unwrap();
        bad[0] = b'X';
        assert!(matches!(
            decode(&bad, &path),
            Err(CheckpointError::BadMagic { .. })
        ));

        // Unsupported version (checksum re-stamped so version is reached).
        let mut vnext = std::fs::read(&path).unwrap();
        vnext[4..8].copy_from_slice(&2u32.to_le_bytes());
        let n = vnext.len() - 8;
        let sum = fnv1a64(&vnext[..n]);
        vnext[n..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&vnext, &path),
            Err(CheckpointError::UnsupportedVersion { version: 2, .. })
        ));

        // Truncation.
        assert!(matches!(
            decode(&bytes[..10], &path),
            Err(CheckpointError::TooShort { .. })
        ));

        // Errors display as human-readable messages naming the path.
        let msg = CheckpointError::ChecksumMismatch {
            path: "x.spck".to_string(),
        }
        .to_string();
        assert!(msg.contains("x.spck"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_returns_newest_valid_across_generations() {
        let dir = tmpdir("generations");
        let mut store = CheckpointStore::open(&dir, "t").unwrap();
        let (factors, lambda, _) = sample_state();
        for it in 1..=3usize {
            store
                .write(it, &factors, &lambda, &vec![0.1 * it as f64; it])
                .unwrap();
        }
        // Corrupt the newest file by hand; the scan falls back to seq 1.
        let newest = store.file_path(2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let scan = store.latest_valid().unwrap();
        assert_eq!(scan.skipped, 1);
        let state = scan.state.unwrap();
        assert_eq!(state.seq, 1);
        assert_eq!(state.iteration, 2);
        assert_eq!(state.fits.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
