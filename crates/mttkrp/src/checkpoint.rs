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
//! # File format (`SPCK`, version 2, little-endian)
//!
//! A schema over the [`sptensor::frame`] container:
//!
//! ```text
//! magic      4  b"SPCK"
//! version    u32   2
//! seq        u64   monotone write sequence within the store
//! iteration  u64   completed ALS iterations at checkpoint time
//! rank       u32
//! order      u32   number of factor matrices
//! per mode:  rows u64, then rows·rank f32 (row-major factor data)
//! lambda:    len u64, then len f32
//! fits:      len u64, then len f64 (the fit trajectory so far)
//! checksum   u64   the frame's trailer: FNV-1a over every preceding
//!                  byte, folded by little-endian words
//! ```
//!
//! Version 1 had the same fields under a byte-wise FNV-1a trailer.
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
use sptensor::frame::{FrameError, FrameReader, FrameWriter};
use sptensor::{TensorError, TensorResult};

/// Format magic: the first four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SPCK";
/// Current (and only readable) format version.
pub const CHECKPOINT_VERSION: u32 = 2;

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
    /// The file is torn, corrupt, foreign or of another version.
    Frame { path: String, error: FrameError },
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
            CheckpointError::Frame { path, error } => write!(f, "checkpoint {path}: {error}"),
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
        let path = self.file_path(seq);
        let bytes = encode(seq, iteration, factors, lambda, fits)
            .map_err(|e| CheckpointError::io(&path, e))?;
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
fn encode(
    seq: u64,
    iteration: usize,
    factors: &[Matrix],
    lambda: &[f32],
    fits: &[f64],
) -> std::io::Result<Vec<u8>> {
    let rank = factors.first().map_or(0, |m| m.cols());
    let mut w = FrameWriter::new(Vec::new(), &CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    w.u64(seq)?;
    w.u64(iteration as u64)?;
    w.u32(rank as u32)?;
    w.u32(factors.len() as u32)?;
    for m in factors {
        w.u64(m.rows() as u64)?;
        w.u32s(m.data().iter().map(|v| v.to_bits()))?;
    }
    w.u64(lambda.len() as u64)?;
    w.u32s(lambda.iter().map(|v| v.to_bits()))?;
    w.u64(fits.len() as u64)?;
    for v in fits {
        w.u64(v.to_bits())?;
    }
    w.finish()
}

/// Loads and validates one checkpoint file.
pub fn load(path: &Path) -> Result<CheckpointState, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::io(path, e))?;
    decode(&bytes, path)
}

/// Decodes one checkpoint from bytes: every length field is checked
/// against the bytes left before it is trusted, and the trailing
/// checksum before the state is returned.
pub fn decode(bytes: &[u8], path: &Path) -> Result<CheckpointState, CheckpointError> {
    read_state(bytes).map_err(|e| {
        let path = path.display().to_string();
        match e {
            TensorError::Frame(error) => CheckpointError::Frame { path, error },
            other => CheckpointError::Io {
                path,
                detail: other.to_string(),
            },
        }
    })
}

fn read_state(bytes: &[u8]) -> TensorResult<CheckpointState> {
    let mut r = FrameReader::new(
        bytes,
        bytes.len() as u64,
        &CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
    )?;
    let seq = r.u64()?;
    let iteration = r.u64()? as usize;
    let rank = r.u32()?;
    let order = r.u32()?;
    let mut factors = Vec::new();
    for _ in 0..order {
        let rows = r.u64()?;
        let data = r.f32s(rows.saturating_mul(u64::from(rank)))?;
        factors.push(Matrix::from_vec(rows as usize, rank as usize, data));
    }
    let n = r.u64()?;
    let lambda = r.f32s(n)?;
    let n = r.u64()?;
    let fits = r.f64s(n)?;
    r.finish()?;
    Ok(CheckpointState {
        seq,
        iteration,
        factors,
        lambda,
        fits,
    })
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
        let full = encode(0, 2, &factors, &lambda, &fits).unwrap().len() as u64;
        assert!(torn_bytes < full, "torn file must be a strict prefix");
        // The torn file sits at the final path and fails validation.
        let err = load(&store.file_path(0)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Frame { .. }),
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

        let frame_err = |bytes: &[u8]| match decode(bytes, &path) {
            Err(CheckpointError::Frame { error, .. }) => error,
            other => panic!("expected a frame error, got {other:?}"),
        };

        // Flip one payload byte: checksum mismatch.
        bytes[20] ^= 0xFF;
        assert_eq!(frame_err(&bytes), FrameError::Checksum);

        // Wrong magic.
        let mut bad = std::fs::read(&path).unwrap();
        bad[0] = b'X';
        assert!(matches!(frame_err(&bad), FrameError::BadMagic));

        // Unsupported version (checksum re-stamped so version is reached).
        let mut vnext = std::fs::read(&path).unwrap();
        vnext[4..8].copy_from_slice(&3u32.to_le_bytes());
        let n = vnext.len() - 8;
        let mut fold = sptensor::frame::WordFold::default();
        fold.update(&vnext[..n]);
        vnext[n..].copy_from_slice(&fold.value().to_le_bytes());
        assert!(matches!(
            frame_err(&vnext),
            FrameError::UnsupportedVersion(3)
        ));

        // Truncation.
        assert!(matches!(frame_err(&bytes[..10]), FrameError::Length { .. }));

        // Errors display as human-readable messages naming the path.
        let msg = CheckpointError::Frame {
            path: "x.spck".to_string(),
            error: FrameError::Checksum,
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
