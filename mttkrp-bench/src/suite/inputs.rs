//! Generated `.tns` inputs, cached on disk by (dataset, nnz, row cap,
//! seed).
//!
//! Generation streams the stand-in's raw entries — duplicates included —
//! straight to text, so every workload starts from bytes on disk and its
//! parse folds duplicates like a real FROSTT load would. Generation is
//! never timed.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sptensor::io::write_tns_chunk;
use sptensor::synth::standin;
use sptensor::{CooChunk, Index, StructuredEntries, SynthSource, TensorSource};

/// Path of the cached input, generating it first when absent. The
/// stand-in's scaled extents are clamped to `max_rows`, which bounds the
/// factor matrices and so the dense algebra per ALS update.
pub fn ensure(
    dir: &Path,
    dataset: &str,
    nnz: usize,
    max_rows: Index,
    seed: u64,
) -> Result<PathBuf, String> {
    let stem = format!("{dataset}-{nnz}-{max_rows}-{seed}");
    let path = dir.join(format!("{stem}.tns"));
    if path.exists() {
        return Ok(path);
    }
    let spec = standin(dataset).ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
    let dims: Vec<Index> = spec
        .scaled_dims(nnz)
        .into_iter()
        .map(|d| d.min(max_rows))
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Written under a private name and renamed into place, so an
    // interrupted run never leaves a truncated input behind.
    let tmp = dir.join(format!(".{stem}.{}", std::process::id()));
    let io = |e: std::io::Error| format!("{}: {e}", tmp.display());
    let mut w = BufWriter::with_capacity(1 << 20, File::create(&tmp).map_err(io)?);
    let entries = StructuredEntries::new(
        &dims,
        nnz,
        &spec.structure_params(),
        ChaCha8Rng::seed_from_u64(seed),
    );
    let mut source = SynthSource::new(entries);
    let mut chunk = CooChunk::default();
    loop {
        let n = source
            .fill_chunk(1 << 16, &mut chunk)
            .map_err(|e| format!("generate {dataset}: {e}"))?;
        if n == 0 {
            break;
        }
        write_tns_chunk(&chunk, n, &mut w).map_err(io)?;
    }
    w.flush().map_err(io)?;
    drop(w);
    std::fs::rename(&tmp, &path).map_err(io)?;
    Ok(path)
}
