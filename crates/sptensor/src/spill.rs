//! Bounded-memory ingestion: sorted spill runs + k-way merge.
//!
//! The external-sort half of the streaming pipeline. A [`TensorSource`]
//! is drained chunk by chunk; each chunk is sorted (coordinates under a
//! mode permutation, source line as the tie-break) and spilled to a run
//! file, so peak host memory is one chunk's working set regardless of
//! the tensor's size. A k-way merge over the runs then yields the
//! entries in globally sorted order, applying the [`DuplicatePolicy`]
//! with whole-stream semantics.
//!
//! Determinism contract: the (coords, line) sort key is a *total* order
//! (lines are unique), so the merged stream is byte-identical to
//! sorting the fully-resident tensor — chunk size and run count are
//! invisible. Sum folds duplicates in source order (the merge yields
//! equal coordinates by ascending line), matching the in-core fold's
//! accumulation order bit for bit.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::io::DuplicatePolicy;
use crate::key::CoordKey;
use crate::source::{CooChunk, IngestOptions, TensorSource};
use crate::{CooTensor, Index, TensorError, TensorResult, Value};

/// A rescannable producer of sorted, policy-applied entry chunks — the
/// input of the one CSF builder (`tensor_formats::Csf::build_streamed`),
/// which fills its tree in a single pass. Two producers exist: the
/// spill-run merge ([`MergeStream`]) for tensors that stay on disk, and
/// the argsort view ([`crate::SortedView`]) for resident ones. `rewind`
/// restarts the stream from the first entry, so a consumer reads the
/// whole stream whatever was read from it before.
pub trait SortedChunks {
    /// Mode extents of the underlying tensor.
    fn dims(&self) -> &[Index];

    /// Exact number of entries the full stream yields (post-policy).
    fn nnz(&self) -> u64;

    /// The mode permutation the stream is sorted under.
    fn perm(&self) -> &[usize];

    /// Clears `out` and fills it with up to `max_entries` entries in
    /// sorted order. Returns the count appended; `0` = exhausted.
    fn next_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize>;

    /// Restarts the stream from the beginning.
    fn rewind(&mut self) -> TensorResult<()>;
}

/// A tensor held as sorted spill runs on disk instead of resident
/// arrays. Produced by [`SpilledTensor::ingest`]; streamed (repeatedly)
/// through [`SpilledTensor::stream`]. The run directory is owned: it is
/// deleted when this value drops.
#[derive(Debug)]
pub struct SpilledTensor {
    dir: PathBuf,
    runs: Vec<PathBuf>,
    dims: Vec<Index>,
    perm: Vec<usize>,
    /// Post-policy entry count (exact; established by a validation merge).
    nnz: u64,
    policy: DuplicatePolicy,
    chunk_nnz: usize,
}

impl Drop for SpilledTensor {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl SpilledTensor {
    /// Drains `source` into sorted runs under `dir` (a fresh
    /// subdirectory is created and owned), sorted by the identity
    /// permutation, then runs one validation merge to fix the exact
    /// post-policy entry count — and to reject duplicates with the same
    /// typed error (and line number) the in-core path reports.
    pub fn ingest<S: TensorSource>(
        mut source: S,
        opts: &IngestOptions,
        dir: &Path,
    ) -> TensorResult<SpilledTensor> {
        let declared = source.declared_dims();
        let run_dir = fresh_subdir(dir, "ingest")?;
        let mut runs = Vec::new();
        let mut chunk = CooChunk::default();
        let mut order: Option<usize> = None;
        let mut maxima: Vec<Index> = Vec::new();
        let mut chunk_nnz = opts.effective_chunk_nnz(3);

        loop {
            let n = source.fill_chunk(chunk_nnz, &mut chunk)?;
            if n == 0 {
                break;
            }
            match order {
                None => {
                    order = Some(chunk.order());
                    maxima = vec![0; chunk.order()];
                    chunk_nnz = opts.effective_chunk_nnz(chunk.order());
                }
                Some(o) if o != chunk.order() => {
                    return Err(TensorError::invalid(
                        source.format_name(),
                        "source changed arity mid-stream",
                    ));
                }
                _ => {}
            }
            for (m, arr) in chunk.coords.iter().enumerate() {
                for &c in arr {
                    maxima[m] = maxima[m].max(c);
                }
            }
            let identity: Vec<usize> = (0..chunk.order()).collect();
            sort_chunk(&mut chunk, &identity);
            let path = run_dir.join(format!("run{:06}.bin", runs.len()));
            write_run(&chunk, &path)?;
            runs.push(path);
        }

        let dims = match declared {
            Some(d) => d,
            None => {
                let order = order.ok_or_else(|| {
                    TensorError::invalid(source.format_name(), "no data lines in input")
                })?;
                let mut dims = Vec::with_capacity(order);
                for &max in maxima.iter().take(order) {
                    let extent = max.checked_add(1).ok_or_else(|| {
                        TensorError::invalid(source.format_name(), "mode extent overflows u32")
                    })?;
                    dims.push(extent);
                }
                dims
            }
        };

        let mut spilled = SpilledTensor {
            dir: run_dir,
            runs,
            perm: (0..dims.len()).collect(),
            dims,
            nnz: 0,
            policy: opts.policy(),
            chunk_nnz,
        };
        spilled.nnz = spilled.validate_merge()?;
        Ok(spilled)
    }

    /// One full merge pass: counts post-policy entries and, under
    /// [`DuplicatePolicy::Reject`], reproduces the in-core duplicate
    /// error — the earliest (in source order) entry that collides with
    /// an earlier one, by line number.
    fn validate_merge(&self) -> TensorResult<u64> {
        let mut merge = RawMerge::open(&self.runs, self.dims.len(), &self.perm)?;
        let order = self.dims.len();
        // The current coordinate group: its coordinates (one reused
        // buffer) and the line of its first entry.
        let mut prev_coords = vec![0 as Index; order];
        let mut prev_line: Option<u64> = None;
        let mut count = 0u64;
        // Under Reject: min over coordinate groups of the group's second
        // occurrence line == the first file-order collision.
        let mut reject_at: Option<(u64, Vec<Index>)> = None;
        let mut coords = vec![0 as Index; order];
        while let Some((_v, line)) = merge.next_entry(&mut coords)? {
            let dup = prev_line.is_some() && prev_coords == coords;
            match (self.policy, dup) {
                (DuplicatePolicy::Keep, _) => count += 1,
                (_, false) => {
                    count += 1;
                    prev_coords.copy_from_slice(&coords);
                    prev_line = Some(line);
                }
                (DuplicatePolicy::Sum, true) => {}
                (DuplicatePolicy::Reject, true) => {
                    // Only the group's *second* entry matters; the merge
                    // yields groups in ascending line order, so record
                    // the first collision per group (the group's first
                    // line stays in `prev_line`, so the 3rd+ entries
                    // never beat the 2nd).
                    let second = line;
                    if reject_at.as_ref().map(|(l, _)| second < *l).unwrap_or(true)
                        && prev_line.is_some_and(|pl| pl < second)
                    {
                        reject_at = Some((second, coords.clone()));
                    }
                }
            }
        }
        if let Some((line, coords)) = reject_at {
            return Err(TensorError::duplicate(line as usize, coords));
        }
        Ok(count)
    }

    pub fn dims(&self) -> &[Index] {
        &self.dims
    }

    /// Post-policy entry count.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    pub fn policy(&self) -> DuplicatePolicy {
        self.policy
    }

    /// The mode permutation the runs are sorted under.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Opens a rescannable merged stream over the runs. Each call (and
    /// each `rewind`) re-reads the run files; nothing tensor-sized is
    /// resident.
    pub fn stream(&self) -> TensorResult<MergeStream<'_>> {
        MergeStream::open(self)
    }

    /// Externally re-sorts into a new spilled tensor ordered by `perm`
    /// (runs written next to the existing ones' parent under `dir`).
    /// The policy has already been applied, so the result streams with
    /// [`DuplicatePolicy::Keep`].
    pub fn resort(
        &self,
        perm: &[usize],
        dir: &Path,
        opts: &IngestOptions,
    ) -> TensorResult<SpilledTensor> {
        assert!(
            crate::dims::is_valid_perm(perm, self.dims.len()),
            "invalid mode permutation"
        );
        let run_dir = fresh_subdir(dir, "resort")?;
        let mut stream = self.stream()?;
        let mut chunk = CooChunk::default();
        let mut runs = Vec::new();
        let chunk_nnz = opts.effective_chunk_nnz(self.dims.len()).max(1);
        loop {
            let n = stream.next_chunk(chunk_nnz, &mut chunk)?;
            if n == 0 {
                break;
            }
            sort_chunk(&mut chunk, perm);
            let path = run_dir.join(format!("run{:06}.bin", runs.len()));
            write_run(&chunk, &path)?;
            runs.push(path);
        }
        Ok(SpilledTensor {
            dir: run_dir,
            runs,
            dims: self.dims.clone(),
            perm: perm.to_vec(),
            nnz: self.nnz,
            policy: DuplicatePolicy::Keep,
            chunk_nnz,
        })
    }

    /// Materializes the merged stream as a resident tensor (sorted by
    /// this spill's permutation). For overlap-sized data and tests.
    pub fn to_coo(&self) -> TensorResult<CooTensor> {
        let mut stream = self.stream()?;
        let order = self.dims.len();
        let mut inds: Vec<Vec<Index>> = vec![Vec::new(); order];
        let mut vals: Vec<Value> = Vec::new();
        let mut chunk = CooChunk::default();
        loop {
            let n = stream.next_chunk(self.chunk_nnz, &mut chunk)?;
            if n == 0 {
                break;
            }
            for (m, arr) in chunk.coords.iter().enumerate() {
                inds[m].extend_from_slice(arr);
            }
            vals.extend_from_slice(&chunk.vals);
        }
        Ok(CooTensor::from_parts(self.dims.clone(), inds, vals))
    }
}

/// Sorts a chunk's entries by their coordinates under `perm`, breaking
/// ties by source line — a total order, so the result is independent of
/// the sort algorithm. Coordinates compare through the packed key every
/// coordinate sort shares ([`CoordKey`]).
fn sort_chunk(chunk: &mut CooChunk, perm: &[usize]) {
    let mut order: Vec<u32> = (0..chunk.len() as u32).collect();
    let key = CoordKey::new(&chunk.coords, perm);
    let lines = &chunk.lines;
    order.sort_unstable_by(|&a, &b| {
        key.cmp(a, b)
            .then(lines[a as usize].cmp(&lines[b as usize]))
    });
    // Free the key before the gathers allocate.
    drop(key);
    for arr in &mut chunk.coords {
        let reordered: Vec<Index> = order.iter().map(|&i| arr[i as usize]).collect();
        *arr = reordered;
    }
    chunk.vals = order.iter().map(|&i| chunk.vals[i as usize]).collect();
    chunk.lines = order.iter().map(|&i| chunk.lines[i as usize]).collect();
}

fn fresh_subdir(dir: &Path, tag: &str) -> TensorResult<PathBuf> {
    for attempt in 0..10_000u32 {
        let candidate = dir.join(format!("spill-{tag}-{:04x}-{attempt}", std::process::id()));
        match std::fs::create_dir_all(candidate.parent().unwrap_or(dir)) {
            Ok(()) => {}
            Err(e) => return Err(TensorError::Io(e)),
        }
        match std::fs::create_dir(&candidate) {
            Ok(()) => return Ok(candidate),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(TensorError::Io(e)),
        }
    }
    Err(TensorError::invalid("spill", "cannot create run directory"))
}

// ---------------------------------------------------------------------
// Run files: row-major little-endian entries for sequential merge reads.
// ---------------------------------------------------------------------

fn write_run(chunk: &CooChunk, path: &Path) -> TensorResult<()> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    w.write_all(&(chunk.order() as u32).to_le_bytes())?;
    w.write_all(&(chunk.len() as u64).to_le_bytes())?;
    for i in 0..chunk.len() {
        for arr in &chunk.coords {
            w.write_all(&arr[i].to_le_bytes())?;
        }
        w.write_all(&chunk.vals[i].to_le_bytes())?;
        w.write_all(&chunk.lines[i].to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Sequential reader over one run file, one entry ahead.
struct RunReader {
    reader: BufReader<File>,
    remaining: u64,
    /// Current (front) entry, if any.
    coords: Vec<Index>,
    val: Value,
    line: u64,
    has: bool,
}

impl RunReader {
    fn open(path: &Path, order: usize) -> TensorResult<RunReader> {
        let mut reader = BufReader::with_capacity(1 << 20, File::open(path)?);
        let mut u32buf = [0u8; 4];
        reader.read_exact(&mut u32buf)?;
        let stored_order = u32::from_le_bytes(u32buf) as usize;
        if stored_order != order {
            return Err(TensorError::invalid("spill", "run order mismatch"));
        }
        let mut u64buf = [0u8; 8];
        reader.read_exact(&mut u64buf)?;
        let remaining = u64::from_le_bytes(u64buf);
        let mut r = RunReader {
            reader,
            remaining,
            coords: vec![0; order],
            val: 0.0,
            line: 0,
            has: false,
        };
        r.advance()?;
        Ok(r)
    }

    /// Loads the next entry into the front slot (or marks exhaustion).
    fn advance(&mut self) -> TensorResult<()> {
        if self.remaining == 0 {
            self.has = false;
            return Ok(());
        }
        let mut u32buf = [0u8; 4];
        for c in &mut self.coords {
            self.reader.read_exact(&mut u32buf)?;
            *c = u32::from_le_bytes(u32buf);
        }
        self.reader.read_exact(&mut u32buf)?;
        self.val = f32::from_le_bytes(u32buf);
        let mut u64buf = [0u8; 8];
        self.reader.read_exact(&mut u64buf)?;
        self.line = u64::from_le_bytes(u64buf);
        self.remaining -= 1;
        self.has = true;
        Ok(())
    }
}

/// K-way merge over run files in raw (coords, line) order — policy is
/// NOT applied here; [`MergeStream`] layers it on top. Run counts are
/// small (raw nnz / chunk size), so the min is found by linear scan:
/// allocation-free and branch-predictable.
struct RawMerge {
    readers: Vec<RunReader>,
    perm: Vec<usize>,
}

impl RawMerge {
    fn open(runs: &[PathBuf], order: usize, perm: &[usize]) -> TensorResult<RawMerge> {
        let readers = runs
            .iter()
            .map(|p| RunReader::open(p, order))
            .collect::<TensorResult<Vec<_>>>()?;
        Ok(RawMerge {
            readers,
            perm: perm.to_vec(),
        })
    }

    /// Pops the globally smallest entry into `coords`, returning its
    /// `(value, line)`; `None` when all runs are exhausted.
    fn next_entry(&mut self, coords: &mut [Index]) -> TensorResult<Option<(Value, u64)>> {
        let mut best: Option<usize> = None;
        for (i, r) in self.readers.iter().enumerate() {
            if !r.has {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if entry_lt(&self.readers[i], &self.readers[b], &self.perm) {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(b) = best else { return Ok(None) };
        let r = &mut self.readers[b];
        coords.copy_from_slice(&r.coords);
        let out = (r.val, r.line);
        r.advance()?;
        Ok(Some(out))
    }
}

fn entry_lt(a: &RunReader, b: &RunReader, perm: &[usize]) -> bool {
    for &m in perm {
        match a.coords[m].cmp(&b.coords[m]) {
            core::cmp::Ordering::Less => return true,
            core::cmp::Ordering::Greater => return false,
            core::cmp::Ordering::Equal => {}
        }
    }
    a.line < b.line
}

/// The policy-applied sorted stream over a [`SpilledTensor`]'s runs.
/// Implements [`SortedChunks`]: rescannable, chunk-size agnostic, and
/// byte-identical to sorting (and folding) the resident tensor.
pub struct MergeStream<'a> {
    owner: &'a SpilledTensor,
    merge: RawMerge,
    /// Value and line of the pending entry not yet emitted: the folded
    /// group (Sum) or the one-entry lookahead (all policies). Its
    /// coordinates live in `pending_coords`.
    pending: Option<(Value, u64)>,
    pending_coords: Vec<Index>,
    scratch: Vec<Index>,
}

impl<'a> MergeStream<'a> {
    fn open(owner: &'a SpilledTensor) -> TensorResult<MergeStream<'a>> {
        let merge = RawMerge::open(&owner.runs, owner.dims.len(), &owner.perm)?;
        Ok(MergeStream {
            owner,
            merge,
            pending: None,
            pending_coords: vec![0; owner.dims.len()],
            scratch: vec![0; owner.dims.len()],
        })
    }
}

impl SortedChunks for MergeStream<'_> {
    fn dims(&self) -> &[Index] {
        &self.owner.dims
    }

    fn nnz(&self) -> u64 {
        self.owner.nnz
    }

    fn perm(&self) -> &[usize] {
        &self.owner.perm
    }

    fn next_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        let order = self.owner.dims.len();
        out.reset(order);
        let fold = self.owner.policy == DuplicatePolicy::Sum;
        while out.len() < max_entries {
            match self.merge.next_entry(&mut self.scratch)? {
                None => {
                    if let Some((v, l)) = self.pending.take() {
                        out.push(&self.pending_coords, v, l);
                    }
                    break;
                }
                Some((v, line)) => match self.pending {
                    Some((pv, pl)) if fold && self.pending_coords == self.scratch => {
                        // Merge yields equal coordinates in ascending
                        // line order: the fold accumulates exactly as
                        // the in-core path does.
                        self.pending = Some((pv + v, pl));
                    }
                    held => {
                        if let Some((pv, pl)) = held {
                            out.push(&self.pending_coords, pv, pl);
                        }
                        std::mem::swap(&mut self.pending_coords, &mut self.scratch);
                        self.pending = Some((v, line));
                    }
                },
            }
        }
        Ok(out.len())
    }

    fn rewind(&mut self) -> TensorResult<()> {
        self.merge = RawMerge::open(&self.owner.runs, self.owner.dims.len(), &self.owner.perm)?;
        self.pending = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CooSource, TnsSource};
    use std::io::BufReader;

    fn tmp() -> PathBuf {
        let d = std::env::temp_dir().join(format!("sptensor_spill_{:x}", rand_tag()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rand_tag() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64
            ^ (std::process::id() as u64) << 32
    }

    #[test]
    fn spilled_equals_sorted_incore() {
        let t = crate::synth::uniform_random(&[12, 9, 14], 400, 5);
        let dir = tmp();
        for chunk in [1usize, 7, 1000] {
            let opts = IngestOptions::new()
                .with_policy(DuplicatePolicy::Keep)
                .with_chunk_nnz(chunk);
            let spilled = SpilledTensor::ingest(CooSource::new(t.clone()), &opts, &dir).unwrap();
            assert_eq!(spilled.nnz(), t.nnz() as u64);
            let back = spilled.to_coo().unwrap();
            // uniform_random output is already identity-sorted and
            // duplicate-free, so the merged stream reproduces it exactly.
            assert_eq!(back, t, "chunk {chunk}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_sum_matches_incore_sum_across_boundaries() {
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n1 2 3 0.25\n";
        let dir = tmp();
        for chunk in [1usize, 2, 3, 64] {
            let opts = IngestOptions::new()
                .with_policy(DuplicatePolicy::Sum)
                .with_chunk_nnz(chunk);
            let spilled =
                SpilledTensor::ingest(TnsSource::new(BufReader::new(text.as_bytes())), &opts, &dir)
                    .unwrap();
            assert_eq!(spilled.nnz(), 2);
            let back = spilled.to_coo().unwrap();
            assert_eq!(back.coords_of(0), vec![0, 1, 2]);
            assert_eq!(back.values(), &[1.0 + 4.0 + 0.25, 5.0], "chunk {chunk}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_reject_names_the_incore_line() {
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n2 2 2 1.0\n";
        let dir = tmp();
        for chunk in [1usize, 2, 64] {
            let opts = IngestOptions::new().with_chunk_nnz(chunk);
            let err =
                SpilledTensor::ingest(TnsSource::new(BufReader::new(text.as_bytes())), &opts, &dir)
                    .expect_err("duplicates must reject");
            match err {
                TensorError::Duplicate { line, ref coords } => {
                    assert_eq!(line, 3, "chunk {chunk}: first file-order collision");
                    assert_eq!(coords, &[0, 1, 2]);
                }
                other => panic!("expected Duplicate, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resort_orders_by_perm_and_rewinds() {
        let t = crate::synth::uniform_random(&[10, 11, 12], 300, 8);
        let dir = tmp();
        let opts = IngestOptions::new()
            .with_policy(DuplicatePolicy::Keep)
            .with_chunk_nnz(37);
        let spilled = SpilledTensor::ingest(CooSource::new(t.clone()), &opts, &dir).unwrap();
        let perm = vec![2usize, 0, 1];
        let resorted = spilled.resort(&perm, &dir, &opts).unwrap();
        let back = resorted.to_coo().unwrap();
        let mut expect = t.clone();
        expect.sort_by_perm(&perm);
        assert!(back.is_sorted_by_perm(&perm));
        assert_eq!(back.nnz(), expect.nnz());
        // Same multiset; equal coords may tie-break differently only if
        // duplicates exist (uniform_random folds them, so exact).
        assert_eq!(back, expect);

        // Multi-pass: rewind and re-read must reproduce the stream.
        let mut s = resorted.stream().unwrap();
        let mut a = CooChunk::default();
        let mut b = CooChunk::default();
        s.next_chunk(usize::MAX, &mut a).unwrap();
        s.rewind().unwrap();
        s.next_chunk(usize::MAX, &mut b).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sort_chunk_is_the_coords_then_line_order() {
        // A chunk knows no extents: its key fields come from the largest
        // coordinate present, here wider than 64 bits in total.
        let big = u32::MAX;
        let rows: [[Index; 4]; 6] = [
            [big, 0, 7, big - 1],
            [big - 1, 0, 7, big],
            [big, 0, 7, big - 1],
            [big, 0, 2, big],
            [0, 0, 7, big - 1],
            [big, 0, 7, 0],
        ];
        let mut expect: Vec<usize> = (0..rows.len()).collect();
        for perm in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let mut chunk = CooChunk::with_order(4);
            for (z, row) in rows.iter().enumerate() {
                chunk.push(row, z as Value, 100 - z as u64);
            }
            sort_chunk(&mut chunk, &perm);
            let key = |z: usize| (perm.map(|m| rows[z][m]), 100 - z as u64);
            expect.sort_by_key(|&z| key(z));
            let lines: Vec<u64> = expect.iter().map(|&z| 100 - z as u64).collect();
            assert_eq!(chunk.lines, lines, "perm {perm:?}");
            assert_eq!(chunk.coords_of(0), rows[expect[0]].to_vec());
        }
    }

    #[test]
    fn spilled_synth_source_is_bit_identical_to_batch_generate() {
        // The streaming pipeline's keystone: SynthSource → spill →
        // Sum-merge must reproduce DatasetSpec::generate exactly,
        // including the value-fold order of colliding coordinates.
        let cfg = crate::SynthConfig::tiny();
        let dir = tmp();
        for name in ["darpa", "fr_m", "uber"] {
            let spec = crate::synth::standin(name).unwrap();
            let batch = spec.generate(&cfg);
            for chunk in [997usize, 1 << 20] {
                let opts = IngestOptions::new()
                    .with_policy(DuplicatePolicy::Sum)
                    .with_chunk_nnz(chunk);
                let spilled = SpilledTensor::ingest(spec.source(&cfg), &opts, &dir).unwrap();
                assert_eq!(spilled.nnz(), batch.nnz() as u64, "{name} chunk {chunk}");
                let back = spilled.to_coo().unwrap();
                assert_eq!(back, batch, "{name} chunk {chunk}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
