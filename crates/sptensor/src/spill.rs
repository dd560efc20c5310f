//! Bounded-memory ingestion: sorted spill runs + k-way merge.
//!
//! The external-sort half of the streaming pipeline. Ingest drains a
//! [`TensorSource`] chunk by chunk; each chunk is sorted (coordinates in
//! mode order, arrival as the tie-break) and spilled to a raw run whose
//! records also carry each entry's source line, so peak host memory is
//! one chunk's working set whatever the tensor's size. One merge over the
//! raw runs applies the [`DuplicatePolicy`] with whole-stream semantics
//! and writes the result as one packed run; the raw runs are then
//! deleted.
//!
//! Every run record has one format: the entry's coordinates packed into
//! a `u64` key under a key layout (the longest prefix of the mode order
//! whose fields fit), the remaining tail modes as `u32`, then the value,
//! and in a raw run the line. A raw run's layout gives every field 32
//! bits, since the maxima are not known yet: `4·order + 12` B per record
//! from order 2. A [`SpilledTensor`]'s runs size each field by the
//! largest coordinate of its mode: 12 B for a 3-mode tensor whose fields
//! fit, and never more than the raw record. [`SpilledTensor::resort`]
//! re-packs each key under another order and sorts the records as they
//! are, without decoding them into chunks. [`MergeStream`] applies no
//! policy; only the raw merge does.
//!
//! Determinism contract: every merge breaks ties by the lower run index,
//! and every run is a consecutive slice of its input, sorted stably. A
//! source's lines ascend in the order it yields entries, so entries with
//! equal coordinates leave every merge in line order: the policy-applied
//! stream is the one a stable sort of the fully-resident tensor gives,
//! whatever the chunk size and run count. `Sum` folds duplicates in
//! ascending line order, as the in-core fold does, and a re-sort keeps
//! `Keep` duplicates in that order.

use core::cmp::Ordering;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::io::DuplicatePolicy;
use crate::key::{cmp_under, KeyLayout};
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

/// A scratch directory owned from the moment it is created: dropping it
/// removes the directory and everything in it, on success and on error.
#[derive(Debug)]
struct RunDir(PathBuf);

impl RunDir {
    /// Creates a fresh `spill-{tag}-…` subdirectory of `dir`.
    fn create(dir: &Path, tag: &str) -> TensorResult<RunDir> {
        std::fs::create_dir_all(dir)?;
        for attempt in 0..10_000u32 {
            let candidate = dir.join(format!("spill-{tag}-{:04x}-{attempt}", std::process::id()));
            match std::fs::create_dir(&candidate) {
                Ok(()) => return Ok(RunDir(candidate)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(TensorError::Io(e)),
            }
        }
        Err(TensorError::invalid("spill", "cannot create run directory"))
    }

    fn file(&self, name: &str, i: usize) -> PathBuf {
        self.0.join(format!("{name}{i:06}.bin"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A tensor held as sorted, packed spill runs on disk instead of resident
/// arrays. Produced by [`SpilledTensor::ingest`]; streamed (repeatedly)
/// through [`SpilledTensor::stream`]. The run directory is owned: it is
/// deleted when this value drops.
#[derive(Debug)]
pub struct SpilledTensor {
    /// Held for its `Drop`: the runs live in it.
    _dir: RunDir,
    runs: Vec<PathBuf>,
    dims: Vec<Index>,
    /// Largest coordinate present per mode: sizes every layout's fields.
    maxima: Vec<Index>,
    perm: Vec<usize>,
    /// How the runs' records pack coordinates under `perm`.
    layout: KeyLayout,
    /// Post-policy entry count.
    nnz: u64,
    chunk_nnz: usize,
}

impl SpilledTensor {
    /// Drains `source` into raw sorted runs under `dir` (a fresh
    /// subdirectory is created and owned), then merges them once: the
    /// merge applies the duplicate policy — rejecting duplicates with the
    /// same typed error (and line number) the in-core path reports — and
    /// writes the result as one packed run in identity order.
    pub fn ingest<S: TensorSource>(
        mut source: S,
        opts: &IngestOptions,
        dir: &Path,
    ) -> TensorResult<SpilledTensor> {
        let declared = source.declared_dims();
        let run_dir = RunDir::create(dir, "ingest")?;
        let mut raw = Vec::new();
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
            let path = run_dir.file("raw", raw.len());
            write_raw_run(&chunk, &sorted_positions(&chunk, &identity), &path)?;
            raw.push(path);
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
        drop(chunk);
        maxima.resize(dims.len(), 0);
        let perm: Vec<usize> = (0..dims.len()).collect();
        let layout = KeyLayout::new(&maxima, &perm);
        let run = run_dir.file("run", 0);
        let nnz = apply_policy(&raw, dims.len(), opts.policy(), &layout, &run)?;
        for path in &raw {
            std::fs::remove_file(path)?;
        }
        Ok(SpilledTensor {
            _dir: run_dir,
            runs: vec![run],
            dims,
            maxima,
            perm,
            layout,
            nnz,
            chunk_nnz,
        })
    }

    pub fn dims(&self) -> &[Index] {
        &self.dims
    }

    /// Post-policy entry count.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The mode permutation the runs are sorted under.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Bytes of this tensor's run files: their headers and records.
    pub fn bytes_on_disk(&self) -> u64 {
        let rec = record_len(&self.layout, false) as u64;
        self.runs.len() as u64 * HEADER_LEN as u64 + self.nnz * rec
    }

    /// Opens a rescannable merged stream over the runs. Each call (and
    /// each `rewind`) re-reads the run files; nothing tensor-sized is
    /// resident.
    pub fn stream(&self) -> TensorResult<MergeStream<'_>> {
        MergeStream::open(self)
    }

    fn merge(&self) -> TensorResult<Merge> {
        Merge::open(&self.runs, self.dims.len(), &self.layout, false)
    }

    /// Externally re-sorts into a new spilled tensor ordered by `perm`,
    /// with its runs in a fresh subdirectory of `dir`. Each record read
    /// from the merge gets its key re-packed under `perm`; each chunk of
    /// records is sorted stably by (key, tail) and written as a run.
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
        let order = self.dims.len();
        let run_dir = RunDir::create(dir, "resort")?;
        let layout = KeyLayout::new(&self.maxima, perm);
        let width = layout.tail().len();
        let chunk_nnz = opts.effective_chunk_nnz(order).clamp(1, u32::MAX as usize);
        let mut merge = self.merge()?;
        let mut coords = vec![0; order];
        let mut src_tail = vec![0; self.layout.tail().len()];
        // Per entry of a chunk: its new key with its position, its tail
        // coordinates (`width` each) and its value.
        let cap = chunk_nnz.min(self.nnz as usize);
        let mut keys: Vec<(u64, u32)> = Vec::with_capacity(cap);
        let mut tails: Vec<Index> = Vec::with_capacity(cap * width);
        let mut vals: Vec<Value> = Vec::with_capacity(cap);
        let mut runs = Vec::new();
        loop {
            keys.clear();
            tails.clear();
            vals.clear();
            while vals.len() < chunk_nnz {
                let Some((key, val, _)) = merge.pop(&mut src_tail)? else {
                    break;
                };
                self.layout.unpack(key, &src_tail, &mut coords);
                keys.push((layout.pack(|m| coords[m]), vals.len() as u32));
                tails.extend(layout.tail().iter().map(|&m| coords[m]));
                vals.push(val);
            }
            if vals.is_empty() {
                break;
            }
            let tail = |i: u32| &tails[i as usize * width..][..width];
            sort_keyed(&mut keys, width > 0, |a, b| tail(a).cmp(tail(b)));
            let path = run_dir.file("run", runs.len());
            let mut run = RunWriter::create(&path, order, record_len(&layout, false))?;
            for &(key, i) in &keys {
                let rec = run.record()?;
                encode(rec, key, tail(i).iter().copied(), vals[i as usize], None);
            }
            run.finish()?;
            runs.push(path);
        }
        Ok(SpilledTensor {
            _dir: run_dir,
            runs,
            dims: self.dims.clone(),
            maxima: self.maxima.clone(),
            perm: perm.to_vec(),
            layout,
            nnz: self.nnz,
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

/// The one merge over the raw runs. It applies `policy` with whole-stream
/// semantics and writes the result to `out` as one packed run under
/// `layout`, returning its entry count. Equal coordinates arrive in
/// ascending line order, so `Sum` folds as the in-core path does. Under
/// [`DuplicatePolicy::Reject`] it returns the in-core path's duplicate
/// error instead: the earliest (in source order) entry that collides with
/// an earlier one, by line number.
fn apply_policy(
    raw: &[PathBuf],
    order: usize,
    policy: DuplicatePolicy,
    layout: &KeyLayout,
    out: &Path,
) -> TensorResult<u64> {
    let wide = raw_layout(order);
    let mut merge = Merge::open(raw, order, &wide, true)?;
    let mut run = RunWriter::create(out, order, record_len(layout, false))?;
    let mut write = |coords: &[Index], val: Value| -> TensorResult<()> {
        let key = layout.pack(|m| coords[m]);
        let tail = layout.tail().iter().map(|&m| coords[m]);
        encode(run.record()?, key, tail, val, None);
        Ok(())
    };
    // The current coordinate group: its coordinates and its value so far.
    let mut group = vec![0; order];
    let mut pending: Option<Value> = None;
    let mut coords = vec![0; order];
    let mut tail = vec![0; wide.tail().len()];
    // Under Reject: the smallest line of any entry that repeats its
    // group's coordinates — each group's second entry is its smallest.
    let mut reject_at: Option<(u64, Vec<Index>)> = None;
    while let Some((key, v, line)) = merge.pop(&mut tail)? {
        wide.unpack(key, &tail, &mut coords);
        match pending {
            Some(pv) if policy != DuplicatePolicy::Keep && coords == group => {
                if policy == DuplicatePolicy::Sum {
                    pending = Some(pv + v);
                } else if reject_at.as_ref().is_none_or(|(l, _)| line < *l) {
                    reject_at = Some((line, coords.clone()));
                }
            }
            held => {
                if let Some(pv) = held {
                    write(&group, pv)?;
                }
                std::mem::swap(&mut group, &mut coords);
                pending = Some(v);
            }
        }
    }
    if let Some(pv) = pending {
        write(&group, pv)?;
    }
    if let Some((line, coords)) = reject_at {
        return Err(TensorError::duplicate(line as usize, coords));
    }
    run.finish()
}

/// The positions of a chunk's entries sorted by their coordinates under
/// `perm`, equal coordinates in arrival order. Each entry's key, in a
/// layout sized from the chunk's own maxima, is sorted with its position.
fn sorted_positions(chunk: &CooChunk, perm: &[usize]) -> Vec<u32> {
    let cols = &chunk.coords;
    let layout = KeyLayout::of_columns(cols, perm);
    let mut order: Vec<(u64, u32)> = (0..chunk.len() as u32)
        .map(|i| (layout.pack(|m| cols[m][i as usize]), i))
        .collect();
    let tail = layout.tail();
    sort_keyed(&mut order, !tail.is_empty(), |a, b| {
        cmp_under(cols, tail, a, b)
    });
    order.into_iter().map(|(_, i)| i).collect()
}

/// Sorts `(key, position)` pairs by key, then by `cmp_tail` of the two
/// positions when `has_tail`, then by position. That is a total order,
/// so the result is the stable sort by (key, tail) whatever the
/// algorithm; without a tail the pairs sort as plain integers.
fn sort_keyed(pairs: &mut [(u64, u32)], has_tail: bool, cmp_tail: impl Fn(u32, u32) -> Ordering) {
    if has_tail {
        pairs.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| cmp_tail(a.1, b.1))
                .then(a.1.cmp(&b.1))
        });
    } else {
        pairs.sort_unstable();
    }
}

// ---------------------------------------------------------------------
// Run files: a header (order, entry count), then whole little-endian
// records for sequential merge reads. A record is the entry's key under
// the run's layout, its tail coordinates and its value; a raw run's
// records end with the source line.
// ---------------------------------------------------------------------

const HEADER_LEN: usize = 12;

/// The layout of raw runs: written before the maxima are known, so every
/// field is 32 bits wide — the first two modes in the key, the rest in
/// the tail: `4·order + 12` B per record with the line, from order 2.
fn raw_layout(order: usize) -> KeyLayout {
    let identity: Vec<usize> = (0..order).collect();
    KeyLayout::new(&vec![Index::MAX; order], &identity)
}

/// Bytes of one record under `layout`, with the line if `raw`.
fn record_len(layout: &KeyLayout, raw: bool) -> usize {
    12 + 4 * layout.tail().len() + if raw { 8 } else { 0 }
}

/// Encodes one record into `rec`, which is exactly one record long:
/// the key, the tail coordinates, the value, then the line if given.
fn encode(
    rec: &mut [u8],
    key: u64,
    tail: impl Iterator<Item = Index>,
    val: Value,
    line: Option<u64>,
) {
    let (k, rest) = rec.split_at_mut(8);
    k.copy_from_slice(&key.to_le_bytes());
    let (t, rest) = rest.split_at_mut(rest.len() - if line.is_some() { 12 } else { 4 });
    for (b, c) in t.chunks_exact_mut(4).zip(tail) {
        b.copy_from_slice(&c.to_le_bytes());
    }
    let (v, l) = rest.split_at_mut(4);
    v.copy_from_slice(&val.to_le_bytes());
    if let Some(line) = line {
        l.copy_from_slice(&line.to_le_bytes());
    }
}

/// Writes a raw run: the chunk's entries at `positions`, with their lines.
fn write_raw_run(chunk: &CooChunk, positions: &[u32], path: &Path) -> TensorResult<()> {
    let layout = raw_layout(chunk.order());
    let mut run = RunWriter::create(path, chunk.order(), record_len(&layout, true))?;
    for &i in positions {
        let coord = |m: usize| chunk.coords[m][i as usize];
        let tail = layout.tail().iter().map(|&m| coord(m));
        let (val, line) = (chunk.vals[i as usize], chunk.lines[i as usize]);
        encode(run.record()?, layout.pack(coord), tail, val, Some(line));
    }
    run.finish()?;
    Ok(())
}

/// Writes one run file. Records are encoded into one reused buffer of
/// about 1 MiB, which is written whenever it holds no room for another
/// whole record; the header's count is written last.
struct RunWriter {
    file: File,
    order: usize,
    rec: usize,
    buf: Vec<u8>,
    used: usize,
    count: u64,
}

impl RunWriter {
    fn create(path: &Path, order: usize, rec: usize) -> TensorResult<RunWriter> {
        let mut file = File::create(path)?;
        file.write_all(&[0; HEADER_LEN])?;
        Ok(RunWriter {
            file,
            order,
            rec,
            buf: vec![0; ((1 << 20) / rec).max(1) * rec],
            used: 0,
            count: 0,
        })
    }

    /// The next record's bytes, for the caller to fill.
    fn record(&mut self) -> TensorResult<&mut [u8]> {
        if self.used == self.buf.len() {
            self.file.write_all(&self.buf)?;
            self.used = 0;
        }
        let start = self.used;
        self.used += self.rec;
        self.count += 1;
        Ok(&mut self.buf[start..self.used])
    }

    /// Writes what is buffered and the header; returns the entry count.
    fn finish(mut self) -> TensorResult<u64> {
        self.file.write_all(&self.buf[..self.used])?;
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&(self.order as u32).to_le_bytes());
        header[4..].copy_from_slice(&self.count.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        Ok(self.count)
    }
}

/// Sequential reader over one run file's records.
struct RunReader {
    reader: BufReader<File>,
    remaining: u64,
    /// The last record read, whole.
    rec: Vec<u8>,
}

impl RunReader {
    /// Opens a run of `rec`-byte records over `order` modes. The
    /// header's order must match, and its count must account for the
    /// file's length exactly; nothing is sized from the header.
    fn open(path: &Path, order: usize, rec: usize) -> TensorResult<RunReader> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(1 << 20, file);
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header)?;
        let stored_order = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        if stored_order as usize != order {
            return Err(TensorError::invalid("spill", "run order mismatch"));
        }
        let count = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        let want = count
            .checked_mul(rec as u64)
            .and_then(|b| b.checked_add(HEADER_LEN as u64));
        if want != Some(len) {
            return Err(TensorError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("spill run holds {len} bytes, its header counts {count} records"),
            )));
        }
        Ok(RunReader {
            reader,
            remaining: count,
            rec: vec![0; rec],
        })
    }

    /// Reads the next record into `rec`; `false` once the run is done.
    fn next(&mut self) -> TensorResult<bool> {
        if self.remaining == 0 {
            return Ok(false);
        }
        self.reader.read_exact(&mut self.rec)?;
        self.remaining -= 1;
        Ok(true)
    }
}

/// A run's front record, decoded.
struct Front {
    run: RunReader,
    key: u64,
    tail: Vec<Index>,
    val: Value,
    /// The source line in a raw run; 0 otherwise.
    line: u64,
}

impl Front {
    /// Decodes the next record; `false` once the run is done.
    fn advance(&mut self) -> TensorResult<bool> {
        if !self.run.next()? {
            return Ok(false);
        }
        let (key, rest) = self.run.rec.split_at(8);
        self.key = u64::from_le_bytes(key.try_into().expect("8 bytes"));
        let (tail, rest) = rest.split_at(4 * self.tail.len());
        for (c, b) in self.tail.iter_mut().zip(tail.chunks_exact(4)) {
            *c = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        }
        let (val, line) = rest.split_at(4);
        self.val = f32::from_le_bytes(val.try_into().expect("4 bytes"));
        if let Ok(line) = line.try_into() {
            self.line = u64::from_le_bytes(line);
        }
        Ok(true)
    }
}

/// K-way merge over runs of one layout: by key, then tail, then the lower
/// run index. Run counts are small (entries over chunk size), so a linear
/// scan over the fronts finds the smallest. Exhausted runs leave the
/// front list, which keeps the rest in run order.
struct Merge {
    fronts: Vec<Front>,
}

impl Merge {
    fn open(runs: &[PathBuf], order: usize, layout: &KeyLayout, raw: bool) -> TensorResult<Merge> {
        let mut fronts = Vec::with_capacity(runs.len());
        for path in runs {
            let mut f = Front {
                run: RunReader::open(path, order, record_len(layout, raw))?,
                key: 0,
                tail: vec![0; layout.tail().len()],
                val: 0.0,
                line: 0,
            };
            if f.advance()? {
                fronts.push(f);
            }
        }
        Ok(Merge { fronts })
    }

    /// Pops the smallest record: copies its tail into `tail` and returns
    /// its `(key, value, line)`; `None` when all runs are exhausted.
    fn pop(&mut self, tail: &mut [Index]) -> TensorResult<Option<(u64, Value, u64)>> {
        let mut best = 0;
        for (i, f) in self.fronts.iter().enumerate().skip(1) {
            let b = &self.fronts[best];
            if (f.key, &f.tail) < (b.key, &b.tail) {
                best = i;
            }
        }
        let Some(f) = self.fronts.get_mut(best) else {
            return Ok(None);
        };
        tail.copy_from_slice(&f.tail);
        let out = (f.key, f.val, f.line);
        if !f.advance()? {
            self.fronts.remove(best);
        }
        Ok(Some(out))
    }
}

/// The sorted stream over a [`SpilledTensor`]'s runs. Implements
/// [`SortedChunks`]: rescannable and chunk-size agnostic. Each entry's
/// `line` in the chunks it fills is its ordinal in the stream.
pub struct MergeStream<'a> {
    owner: &'a SpilledTensor,
    merge: Merge,
    tail: Vec<Index>,
    coords: Vec<Index>,
    /// Entries yielded since the stream (re)started.
    yielded: u64,
}

impl<'a> MergeStream<'a> {
    fn open(owner: &'a SpilledTensor) -> TensorResult<MergeStream<'a>> {
        Ok(MergeStream {
            owner,
            merge: owner.merge()?,
            tail: vec![0; owner.layout.tail().len()],
            coords: vec![0; owner.dims.len()],
            yielded: 0,
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
        out.reset(self.owner.dims.len());
        while out.len() < max_entries {
            let Some((key, val, _)) = self.merge.pop(&mut self.tail)? else {
                break;
            };
            self.owner.layout.unpack(key, &self.tail, &mut self.coords);
            out.push(&self.coords, val, self.yielded);
            self.yielded += 1;
        }
        Ok(out.len())
    }

    fn rewind(&mut self) -> TensorResult<()> {
        self.merge = self.owner.merge()?;
        self.yielded = 0;
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
    fn order_six_resort_round_trips_over_several_runs() {
        let t = crate::synth::uniform_random(&[5, 6, 4, 7, 3, 5], 900, 21);
        let dir = tmp();
        let opts = IngestOptions::new()
            .with_policy(DuplicatePolicy::Keep)
            .with_chunk_nnz(64);
        let spilled = SpilledTensor::ingest(CooSource::new(t.clone()), &opts, &dir).unwrap();
        // Ingest merges its 15 raw runs into one packed run.
        assert_eq!(spilled.runs.len(), 1);
        assert_eq!(spilled.to_coo().unwrap(), t);
        for perm in [vec![5usize, 4, 3, 2, 1, 0], vec![2, 0, 5, 1, 4, 3]] {
            let resorted = spilled.resort(&perm, &dir, &opts).unwrap();
            assert!(resorted.runs.len() > 1);
            let mut expect = t.clone();
            expect.sort_by_perm(&perm);
            assert_eq!(resorted.to_coo().unwrap(), expect, "perm {perm:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The bytes of a packed run: the header, then per entry the key as
    /// `u64`, the tail coordinates as `u32` and the value.
    fn packed_bytes(order: u32, entries: &[(u64, &[Index], Value)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&order.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for &(key, tail, val) in entries {
            out.extend_from_slice(&key.to_le_bytes());
            for c in tail {
                out.extend_from_slice(&c.to_le_bytes());
            }
            out.extend_from_slice(&val.to_le_bytes());
        }
        out
    }

    #[test]
    fn run_file_is_header_then_whole_records() {
        let dir = tmp();
        let opts = IngestOptions::new()
            .with_policy(DuplicatePolicy::Keep)
            .with_chunk_nnz(1);

        // Fields of 3, 2 and 4 bits fit in the key: 12 B per record.
        let t = CooTensor::from_parts(
            vec![6, 3, 10],
            vec![vec![5, 1], vec![2, 0], vec![3, 9]],
            vec![1.5, -2.0],
        );
        let spilled = SpilledTensor::ingest(CooSource::new(t), &opts, &dir).unwrap();
        let expect = packed_bytes(
            3,
            &[(1 << 6 | 9, &[], -2.0), (5 << 6 | 2 << 4 | 3, &[], 1.5)],
        );
        assert_eq!(spilled.runs.len(), 1);
        assert_eq!(std::fs::read(&spilled.runs[0]).unwrap(), expect);
        assert_eq!(spilled.bytes_on_disk(), expect.len() as u64);

        // Fields of 32, 1 and 32 bits do not: modes 2 and 3 form the tail.
        let big = u32::MAX - 1;
        let t = CooTensor::from_parts(
            vec![u32::MAX, 2, u32::MAX, 7],
            vec![vec![big, 3], vec![1, 0], vec![4, big], vec![6, 0]],
            vec![0.5, 7.0],
        );
        let spilled = SpilledTensor::ingest(CooSource::new(t), &opts, &dir).unwrap();
        let expect = packed_bytes(
            4,
            &[
                (3 << 1, &[big, 0], 7.0),
                (u64::from(big) << 1 | 1, &[4, 6], 0.5),
            ],
        );
        assert_eq!(std::fs::read(&spilled.runs[0]).unwrap(), expect);

        // Under [2, 3, 0, 1] the key holds modes 2 and 3 (32 + 3 bits),
        // and each one-entry chunk is its own run.
        let resorted = spilled.resort(&[2, 3, 0, 1], &dir, &opts).unwrap();
        let runs: Vec<Vec<u8>> = resorted
            .runs
            .iter()
            .map(|p| std::fs::read(p).unwrap())
            .collect();
        assert_eq!(
            runs,
            [
                packed_bytes(4, &[(u64::from(big) << 3, &[3, 0], 7.0)]),
                packed_bytes(4, &[(4 << 3 | 6, &[big, 1], 0.5)]),
            ]
        );
        assert_eq!(resorted.bytes_on_disk(), 2 * 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A spill whose one run's header is overwritten with `header`.
    fn spill_with_header(dir: &Path, header: impl Fn(&mut [u8])) -> SpilledTensor {
        let t = crate::synth::uniform_random(&[10, 11, 12], 300, 8);
        let opts = IngestOptions::new().with_policy(DuplicatePolicy::Keep);
        let spilled = SpilledTensor::ingest(CooSource::new(t), &opts, dir).unwrap();
        let mut bytes = std::fs::read(&spilled.runs[0]).unwrap();
        header(&mut bytes[..HEADER_LEN]);
        std::fs::write(&spilled.runs[0], bytes).unwrap();
        spilled
    }

    #[test]
    fn header_counting_past_the_file_is_a_typed_error() {
        let dir = tmp();
        // A count no file could hold: any allocation sized from it
        // would abort the test.
        for count in [301u64, u64::MAX / 12, u64::MAX] {
            let spilled = spill_with_header(&dir, |h| h[4..].copy_from_slice(&count.to_le_bytes()));
            let err = spilled.to_coo().expect_err("count past the file");
            assert!(matches!(err, TensorError::Io(_)), "count {count}: {err:?}");
            let err = spilled
                .resort(&[1, 0, 2], &dir, &IngestOptions::new())
                .expect_err("count past the file");
            assert!(matches!(err, TensorError::Io(_)), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_with_the_wrong_order_is_a_typed_error() {
        let dir = tmp();
        for order in [0u32, 4, u32::MAX] {
            let spilled = spill_with_header(&dir, |h| h[..4].copy_from_slice(&order.to_le_bytes()));
            let err = spilled.to_coo().expect_err("wrong order");
            assert!(
                matches!(
                    err,
                    TensorError::Invalid {
                        context: "spill",
                        ..
                    }
                ),
                "order {order}: {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The entries of `dir`, by name.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn failed_ingest_and_resort_leave_no_run_directory() {
        let dir = tmp();
        let opts = IngestOptions::new().with_chunk_nnz(1);
        // A parse error after three runs were written.
        let text = "1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n4 x 4 4.0\n";
        let err =
            SpilledTensor::ingest(TnsSource::new(BufReader::new(text.as_bytes())), &opts, &dir)
                .expect_err("bad line");
        assert!(matches!(err, TensorError::Parse { line: 4, .. }), "{err:?}");
        assert_eq!(listing(&dir), Vec::<String>::new());

        // A Reject error, found by the merge after every run was written.
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        let err =
            SpilledTensor::ingest(TnsSource::new(BufReader::new(text.as_bytes())), &opts, &dir)
                .expect_err("duplicate");
        assert!(
            matches!(err, TensorError::Duplicate { line: 3, .. }),
            "{err:?}"
        );
        assert_eq!(listing(&dir), Vec::<String>::new());

        // A re-sort whose input run is cut short.
        let t = crate::synth::uniform_random(&[10, 11, 12], 300, 8);
        let spilled = SpilledTensor::ingest(CooSource::new(t), &opts, &dir).unwrap();
        let before = listing(&dir);
        let run = &spilled.runs[0];
        let len = std::fs::metadata(run).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(run).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        spilled
            .resort(&[2, 0, 1], &dir, &opts)
            .expect_err("a truncated run must not re-sort");
        assert_eq!(listing(&dir), before);
        drop(spilled);
        assert_eq!(listing(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_run_file_is_a_typed_error() {
        let t = crate::synth::uniform_random(&[10, 11, 12], 300, 8);
        let dir = tmp();
        let opts = IngestOptions::new()
            .with_policy(DuplicatePolicy::Keep)
            .with_chunk_nnz(100);
        let spilled = SpilledTensor::ingest(CooSource::new(t), &opts, &dir).unwrap();
        // Cut the last run mid-record: the header still promises 100.
        let run = spilled.runs.last().unwrap();
        let len = std::fs::metadata(run).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(run).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let err = spilled
            .to_coo()
            .expect_err("a truncated run must not stream");
        assert!(matches!(err, TensorError::Io(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sorted_positions_are_the_coords_then_arrival_order() {
        // A chunk knows no extents: its key fields come from the largest
        // coordinate present, here wider than 64 bits in total. Rows 0
        // and 2 are equal.
        let big = u32::MAX;
        let rows: [[Index; 4]; 6] = [
            [big, 0, 7, big - 1],
            [big - 1, 0, 7, big],
            [big, 0, 7, big - 1],
            [big, 0, 2, big],
            [0, 0, 7, big - 1],
            [big, 0, 7, 0],
        ];
        let mut chunk = CooChunk::with_order(4);
        for (z, row) in rows.iter().enumerate() {
            chunk.push(row, z as Value, z as u64 + 1);
        }
        for perm in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let mut expect: Vec<u32> = (0..rows.len() as u32).collect();
            expect.sort_by_key(|&z| perm.map(|m| rows[z as usize][m]));
            assert_eq!(sorted_positions(&chunk, &perm), expect, "perm {perm:?}");
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
