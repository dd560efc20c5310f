//! Typed tensor ingestion: the [`TensorSource`] API.
//!
//! Reading is a pull-based chunk protocol. A [`TensorSource`] yields
//! fixed-size batches of raw nonzeros ([`CooChunk`]) instead of one
//! resident `CooTensor`, so the same parsers drive both the in-core
//! assembly path ([`ingest`]) and the bounded-memory spill path
//! ([`crate::spill`]). Ingestion behavior —
//! duplicate policy, chunk size, host-memory budget —
//! is configured through [`IngestOptions`].
//!
//! Contract: for any chunk size and any read-buffer size, [`ingest`]
//! produces exactly the same tensor (and exactly the same errors, down to
//! line numbers). Chunk and buffer boundaries are invisible.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::{BufRead, ErrorKind, Read};

use crate::frame::{FrameError, FrameReader};
use crate::io::{DuplicatePolicy, BIN_MAGIC, BIN_VERSION};
use crate::{CooTensor, Index, TensorError, TensorResult, Value};

/// One batch of raw nonzeros, structure-of-arrays: `coords[mode][i]` is
/// the mode-`mode` coordinate of the chunk's `i`-th entry. `lines[i]` is
/// the entry's 1-based source line (text) or ordinal (binary/synthetic),
/// carried so duplicate errors can name the exact source position
/// regardless of how entries were batched or re-sorted. A source's lines
/// ascend in the order it yields entries. A sorted stream fills `lines`
/// with its own numbering: the entry's id in the resident tensor
/// ([`crate::SortedView`]) or its ordinal in the stream
/// ([`crate::MergeStream`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooChunk {
    pub coords: Vec<Vec<Index>>,
    pub vals: Vec<Value>,
    pub lines: Vec<u64>,
}

impl CooChunk {
    /// An empty chunk shaped for `order` modes.
    pub fn with_order(order: usize) -> Self {
        CooChunk {
            coords: vec![Vec::new(); order],
            vals: Vec::new(),
            lines: Vec::new(),
        }
    }

    pub fn order(&self) -> usize {
        self.coords.len()
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Drops all entries, keeping the mode arity and capacity.
    pub fn clear(&mut self) {
        for arr in &mut self.coords {
            arr.clear();
        }
        self.vals.clear();
        self.lines.clear();
    }

    /// Re-shapes to `order` modes and clears.
    pub fn reset(&mut self, order: usize) {
        self.coords.resize(order, Vec::new());
        self.coords.truncate(order);
        self.clear();
    }

    /// Appends one entry.
    ///
    /// # Panics
    /// If `coords.len()` mismatches the chunk's arity.
    pub fn push(&mut self, coords: &[Index], val: Value, line: u64) {
        assert_eq!(coords.len(), self.order(), "chunk arity mismatch");
        for (arr, &c) in self.coords.iter_mut().zip(coords) {
            arr.push(c);
        }
        self.vals.push(val);
        self.lines.push(line);
    }

    /// The coordinate tuple of entry `i` (allocates; use the raw arrays
    /// in hot code).
    pub fn coords_of(&self, i: usize) -> Vec<Index> {
        self.coords.iter().map(|arr| arr[i]).collect()
    }

    /// Approximate resident bytes of one entry at this arity.
    fn entry_bytes(order: usize) -> usize {
        order * std::mem::size_of::<Index>()
            + std::mem::size_of::<Value>()
            + std::mem::size_of::<u64>()
    }
}

/// Ingestion configuration: duplicate policy, chunk size and host-memory
/// budget. Built fluently:
///
/// ```
/// use sptensor::{IngestOptions, io::DuplicatePolicy};
/// let opts = IngestOptions::new()
///     .with_policy(DuplicatePolicy::Sum)
///     .with_chunk_nnz(1 << 16)
///     .with_host_budget(256 << 20);
/// assert_eq!(opts.policy(), DuplicatePolicy::Sum);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    policy: DuplicatePolicy,
    chunk_nnz: Option<usize>,
    host_budget: Option<u64>,
}

/// Default entries per chunk when neither a chunk size nor a budget is
/// configured (1M entries ≈ 16-28 MB of working set at orders 3-4).
pub const DEFAULT_CHUNK_NNZ: usize = 1 << 20;

impl IngestOptions {
    pub fn new() -> Self {
        IngestOptions::default()
    }

    pub fn with_policy(mut self, policy: DuplicatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Entries per parsed chunk. Clamped to at least 1.
    pub fn with_chunk_nnz(mut self, chunk_nnz: usize) -> Self {
        self.chunk_nnz = Some(chunk_nnz.max(1));
        self
    }

    /// Peak-host-memory budget in bytes for the ingestion working set.
    /// Chunk sizes are derated so chunk buffers plus sort scratch stay
    /// within a fraction of this budget; the enforcement check (peak RSS
    /// below budget) is done by the caller against `/proc` ground truth.
    pub fn with_host_budget(mut self, bytes: u64) -> Self {
        self.host_budget = Some(bytes);
        self
    }

    pub fn policy(&self) -> DuplicatePolicy {
        self.policy
    }

    pub fn host_budget(&self) -> Option<u64> {
        self.host_budget
    }

    /// The chunk size actually used for an order-`order` source: the
    /// configured size, derated so one chunk's parse + sort working set
    /// consumes at most a quarter of the host budget. For order `N` that
    /// set is the entry payload (`4N + 12` B per entry), its reordered
    /// copy (`4N + 12` B) and the sort's `(u64 key, u32 position)` pairs
    /// (16 B): `8N + 40` B per entry, inside the `16N + 48` B (4x the raw
    /// entry bytes) the derating charges. A re-sort's chunk takes less:
    /// the pairs, the tail coordinates and the value.
    pub fn effective_chunk_nnz(&self, order: usize) -> usize {
        let mut chunk = self.chunk_nnz.unwrap_or(DEFAULT_CHUNK_NNZ);
        if let Some(budget) = self.host_budget {
            let per_entry = 4 * CooChunk::entry_bytes(order.max(1)) as u64;
            let cap = (budget / 4) / per_entry.max(1);
            chunk = chunk.min(cap.max(1024) as usize);
        }
        chunk.max(1)
    }
}

/// A pull-based producer of raw tensor nonzeros.
///
/// Sources yield entries in their native order, duplicates and all;
/// policy application, extent inference, and assembly are the ingestion
/// layer's job ([`ingest`] for in-core, [`crate::spill`] for
/// bounded-memory). Implementations validate what only they can see —
/// token syntax, header integrity, index ranges against declared
/// extents — and surface everything else untouched.
pub trait TensorSource {
    /// Short format tag used in error contexts (`"tns"`, `"spt1"`, ...).
    fn format_name(&self) -> &'static str;

    /// Mode extents declared by the source itself (binary header,
    /// synthetic spec). `None` when extents must be inferred from the
    /// data as per-mode maxima (`.tns`).
    fn declared_dims(&self) -> Option<Vec<Index>>;

    /// Total entries the source expects to yield, when known upfront.
    fn nnz_hint(&self) -> Option<u64>;

    /// Clears `out` and fills it with up to `max_entries` entries.
    /// Returns the number appended; `0` means the source is exhausted.
    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize>;
}

// ---------------------------------------------------------------------
// .tns text source
// ---------------------------------------------------------------------

/// Streaming FROSTT `.tns` parser: one nonzero per line, 1-based
/// indices then the value, `#` comments. Order is inferred from the first
/// data line; extents are left to the consumer (per-mode maxima, as FROSTT
/// itself defines them).
///
/// Accepted syntax: tokens are separated by any run of Unicode whitespace,
/// lines end in `\n` or `\r\n` (the last may lack it), an index may carry
/// a `+` sign and leading zeros, and the value is whatever
/// `str::parse::<f32>` reads, as long as it is finite. Blank and `#` lines
/// are skipped.
///
/// Once the first data line has fixed the order, each line is first
/// offered to a fast path that reads it in place in the reader's buffer.
/// It takes only plain lines (ASCII space, tab or CR separators, unsigned
/// decimal indices of at most ten digits, a finite value) and hands every
/// other line, unread, to the general parser, which is the only source of
/// errors. The fast path is an optimisation only: both paths read the
/// value with the same function, so a line yields the same entry, or the
/// same error at the same line, whichever path reads it.
pub struct TnsSource<R: BufRead> {
    reader: R,
    /// 0-based count of physical lines consumed so far.
    lineno: usize,
    order: Option<usize>,
    line_buf: Vec<u8>,
    /// Byte ranges of the current line's tokens within its trimmed text.
    toks: Vec<(usize, usize)>,
    coords: Vec<Index>,
    done: bool,
}

impl<R: BufRead> TnsSource<R> {
    pub fn new(reader: R) -> Self {
        TnsSource {
            reader,
            lineno: 0,
            order: None,
            line_buf: Vec::new(),
            toks: Vec::new(),
            coords: Vec::new(),
            done: false,
        }
    }

    /// Parses one data line into `self.coords` + value. `Ok(None)` on EOF.
    fn next_entry(&mut self) -> TensorResult<Option<Value>> {
        if let Some(order) = self.order {
            match self.reader.fill_buf() {
                Ok(buf) => {
                    if let Some(p) = buf.iter().position(|&b| b == b'\n') {
                        if let Some(v) = fast_line(&buf[..p], order, &mut self.coords) {
                            self.reader.consume(p + 1);
                            self.lineno += 1;
                            return Ok(Some(v));
                        }
                    }
                }
                // `read_until` retries an interrupted read; let it.
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.str_line()
    }

    /// The general parser: reads lines through `read_until` until one data
    /// line, and is the only source of parse errors. `Ok(None)` on EOF.
    fn str_line(&mut self) -> TensorResult<Option<Value>> {
        loop {
            self.line_buf.clear();
            let n = self.reader.read_until(b'\n', &mut self.line_buf)?;
            if n == 0 {
                self.done = true;
                return Ok(None);
            }
            let lineno = self.lineno;
            self.lineno += 1;
            let line = std::str::from_utf8(&self.line_buf)
                .map_err(|_| bad_line(lineno, "invalid UTF-8"))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            // One tokenizer pass: record each token's byte range so the
            // column count is known before any token is parsed.
            let base = trimmed.as_ptr() as usize;
            self.toks.clear();
            self.toks.extend(trimmed.split_whitespace().map(|tok| {
                let start = tok.as_ptr() as usize - base;
                (start, start + tok.len())
            }));
            if self.toks.len() < 2 {
                return Err(bad_line(lineno, "need at least one index and a value"));
            }
            // Indices are every token but the last.
            let (&(vs, ve), idx_toks) = self.toks.split_last().expect("at least two tokens");
            let n = idx_toks.len();
            match self.order {
                None => self.order = Some(n),
                Some(o) if o != n => {
                    return Err(bad_line(lineno, "inconsistent number of columns"));
                }
                _ => {}
            }
            self.coords.clear();
            for &(s, e) in idx_toks {
                let idx: u64 = trimmed[s..e]
                    .parse()
                    .map_err(|_| bad_line(lineno, "invalid index"))?;
                if idx == 0 {
                    return Err(bad_line(lineno, "indices are 1-based; got 0"));
                }
                // Two guards: the Index (u32) range, and — on 32-bit
                // hosts — the usize range row counts flow through.
                if idx > u64::from(Index::MAX) || usize::try_from(idx).is_err() {
                    return Err(bad_line(lineno, "index exceeds representable range"));
                }
                self.coords.push((idx - 1) as Index);
            }
            let v: Value = trimmed[vs..ve]
                .parse()
                .map_err(|_| bad_line(lineno, "invalid value"))?;
            if !v.is_finite() {
                return Err(bad_line(lineno, "non-finite value (NaN/inf) rejected"));
            }
            return Ok(Some(v));
        }
    }
}

fn bad_line(lineno: usize, msg: &str) -> TensorError {
    TensorError::parse_at(lineno, msg)
}

/// Reads one plain data line of `order` indices (`line` without its
/// `\n`) into `coords`, or returns `None` for the general parser to read
/// it. Takes only ASCII space, tab and CR separators, indices of 1 to 10
/// ASCII digits in `1..=u32::MAX`, and a value that `str::parse::<f32>`
/// reads as finite: every line it takes, the general parser takes too,
/// with the same coordinates and value bits.
fn fast_line(line: &[u8], order: usize, coords: &mut Vec<Index>) -> Option<Value> {
    let mut toks = line
        .split(|b| matches!(b, b' ' | b'\t' | b'\r'))
        .filter(|tok| !tok.is_empty());
    coords.clear();
    for _ in 0..order {
        let tok = toks.next()?;
        if tok.len() > 10 {
            return None;
        }
        let mut idx = 0u64;
        for &b in tok {
            if !b.is_ascii_digit() {
                return None;
            }
            idx = idx * 10 + u64::from(b - b'0');
        }
        if idx == 0 || idx > u64::from(Index::MAX) {
            return None;
        }
        coords.push((idx - 1) as Index);
    }
    let val = toks.next()?;
    if toks.next().is_some() {
        return None;
    }
    let v: Value = std::str::from_utf8(val).ok()?.parse().ok()?;
    v.is_finite().then_some(v)
}

impl<R: BufRead> TensorSource for TnsSource<R> {
    fn format_name(&self) -> &'static str {
        "tns"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        None
    }

    fn nnz_hint(&self) -> Option<u64> {
        None
    }

    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        out.reset(self.order.unwrap_or(0));
        if self.done {
            return Ok(0);
        }
        let mut appended = 0usize;
        while appended < max_entries {
            match self.next_entry()? {
                None => break,
                Some(v) => {
                    if out.order() != self.coords.len() {
                        // First data line of the stream fixed the order
                        // just now; shape the chunk to match.
                        out.reset(self.coords.len());
                    }
                    out.push(&self.coords, v, self.lineno as u64);
                    appended += 1;
                }
            }
        }
        Ok(appended)
    }
}

// ---------------------------------------------------------------------
// Binary (`.spt`) source
// ---------------------------------------------------------------------

/// Chunked reader for the crate's binary format ([`crate::io::write_bin`]).
/// Each entry's record is stored whole, so the file reads front to back,
/// one block of records at a time; the trailer is checked when the last
/// entry is read, before the chunk that holds it is returned.
pub struct BinSource<R: Read> {
    frame: FrameReader<R>,
    dims: Vec<Index>,
    nnz: u64,
    /// Next entry ordinal to yield.
    cursor: u64,
    /// One block of records, reused.
    block: Vec<u8>,
}

impl<R: Read> BinSource<R> {
    /// Reads and checks the header of the `len`-byte binary tensor
    /// `reader` starts at: no extent is zero, and the nonzero count
    /// accounts for the rest of the file exactly.
    pub fn new(reader: R, len: u64) -> TensorResult<Self> {
        let mut frame = FrameReader::new(reader, len, BIN_MAGIC, BIN_VERSION)?;
        let order = frame.u32()?;
        if order == 0 {
            return Err(TensorError::invalid("spt1", "zero order"));
        }
        let dims = frame.u32s(u64::from(order))?;
        if let Some(m) = dims.iter().position(|&d| d == 0) {
            return Err(TensorError::invalid(
                "spt1",
                format!("mode {m} extent is zero"),
            ));
        }
        let nnz = frame.u64()?;
        let need = nnz.saturating_mul(4 * (u64::from(order) + 1));
        if need != frame.remaining() {
            return Err(FrameError::length(need, frame.remaining()));
        }
        if nnz == 0 {
            frame.finish()?;
        }
        Ok(BinSource {
            frame,
            dims,
            nnz,
            cursor: 0,
            block: Vec::new(),
        })
    }
}

impl BinSource<std::io::BufReader<std::fs::File>> {
    /// Opens a binary tensor file for chunked reading.
    pub fn open(path: &std::path::Path) -> TensorResult<Self> {
        let f = std::fs::File::open(path)?;
        let len = f.metadata()?.len();
        BinSource::new(std::io::BufReader::new(f), len)
    }
}

impl<R: Read> TensorSource for BinSource<R> {
    fn format_name(&self) -> &'static str {
        "spt1"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        Some(self.dims.clone())
    }

    fn nnz_hint(&self) -> Option<u64> {
        Some(self.nnz)
    }

    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        let order = self.dims.len();
        out.reset(order);
        let rec = 4 * (order + 1);
        let mut left = (max_entries as u64).min(self.nnz - self.cursor) as usize;
        while left > 0 {
            let n = left.min(4096);
            self.block.resize(n * rec, 0);
            self.frame.fill(&mut self.block)?;
            for r in self.block.chunks_exact(rec) {
                let word =
                    |i: usize| u32::from_le_bytes(r[4 * i..4 * i + 4].try_into().expect("4 bytes"));
                for (m, arr) in out.coords.iter_mut().enumerate() {
                    let idx = word(m);
                    if idx >= self.dims[m] {
                        let msg = format!("mode {m} index {idx} out of range");
                        return Err(TensorError::invalid("spt1", msg));
                    }
                    arr.push(idx);
                }
                out.vals.push(f32::from_bits(word(order)));
                self.cursor += 1;
                out.lines.push(self.cursor);
            }
            left -= n;
        }
        if self.cursor == self.nnz && !out.is_empty() {
            self.frame.finish()?;
        }
        Ok(out.len())
    }
}

// ---------------------------------------------------------------------
// In-memory source
// ---------------------------------------------------------------------

/// Adapts a resident [`CooTensor`] to the source protocol: entries in
/// stored order, ordinals as line numbers. The bridge that lets the
/// streaming pipeline and its tests run over in-memory data.
pub struct CooSource {
    t: CooTensor,
    cursor: usize,
}

impl CooSource {
    pub fn new(t: CooTensor) -> Self {
        CooSource { t, cursor: 0 }
    }
}

impl TensorSource for CooSource {
    fn format_name(&self) -> &'static str {
        "coo"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        Some(self.t.dims().to_vec())
    }

    fn nnz_hint(&self) -> Option<u64> {
        Some(self.t.nnz() as u64)
    }

    fn fill_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        out.reset(self.t.order());
        let take = max_entries.min(self.t.nnz() - self.cursor);
        let (lo, hi) = (self.cursor, self.cursor + take);
        for (m, arr) in out.coords.iter_mut().enumerate() {
            arr.extend_from_slice(&self.t.mode_indices(m)[lo..hi]);
        }
        out.vals.extend_from_slice(&self.t.values()[lo..hi]);
        out.lines.extend((lo..hi).map(|i| i as u64 + 1));
        self.cursor = hi;
        Ok(take)
    }
}

// ---------------------------------------------------------------------
// In-core assembly
// ---------------------------------------------------------------------

/// Open-addressing set of entry ids (rows of the output index arrays)
/// for in-core duplicate folding. Slots hold `u32` ids, so the table
/// costs 4 bytes per slot and never copies a coordinate tuple: probes
/// compare rows in place. Rows are hashed with the std `RandomState`
/// hasher, keyed per table, so crafted colliding input cannot be
/// precomputed.
struct FirstSeen {
    /// `EMPTY` or the id of a recorded row; length is a power of two.
    slots: Vec<u32>,
    len: usize,
    hasher: RandomState,
}

impl FirstSeen {
    const EMPTY: u32 = u32::MAX;

    fn new() -> Self {
        FirstSeen {
            slots: vec![Self::EMPTY; 16],
            len: 0,
            hasher: RandomState::new(),
        }
    }

    fn home(&self, inds: &[Vec<Index>], row: usize) -> usize {
        let mut h = self.hasher.build_hasher();
        for arr in inds {
            h.write_u32(arr[row]);
        }
        h.finish() as usize & (self.slots.len() - 1)
    }

    /// Finds row `row` of `inds` among the recorded rows: `Ok(id)` of the
    /// matching row, or `Err(slot)`, the free slot where `row` belongs.
    fn find(&self, inds: &[Vec<Index>], row: usize) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(inds, row);
        loop {
            let id = self.slots[slot];
            if id == Self::EMPTY {
                return Err(slot);
            }
            let id = id as usize;
            if inds.iter().all(|arr| arr[id] == arr[row]) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Records `id` in the free `slot` that [`FirstSeen::find`] returned,
    /// doubling the table once it is more than half full.
    fn insert(&mut self, slot: usize, id: u32, inds: &[Vec<Index>]) {
        self.slots[slot] = id;
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![Self::EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            let mask = self.slots.len() - 1;
            for id in old.into_iter().filter(|&id| id != Self::EMPTY) {
                let mut slot = self.home(inds, id as usize);
                while self.slots[slot] != Self::EMPTY {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = id;
            }
        }
    }
}

/// The `u32` id of surviving entry `row`; `None` once more than
/// `u32::MAX - 1` entries would survive.
fn entry_id(row: usize) -> Option<u32> {
    u32::try_from(row)
        .ok()
        .filter(|&id| id < FirstSeen::EMPTY - 1)
}

/// Assembles a resident [`CooTensor`] from any source, applying the
/// configured [`DuplicatePolicy`] with whole-stream semantics: the
/// dedup state persists across chunks, so the result (tensor or typed
/// error, including the reported line) is identical for every chunk
/// size. Surviving entries keep their first occurrence's position, and
/// `Sum` adds each later duplicate's value onto it in stream order.
pub fn ingest<S: TensorSource>(mut source: S, opts: &IngestOptions) -> TensorResult<CooTensor> {
    let declared = source.declared_dims();
    let policy = opts.policy();
    let mut inds: Vec<Vec<Index>> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    let mut order: Option<usize> = None;
    // First occurrence of each coordinate tuple (Reject/Sum only).
    let mut seen = FirstSeen::new();
    let mut chunk = CooChunk::default();

    loop {
        let chunk_nnz = opts.effective_chunk_nnz(order.unwrap_or(3));
        let n = source.fill_chunk(chunk_nnz, &mut chunk)?;
        if n == 0 {
            break;
        }
        match order {
            None => {
                order = Some(chunk.order());
                inds = vec![Vec::new(); chunk.order()];
            }
            Some(o) if o != chunk.order() => {
                return Err(TensorError::invalid(
                    source.format_name(),
                    "source changed arity mid-stream",
                ));
            }
            _ => {}
        }
        for i in 0..n {
            // Push the row first, so probes compare it in place.
            let row = vals.len();
            for (arr, src) in inds.iter_mut().zip(&chunk.coords) {
                arr.push(src[i]);
            }
            let v = chunk.vals[i];
            if policy != DuplicatePolicy::Keep {
                match seen.find(&inds, row) {
                    Ok(first) => {
                        for arr in &mut inds {
                            arr.pop();
                        }
                        if policy == DuplicatePolicy::Reject {
                            return Err(TensorError::duplicate(
                                chunk.lines[i] as usize,
                                chunk.coords_of(i),
                            ));
                        }
                        vals[first] += v;
                        continue;
                    }
                    Err(slot) => {
                        let id = entry_id(row).ok_or_else(|| {
                            TensorError::invalid(
                                source.format_name(),
                                "more than u32::MAX - 1 distinct entries",
                            )
                        })?;
                        seen.insert(slot, id, &inds);
                    }
                }
            }
            vals.push(v);
        }
    }

    let t = match declared {
        Some(dims) => {
            if vals.is_empty() {
                CooTensor::new(dims)
            } else {
                CooTensor::from_parts(dims, inds, vals)
            }
        }
        None => {
            let order = order.ok_or_else(|| {
                TensorError::invalid(source.format_name(), "no data lines in input")
            })?;
            let mut dims = Vec::with_capacity(order);
            for arr in &inds {
                let max = arr.iter().copied().max().unwrap_or(0);
                let extent = max.checked_add(1).ok_or_else(|| {
                    TensorError::invalid(source.format_name(), "mode extent overflows u32")
                })?;
                dims.push(extent);
            }
            CooTensor::from_parts(dims, inds, vals)
        }
    };
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameWriter;
    use std::io::BufReader;

    fn tns(text: &str) -> TnsSource<BufReader<&[u8]>> {
        TnsSource::new(BufReader::new(text.as_bytes()))
    }

    fn read_tns(text: impl AsRef<[u8]>) -> TensorResult<CooTensor> {
        ingest(
            TnsSource::new(BufReader::new(text.as_ref())),
            &IngestOptions::new(),
        )
    }

    /// Whole-stream binary read, duplicates kept as stored.
    fn read_bin(bytes: &[u8]) -> TensorResult<CooTensor> {
        let opts = IngestOptions::new().with_policy(DuplicatePolicy::Keep);
        ingest(BinSource::new(bytes, bytes.len() as u64)?, &opts)
    }

    #[test]
    fn tns_round_trip() {
        let mut t = CooTensor::new(vec![3, 4, 5]);
        t.push(&[0, 1, 2], 1.5);
        t.push(&[2, 3, 4], -2.0);
        let mut out = Vec::new();
        crate::io::write_tns(&t, &mut out).unwrap();
        let back = read_tns(&out).unwrap();
        assert_eq!(back.nnz(), 2);
        assert_eq!(back.dims(), &[3, 4, 5]);
        assert_eq!(back.coords_of(1), vec![2, 3, 4]);
        assert_eq!(back.values(), &[1.5, -2.0]);
    }

    #[test]
    fn binary_round_trip() {
        let t = crate::synth::uniform_random(&[20, 30, 40, 7], 500, 9);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        assert_eq!(read_bin(&buf).unwrap(), t);
    }

    #[test]
    fn binary_empty_tensor() {
        let t = CooTensor::new(vec![3, 3]);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        let back = read_bin(&buf).unwrap();
        assert_eq!(back.nnz(), 0);
        assert_eq!(back.dims(), &[3, 3]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let t = read_tns("# a comment\n\n1 1 1 3.0\n2 2 2 4.0\n").unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.dims(), &[2, 2, 2]);
    }

    #[test]
    fn rejects_zero_index() {
        assert!(read_tns("0 1 1 3.0\n").is_err());
    }

    #[test]
    fn rejects_non_finite_values_with_line_number() {
        for bad in ["NaN", "inf", "-inf", "Infinity"] {
            let text = format!("# header\n1 1 1 3.0\n2 2 2 {bad}\n");
            let err = read_tns(&text).expect_err("non-finite must be rejected");
            match err {
                TensorError::Parse { line, ref msg } => {
                    assert_eq!(line, 3, "{bad}: wrong line in {err}");
                    assert!(msg.contains("non-finite"), "{bad}: {msg}");
                }
                other => panic!("{bad}: expected Parse error, got {other}"),
            }
        }
    }

    #[test]
    fn errors_carry_one_based_line_numbers() {
        match read_tns("1 1 1 3.0\n0 1 1 2.0\n") {
            Err(TensorError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn parses_scientific_values() {
        let t = read_tns("1 2 3 1e-3\n2 2 3 -0\n").unwrap();
        let bits: Vec<u32> = t.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, vec![1e-3f32.to_bits(), (-0.0f32).to_bits()]);
    }

    #[test]
    fn duplicate_policy_keep_preserves_entries() {
        let text = "1 2 3 1.0\n1 2 3 4.0\n";
        let t = ingest(
            tns(text),
            &IngestOptions::new().with_policy(DuplicatePolicy::Keep),
        )
        .unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.values(), &[1.0, 4.0]);
    }

    #[test]
    fn binary_rejects_bad_magic_and_the_old_layout() {
        let t = crate::synth::uniform_random(&[5, 5, 5], 50, 10);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_bin(&buf),
            Err(TensorError::Frame(FrameError::BadMagic))
        ));
        // Version 1 followed the magic with a `u8` order and the extents.
        let mut old = b"SPT1\x03".to_vec();
        for _ in 0..3 {
            old.extend_from_slice(&5u32.to_le_bytes());
        }
        old.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_bin(&old),
            Err(TensorError::Frame(FrameError::UnsupportedVersion(_)))
        ));
        assert!(read_bin(b"NOPE\x03").is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let t = crate::synth::uniform_random(&[5, 5, 5], 50, 10);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_bin(&buf).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_index() {
        let t = crate::synth::uniform_random(&[4, 4], 10, 11);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        // Corrupt the first entry's mode-0 index to 255 (> extent 4). The
        // header is 8 (frame) + 4 (order) + 8 (dims) + 8 (nnz) = 28 bytes.
        buf[28] = 255;
        assert!(matches!(
            read_bin(&buf),
            Err(TensorError::Invalid {
                context: "spt1",
                ..
            })
        ));
    }

    #[test]
    fn binary_flipped_value_is_a_checksum_error() {
        let t = crate::synth::uniform_random(&[5, 5, 5], 50, 10);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        // Entry 0's value follows its three coordinates and the 32-byte
        // header; its low mantissa bit keeps it finite and in range.
        buf[32 + 12] ^= 1;
        assert!(matches!(
            read_bin(&buf),
            Err(TensorError::Frame(FrameError::Checksum))
        ));
    }

    /// A framed binary tensor holding exactly `payload` after the header.
    fn bin_with(payload: impl Fn(&mut FrameWriter<&mut Vec<u8>>)) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf, BIN_MAGIC, BIN_VERSION).unwrap();
        payload(&mut w);
        w.finish().unwrap();
        buf
    }

    #[test]
    fn binary_rejects_zero_extent_and_huge_nnz() {
        let length = |r| matches!(r, Err(TensorError::Frame(FrameError::Length { .. })));
        // Order 2, dims [3, 0]: invalid structure.
        let buf = bin_with(|w| {
            w.u32(2).unwrap();
            w.u32s([3, 0]).unwrap();
            w.u64(0).unwrap();
        });
        assert!(matches!(read_bin(&buf), Err(TensorError::Invalid { .. })));

        // 2^60 nonzeros over an empty body: refused by the length check
        // before any chunk is sized from the count.
        let buf = bin_with(|w| {
            w.u32(2).unwrap();
            w.u32s([3, 3]).unwrap();
            w.u64(1 << 60).unwrap();
        });
        assert!(length(read_bin(&buf)));

        // A count whose total byte size overflows u64, and an order the
        // file cannot hold the extents of.
        let buf = bin_with(|w| {
            w.u32(255).unwrap();
            w.u32s([1; 255]).unwrap();
            w.u64(u64::MAX).unwrap();
        });
        assert!(length(read_bin(&buf)));
        let buf = bin_with(|w| w.u32(u32::MAX).unwrap());
        assert!(length(read_bin(&buf)));
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_at_its_line() {
        match read_tns(b"1 1 1 1.0\n2 2 2 2.0\n3 \xFF 3 3.0\n") {
            Err(TensorError::Parse { line, ref msg }) => {
                assert_eq!(line, 3);
                assert!(msg.contains("UTF-8"), "{msg}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(read_tns("1 1 1 3.0\n1 1 4.0\n").is_err());
        // The column count is checked before any index is parsed: line 2
        // has both too few columns and a bad index.
        match read_tns("1 1 1 3.0\n1 x 4.0\n") {
            Err(TensorError::Parse { line, ref msg }) => {
                assert_eq!(line, 2);
                assert_eq!(msg, "inconsistent number of columns");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn unicode_separators_and_crlf_parse_like_spaces() {
        let ascii = read_tns("1 2 3 1.5\n2 1 3 2.5\n").unwrap();
        for text in [
            "1\u{a0}2\u{3000}3 1.5\n2\u{3000}1\u{a0}3\u{a0}2.5\n",
            "1 2 3 1.5\r\n2 1 3 2.5\r\n",
            "\u{3000}1 2 3\u{a0}1.5\u{a0}\r\n2 1 3 2.5\u{3000}\r\n",
        ] {
            assert_eq!(read_tns(text).unwrap(), ascii, "{text:?}");
        }
    }

    #[test]
    fn plus_signed_index_is_accepted() {
        let t = read_tns("+7 1 1.0\n").unwrap();
        assert_eq!(t.coords_of(0), vec![6, 0]);
        assert_eq!(t.dims(), &[7, 1]);
    }

    #[test]
    fn fast_path_takes_only_plain_lines() {
        let mut coords = Vec::new();
        let line = b"\r1\t007  4294967295\t+2.5\r";
        assert_eq!(fast_line(line, 3, &mut coords), Some(2.5));
        assert_eq!(coords, vec![0, 6, u32::MAX - 1]);
        for line in [
            &b"1 2 3 1.0"[..],
            b"1 2 1.0 5",
            b"# 1 2 1.0",
            b"",
            b"+1 2 1.0",
            b"0 2 1.0",
            b"00000000001 2 1.0",
            b"4294967296 2 1.0",
            b"1\x0B2 1.0",
            b"1\x0C2 1.0",
            "1\u{a0}2 1.0".as_bytes(),
            b"1 2 NaN",
            b"1 2 inf",
            b"1 2 1.0\xFF",
            b"1 2 x",
        ] {
            assert_eq!(fast_line(line, 2, &mut coords), None, "{line:?}");
        }
    }

    /// The same documents, OK or not, through read buffers from one byte
    /// (every line straddles) to 1 MiB (none does) give the same tensor or
    /// the same error: buffer boundaries are as invisible as chunk ones.
    #[test]
    fn ingest_is_buffer_size_invariant() {
        let long_pad = " ".repeat(100);
        let long_line = format!("3{long_pad}1\t2{long_pad}1.{}\n", "0".repeat(90));
        let texts: Vec<Vec<u8>> = [
            "1 2 3 1.5\n2 1 3 2.5\n3 3 1 -0.5\n".to_string(),
            "# crlf\r\n1 2 3 1.5\r\n\r\n2 1 3 2.5\r\n3 3 1 -0.5".to_string(),
            format!("1 2 3 1.5\n{long_line}2\x0B1\x0C3 2.5\n+4 007 1 1e-3\n"),
            format!("1 2 3 1.5\n{long_line}2 1 3 NaN\n"),
            "1 2 3 1.5\n2 1 3 2.5\n2 0 3 1.0\n".to_string(),
            "1 2 3 1.5\n2 1 3 2.5\n2 1 3.5".to_string(),
            "1 2 3 1.5\n2 1 3 2.5\n1 2 3 0.5".to_string(),
            "1 2 3 1.5\n\u{3000}2\u{a0}1 3 2.5\n1 2 4294967296 1.0\n".to_string(),
        ]
        .into_iter()
        .map(String::into_bytes)
        .chain([b"1 2 3 1.5\n2 1 3 2.5\n3 3 1 1.\xFF\n".to_vec()])
        .collect();
        let describe = |r: TensorResult<CooTensor>| match r {
            Ok(t) => {
                let bits: Vec<u32> = t.values().iter().map(|v| v.to_bits()).collect();
                format!("{t:?} {bits:?}")
            }
            Err(e) => format!("{e:?}"),
        };
        for text in &texts {
            let read = |cap: usize| {
                let src = TnsSource::new(BufReader::with_capacity(cap, &text[..]));
                describe(ingest(src, &IngestOptions::new()))
            };
            let want = read(1 << 20);
            for cap in [1usize, 2, 3, 7, 64] {
                assert_eq!(read(cap), want, "capacity {cap} on {text:?}");
            }
        }
    }

    #[test]
    fn entry_ids_stop_below_the_empty_marker() {
        assert_eq!(entry_id(0), Some(0));
        assert_eq!(entry_id(u32::MAX as usize - 2), Some(u32::MAX - 2));
        assert_eq!(entry_id(u32::MAX as usize - 1), None);
        assert_eq!(entry_id(usize::MAX), None);
    }

    mod prop {
        use super::*;
        use crate::io::{write_bin, write_tns};
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        /// A syntactically valid `.tns` document with unique coordinates,
        /// as (text, order, nnz).
        fn arb_valid_tns() -> impl Strategy<Value = (String, usize, usize)> {
            ((1usize..=4), (1usize..=30)).prop_flat_map(|(order, nnz)| {
                pvec(pvec(1u32..=50, order), nnz)
                    .prop_map(move |coords| {
                        let mut uniq: Vec<Vec<u32>> = coords;
                        uniq.sort();
                        uniq.dedup();
                        let mut text = String::from("# generated\n");
                        for (z, c) in uniq.iter().enumerate() {
                            for i in c {
                                text.push_str(&format!("{i} "));
                            }
                            text.push_str(&format!("{}.5\n", z + 1));
                        }
                        (text, order, uniq.len())
                    })
                    .boxed()
            })
        }

        /// The boxed-key fold `ingest` used before [`FirstSeen`]: the
        /// reference the flat table must reproduce exactly.
        fn reference_ingest<S: TensorSource>(
            mut source: S,
            opts: &IngestOptions,
        ) -> TensorResult<CooTensor> {
            use std::collections::HashMap;

            let policy = opts.policy();
            let mut inds: Vec<Vec<Index>> = Vec::new();
            let mut vals: Vec<Value> = Vec::new();
            let mut seen: HashMap<Vec<Index>, usize> = HashMap::new();
            let mut chunk = CooChunk::default();
            loop {
                let n = source.fill_chunk(opts.effective_chunk_nnz(3), &mut chunk)?;
                if n == 0 {
                    break;
                }
                if inds.is_empty() {
                    inds = vec![Vec::new(); chunk.order()];
                }
                for i in 0..n {
                    let coords = chunk.coords_of(i);
                    let v = chunk.vals[i];
                    if policy != DuplicatePolicy::Keep {
                        if let Some(&first) = seen.get(&coords) {
                            if policy == DuplicatePolicy::Reject {
                                return Err(TensorError::duplicate(
                                    chunk.lines[i] as usize,
                                    coords,
                                ));
                            }
                            vals[first] += v;
                            continue;
                        }
                        seen.insert(coords.clone(), vals.len());
                    }
                    for (arr, &c) in inds.iter_mut().zip(&coords) {
                        arr.push(c);
                    }
                    vals.push(v);
                }
            }
            let dims = inds
                .iter()
                .map(|arr| arr.iter().copied().max().unwrap_or(0) + 1)
                .collect();
            Ok(CooTensor::from_parts(dims, inds, vals))
        }

        /// A `.tns` document of `nnz` entries at `order`: the first half
        /// draws fresh coordinates from a space of about 1e8 tuples, the
        /// second half repeats an earlier tuple 60% of the time (about
        /// 30% duplicates overall), so `Reject`'s first hit comes after
        /// the table has grown several times.
        fn duplicated_tns(order: usize, nnz: usize, seed: u64) -> String {
            use rand::{Rng, SeedableRng};
            let extent = 1e8f64.powf(1.0 / order as f64).ceil() as u32;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut rows: Vec<Vec<u32>> = Vec::with_capacity(nnz);
            let mut text = String::new();
            for z in 0..nnz {
                let row = if z >= nnz / 2 && rng.gen_bool(0.6) {
                    rows[rng.gen_range(0..rows.len())].clone()
                } else {
                    (0..order).map(|_| rng.gen_range(1..=extent)).collect()
                };
                for c in &row {
                    text.push_str(&format!("{c} "));
                }
                text.push_str(&format!("{}\n", rng.gen_range(-1e3f32..1e3)));
                rows.push(row);
            }
            text
        }

        /// Tensors equal down to value bits, or the same duplicate error.
        fn assert_same(
            got: &TensorResult<CooTensor>,
            want: &TensorResult<CooTensor>,
        ) -> Result<(), TestCaseError> {
            match (got, want) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.dims(), b.dims());
                    for m in 0..b.order() {
                        prop_assert_eq!(a.mode_indices(m), b.mode_indices(m));
                    }
                    let bits = |t: &CooTensor| -> Vec<u32> {
                        t.values().iter().map(|v| v.to_bits()).collect()
                    };
                    prop_assert_eq!(bits(a), bits(b));
                }
                (
                    Err(TensorError::Duplicate { line, coords }),
                    Err(TensorError::Duplicate {
                        line: want_line,
                        coords: want_coords,
                    }),
                ) => {
                    prop_assert_eq!(line, want_line);
                    prop_assert_eq!(coords, want_coords);
                }
                (got, want) => prop_assert!(false, "got {:?}, want {:?}", got, want),
            }
            Ok(())
        }

        /// `.tns` tokens: indices, values and odd ones. A repeated entry
        /// is drawn more often, so that plain lines, which the fast path
        /// takes, are a fair share of the cases.
        const TOKENS: &[&str] = &[
            "1",
            "1",
            "1",
            "+7",
            "007",
            "007",
            "0",
            "4294967295",
            "4294967295",
            "4294967296",
            "00000000001",
            "1e-3",
            "1e-3",
            "-0",
            ".5",
            "1.",
            "+2.5",
            "NaN",
            "inf",
            "#",
            "x",
            "é",
        ];
        const SEPARATORS: &[&str] = &[
            " ", " ", " ", " ", "\t", "\t", "\r", "\x0B", "\x0C", "\u{a0}", "\u{3000}",
        ];

        fn pick(alphabet: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
            (0..alphabet.len()).prop_map(move |i| alphabet[i])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn fast_path_never_disagrees_with_str_path(
                order in 1usize..=3,
                toks in pvec(pick(TOKENS), 1..=5),
                seps in pvec(pvec(pick(SEPARATORS), 1..=2), 4),
                ends in pvec(pvec(pick(SEPARATORS), 0..=2), 2),
            ) {
                let mut line = ends[0].concat();
                for (i, tok) in toks.iter().enumerate() {
                    if i > 0 {
                        line.push_str(&seps[i - 1].concat());
                    }
                    line.push_str(tok);
                }
                line.push_str(&ends[1].concat());
                let mut coords = Vec::new();
                if let Some(v) = fast_line(line.as_bytes(), order, &mut coords) {
                    let text = format!("{line}\n");
                    let mut src = tns(&text);
                    src.order = Some(order);
                    match src.str_line() {
                        Ok(Some(w)) => {
                            prop_assert_eq!(&src.coords, &coords, "{:?}", line);
                            prop_assert_eq!(w.to_bits(), v.to_bits(), "{:?}", line);
                        }
                        other => prop_assert!(false, "{:?}: fast {:?}, str {:?}", line, v, other),
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[test]
            fn ingest_matches_boxed_key_reference(
                order in 1usize..=5,
                nnz in 4097usize..6000,
                seed in any::<u64>(),
            ) {
                let text = duplicated_tns(order, nnz, seed);
                for policy in [DuplicatePolicy::Keep, DuplicatePolicy::Sum, DuplicatePolicy::Reject] {
                    let want = reference_ingest(tns(&text), &IngestOptions::new().with_policy(policy));
                    if policy == DuplicatePolicy::Reject {
                        prop_assert!(want.is_err(), "input must hold duplicates");
                    }
                    for chunk in [1usize, 7, 4096, nnz] {
                        let opts = IngestOptions::new().with_policy(policy).with_chunk_nnz(chunk);
                        assert_same(&ingest(tns(&text), &opts), &want)?;
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn valid_documents_round_trip(doc in arb_valid_tns()) {
                let (text, order, nnz) = doc;
                let t = read_tns(&text).expect("valid unique-coordinate document");
                prop_assert_eq!(t.order(), order);
                prop_assert_eq!(t.nnz(), nnz);
                prop_assert!(t.validate().is_ok());
                let mut out = Vec::new();
                write_tns(&t, &mut out).expect("write to vec");
                let back = read_tns(&out).expect("round trip");
                prop_assert_eq!(back, t);
            }

            #[test]
            fn values_survive_tns_bin_tns_bit_exact(
                bits in pvec(any::<u32>(), 1..40),
            ) {
                // Shortest round-trip text formatting must reproduce every
                // finite f32 bit pattern through tns -> bin -> tns.
                let vals: Vec<f32> = bits
                    .iter()
                    .map(|&b| f32::from_bits(b))
                    .filter(|v| v.is_finite())
                    .collect();
                prop_assume!(!vals.is_empty());
                let mut t = CooTensor::new(vec![vals.len() as u32, 2]);
                for (z, &v) in vals.iter().enumerate() {
                    t.push(&[z as u32, 1], v);
                }
                let mut text = Vec::new();
                write_tns(&t, &mut text).expect("write tns");
                let from_text = read_tns(&text).expect("re-read tns");
                let mut bin = Vec::new();
                write_bin(&from_text, &mut bin).expect("write bin");
                let from_bin = read_bin(&bin).expect("re-read bin");
                let mut text2 = Vec::new();
                write_tns(&from_bin, &mut text2).expect("write tns again");
                prop_assert_eq!(&text2, &text, "tns -> bin -> tns drifted");
                for (a, b) in from_bin.values().iter().zip(&vals) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "value bits drifted");
                }
            }

            #[test]
            fn parser_never_panics_on_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..200)) {
                // Any outcome is fine; reaching it without a panic is the
                // property (invalid UTF-8 is a parse error at its line).
                let _ = read_tns(&bytes);
                let _ = read_bin(&bytes);
            }

            #[test]
            fn parser_never_panics_on_arbitrary_lines(
                lines in pvec(pvec(prop_oneof![
                    Just("1".to_string()),
                    Just("0".to_string()),
                    Just("4294967295".to_string()),
                    Just("4294967296".to_string()),
                    Just("-3".to_string()),
                    Just("1.5".to_string()),
                    Just("NaN".to_string()),
                    Just("#".to_string()),
                    Just("x".to_string()),
                ], 0..6), 0..8),
            ) {
                let text = lines
                    .iter()
                    .map(|toks| toks.join(" "))
                    .collect::<Vec<_>>()
                    .join("\n");
                for policy in [DuplicatePolicy::Reject, DuplicatePolicy::Sum, DuplicatePolicy::Keep] {
                    if let Ok(t) = ingest(tns(&text), &IngestOptions::new().with_policy(policy)) {
                        prop_assert!(t.validate().is_ok(), "parser accepted an invalid tensor");
                    }
                }
            }

            #[test]
            fn corrupted_byte_never_panics_binary(
                seed in 0u64..1000,
                pos in 0usize..200,
                byte in any::<u8>(),
            ) {
                let t = crate::synth::uniform_random(&[6, 7, 8], 40, seed);
                let mut buf = Vec::new();
                write_bin(&t, &mut buf).expect("write");
                let pos = pos % buf.len();
                buf[pos] = byte;
                // Either a typed error or a structurally valid tensor.
                if let Ok(back) = read_bin(&buf) {
                    prop_assert!(back.validate().is_ok());
                }
            }
        }
    }

    #[test]
    fn ingest_matches_simple_document() {
        let t = ingest(tns("1 2 3 1.5\n3 2 1 2.5\n"), &IngestOptions::new()).unwrap();
        assert_eq!(t.dims(), &[3, 2, 3]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.values(), &[1.5, 2.5]);
    }

    #[test]
    fn ingest_is_chunk_size_invariant() {
        let text = "1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n1 2 3 4.0\n2 3 1 5.0\n";
        let base = ingest(tns(text), &IngestOptions::new()).unwrap();
        for chunk in [1usize, 2, 3, 7, 64] {
            let t = ingest(tns(text), &IngestOptions::new().with_chunk_nnz(chunk)).unwrap();
            assert_eq!(t, base, "chunk size {chunk} changed the result");
        }
    }

    #[test]
    fn duplicate_across_chunk_boundary_still_rejected_with_line() {
        // Entries 1 and 3 collide; chunk size 1 puts them in different
        // chunks, but the error must still name line 3.
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        let err = ingest(tns(text), &IngestOptions::new().with_chunk_nnz(1))
            .expect_err("duplicate must reject");
        match err {
            TensorError::Duplicate { line, ref coords } => {
                assert_eq!(line, 3);
                assert_eq!(coords, &[0, 1, 2]);
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
    }

    #[test]
    fn sum_folds_across_chunk_boundaries() {
        let text = "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n";
        for chunk in [1usize, 2, 16] {
            let t = ingest(
                tns(text),
                &IngestOptions::new()
                    .with_policy(DuplicatePolicy::Sum)
                    .with_chunk_nnz(chunk),
            )
            .unwrap();
            assert_eq!(t.nnz(), 2);
            assert_eq!(t.coords_of(0), vec![0, 1, 2], "first occurrence");
            assert_eq!(t.values(), &[5.0, 5.0], "chunk size {chunk}");
        }
    }

    #[test]
    fn bin_source_round_trips_chunked() {
        let t = crate::synth::uniform_random(&[20, 30, 40], 500, 9);
        let mut buf = Vec::new();
        crate::io::write_bin(&t, &mut buf).unwrap();
        for chunk in [1usize, 7, 100, 1 << 20] {
            let src = BinSource::new(&buf[..], buf.len() as u64).unwrap();
            assert_eq!(src.nnz_hint(), Some(t.nnz() as u64));
            let back = ingest(
                src,
                &IngestOptions::new()
                    .with_policy(DuplicatePolicy::Keep)
                    .with_chunk_nnz(chunk),
            )
            .unwrap();
            assert_eq!(back, t, "chunk size {chunk}");
        }
    }

    #[test]
    fn coo_source_is_identity() {
        let t = crate::synth::uniform_random(&[9, 9, 9], 200, 3);
        let back = ingest(
            CooSource::new(t.clone()),
            &IngestOptions::new().with_policy(DuplicatePolicy::Keep),
        )
        .unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn budget_derates_chunk_size() {
        let opts = IngestOptions::new()
            .with_chunk_nnz(1 << 24)
            .with_host_budget(64 << 20);
        assert!(opts.effective_chunk_nnz(3) < 1 << 24);
        let unbounded = IngestOptions::new().with_chunk_nnz(1 << 24);
        assert_eq!(unbounded.effective_chunk_nnz(3), 1 << 24);
    }

    #[test]
    fn empty_tns_is_typed_error() {
        let err = ingest(tns("# only comments\n"), &IngestOptions::new());
        assert!(matches!(err, Err(TensorError::Invalid { .. })));
    }
}
