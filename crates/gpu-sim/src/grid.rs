//! Kernel work descriptions: grids, blocks, warps, and synthetic addresses.
//!
//! A simulated kernel does two things at once: it computes the real MTTKRP
//! output in plain Rust (so correctness is testable against the sequential
//! reference), and it *emits* the instruction stream each warp would
//! execute — warp-wide FMAs plus coalesced 128-byte segment accesses over
//! synthetic array addresses. The emission side is what this module
//! describes.

/// One warp-level operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `n` warp-wide fused multiply-add instructions (each is
    /// `warp_size × 2` flops).
    Fma(u32),
    /// `n` warp-wide non-FMA ALU/addressing instructions (no flops).
    Alu(u32),
    /// Read of one 128-byte segment (already coalesced by the kernel).
    Load(u64),
    /// Write of one 128-byte segment.
    Store(u64),
    /// Atomic read-modify-write on one segment; `row` identifies the output
    /// row for cross-block conflict accounting.
    AtomicAdd { row: u32, seg: u64 },
    /// `n` additional LSU transactions that re-touch already-resident data
    /// (guaranteed L2 hits): the cost of *divergent* per-lane access
    /// patterns, where one warp instruction issues up to 32 separate
    /// transactions instead of one coalesced segment. Lane-per-nonzero
    /// kernels (F-COO's thread-sequential rank loop) pay this on every
    /// factor-row read; rank-on-lanes kernels never emit it.
    Replay(u32),
    /// Fixed extra cycles (barriers, reduction shuffles).
    Sync(u32),
}

/// Bit position of an instruction word's tag; the payload sits below it.
const TAG_SHIFT: u32 = 61;
/// The payload bits of an instruction word.
const PAYLOAD: u64 = (1 << TAG_SHIFT) - 1;

// Instruction word tags, one per [`Op`] variant.
const FMA: u64 = 0;
const ALU: u64 = 1;
const LOAD: u64 = 2;
const STORE: u64 = 3;
const ATOMIC: u64 = 4;
const REPLAY: u64 = 5;
const SYNC: u64 = 6;

/// The instruction stream of one warp, packed one [`Op`] per 8-byte word:
/// a 3-bit tag in the top bits and the operand in the low 61. Segment ids
/// are byte addresses / 128, so they stay below `2^57` and every `Load`
/// and `Store` fits one word. `AtomicAdd` takes two: the tag with `row`,
/// then `seg` whole. [`WarpWork::ops`] decodes the words back into
/// [`Op`]s in push order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpWork {
    words: Vec<u64>,
}

impl WarpWork {
    pub fn new() -> WarpWork {
        WarpWork::default()
    }

    /// Appends `op`.
    ///
    /// # Panics
    /// If a `Load` or `Store` segment id does not fit 61 bits
    /// ([`segments`] never yields one that does not).
    #[inline]
    pub fn push(&mut self, op: Op) {
        let word = |tag: u64, payload: u64| {
            assert!(
                payload <= PAYLOAD,
                "op payload {payload:#x} does not fit an instruction word"
            );
            tag << TAG_SHIFT | payload
        };
        match op {
            Op::Fma(n) => self.words.push(word(FMA, n.into())),
            Op::Alu(n) => self.words.push(word(ALU, n.into())),
            Op::Load(seg) => self.words.push(word(LOAD, seg)),
            Op::Store(seg) => self.words.push(word(STORE, seg)),
            Op::AtomicAdd { row, seg } => {
                self.words.push(word(ATOMIC, row.into()));
                self.words.push(seg);
            }
            Op::Replay(n) => self.words.push(word(REPLAY, n.into())),
            Op::Sync(n) => self.words.push(word(SYNC, n.into())),
        }
    }

    /// Emits loads covering `bytes` bytes starting at `addr` (coalesced:
    /// one `Load` per touched 128-B segment).
    pub fn load_span(&mut self, addr: u64, bytes: u64) {
        for seg in segments(addr, bytes) {
            self.push(Op::Load(seg));
        }
    }

    /// Emits stores covering `bytes` bytes starting at `addr`.
    pub fn store_span(&mut self, addr: u64, bytes: u64) {
        for seg in segments(addr, bytes) {
            self.push(Op::Store(seg));
        }
    }

    /// Emits atomic adds covering `bytes` at `addr`, tagged with `row`.
    pub fn atomic_span(&mut self, row: u32, addr: u64, bytes: u64) {
        for seg in segments(addr, bytes) {
            self.push(Op::AtomicAdd { row, seg });
        }
    }

    /// The warp's ops, decoded in push order.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        let mut words = self.words.iter();
        std::iter::from_fn(move || {
            let word = *words.next()?;
            let payload = word & PAYLOAD;
            Some(match word >> TAG_SHIFT {
                FMA => Op::Fma(payload as u32),
                ALU => Op::Alu(payload as u32),
                LOAD => Op::Load(payload),
                STORE => Op::Store(payload),
                ATOMIC => Op::AtomicAdd {
                    row: payload as u32,
                    seg: *words.next().expect("an atomic op has a segment word"),
                },
                REPLAY => Op::Replay(payload as u32),
                SYNC => Op::Sync(payload as u32),
                tag => unreachable!("instruction word tag {tag}"),
            })
        })
    }

    /// Bytes the packed stream occupies (8 per word, `AtomicAdd` 16).
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// True when the warp does nothing (skipped by the scheduler).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Segment size used for coalescing and L2 lines (fixed at 128 bytes, the
/// CUDA global-memory transaction size; `DeviceProfile::line_bytes` must
/// match).
pub const SEG_BYTES: u64 = 128;

/// The 128-B segment ids touched by `[addr, addr + bytes)`.
pub fn segments(addr: u64, bytes: u64) -> impl Iterator<Item = u64> {
    let first = addr / SEG_BYTES;
    let last = if bytes == 0 {
        first
    } else {
        (addr + bytes - 1) / SEG_BYTES + 1
    };
    let end = if bytes == 0 { first } else { last };
    first..end
}

/// One thread block's work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockWork {
    pub warps: Vec<WarpWork>,
}

impl BlockWork {
    pub fn new() -> BlockWork {
        BlockWork::default()
    }

    pub fn is_empty(&self) -> bool {
        self.warps.iter().all(WarpWork::is_empty)
    }
}

/// A full kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelLaunch {
    pub name: String,
    pub blocks: Vec<BlockWork>,
}

impl KernelLaunch {
    pub fn new(name: impl Into<String>) -> KernelLaunch {
        KernelLaunch {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    pub fn num_warps(&self) -> usize {
        self.blocks.iter().map(|b| b.warps.len()).sum()
    }

    /// Bytes of the packed instruction streams of every warp.
    pub fn op_bytes(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.warps)
            .map(WarpWork::bytes)
            .sum()
    }

    /// Drops the growth slack of every warp's instruction stream, for a
    /// launch that is complete and kept. A stream with slack is copied
    /// into an exact allocation rather than shrunk in place: an in-place
    /// shrink frees an odd-sized tail per warp, and tens of thousands of
    /// those slowed the allocations of the next capture by a third.
    pub fn trim(&mut self) {
        for warp in self.blocks.iter_mut().flat_map(|b| &mut b.warps) {
            if warp.words.capacity() > warp.words.len() {
                warp.words = warp.words.to_vec();
            }
        }
    }
}

/// Bump allocator handing out synthetic device addresses, 128-B aligned.
/// Each tensor/factor array gets an [`ArraySpan`]; kernels derive element
/// and row addresses from it so the cache model sees realistic layouts.
#[derive(Debug, Default)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    pub fn new() -> AddressSpace {
        AddressSpace { next: 0 }
    }

    /// Reserves `bytes` bytes; returns the array descriptor.
    pub fn alloc(&mut self, bytes: u64) -> ArraySpan {
        let base = self.next;
        let padded = bytes.div_ceil(SEG_BYTES) * SEG_BYTES;
        self.next += padded.max(SEG_BYTES);
        ArraySpan { base, bytes }
    }

    /// Reserves space for `n` elements of `elem` bytes.
    pub fn alloc_elems(&mut self, n: usize, elem: u64) -> ArraySpan {
        self.alloc((n as u64).saturating_mul(elem))
    }

    /// Total bytes reserved so far (segment-padded) — a plan's complete
    /// device-memory footprint once every array has been laid out.
    pub fn total_bytes(&self) -> u64 {
        self.next
    }
}

/// A contiguous synthetic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpan {
    pub base: u64,
    pub bytes: u64,
}

impl ArraySpan {
    /// Address of element `i` with `elem`-byte elements.
    #[inline]
    pub fn elem(&self, i: usize, elem: u64) -> u64 {
        self.base + i as u64 * elem
    }

    /// Address of row `r` of a row-major matrix with `row_bytes` rows —
    /// the factor-matrix access every MTTKRP kernel performs.
    #[inline]
    pub fn row(&self, r: usize, row_bytes: u64) -> u64 {
        self.base + r as u64 * row_bytes
    }

    /// Bytes this span occupies in an [`AddressSpace`]: the request padded
    /// to whole 128-B segments (matching [`AddressSpace::alloc`]).
    pub fn padded_bytes(&self) -> u64 {
        (self.bytes.div_ceil(SEG_BYTES).saturating_mul(SEG_BYTES)).max(SEG_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_span() {
        assert_eq!(segments(0, 128).collect::<Vec<_>>(), vec![0]);
        assert_eq!(segments(0, 129).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(segments(120, 16).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(segments(256, 0).count(), 0);
        assert_eq!(segments(130, 1).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn load_span_emits_coalesced_ops() {
        let mut w = WarpWork::new();
        w.load_span(100, 128); // crosses a boundary -> 2 segments
        assert_eq!(w.ops().collect::<Vec<_>>(), [Op::Load(0), Op::Load(1)]);
    }

    #[test]
    fn extreme_payloads_round_trip() {
        let ops = [
            Op::Fma(u32::MAX),
            Op::AtomicAdd {
                row: u32::MAX,
                seg: (1 << 57) - 1,
            },
            Op::Load((1 << 61) - 1),
            Op::Store(0),
            Op::Sync(u32::MAX),
        ];
        let mut w = WarpWork::new();
        for op in ops {
            w.push(op);
        }
        assert_eq!(w.ops().collect::<Vec<_>>(), ops);
        assert_eq!(w.bytes(), 6 * 8);
    }

    #[test]
    #[should_panic(expected = "does not fit an instruction word")]
    fn oversized_load_payload_panics() {
        WarpWork::new().push(Op::Load(1 << 61));
    }

    #[test]
    fn address_space_is_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        let x = a.alloc(100);
        let y = a.alloc(300);
        assert_eq!(x.base % SEG_BYTES, 0);
        assert_eq!(y.base % SEG_BYTES, 0);
        assert!(y.base >= x.base + 100);
        // Rows of a 32-col f32 matrix are 128 B apart.
        assert_eq!(y.row(3, 128) - y.row(2, 128), 128);
    }

    #[test]
    fn zero_sized_alloc_still_advances() {
        let mut a = AddressSpace::new();
        let x = a.alloc(0);
        let y = a.alloc(0);
        assert_ne!(x.base, y.base);
    }
}
