//! The one CSF builder against an independent oracle. `Csf::build_streamed`
//! fills every CSF-based tree, from either source of sorted entries: a
//! resident tensor's argsort view (`CooTensor::sorted`) or the spill
//! pipeline's merge (`SpilledTensor::stream`). Whatever the source, chunk
//! size and order, expanding the tree back to COO must give the input
//! sorted under the stream's own rule, entry for entry — equal
//! coordinates included — and the tree must validate. HB-CSF and B-CSF
//! derived from the tree must keep every entry.
//!
//! A stream that declares more or fewer entries than it yields is an
//! error, not a short or padded tree.

use proptest::prelude::*;
use sptensor::dims::mode_orientation;
use sptensor::{
    CooChunk, CooSource, CooTensor, DuplicatePolicy, IngestOptions, SortedChunks, SpilledTensor,
    TensorError, TensorResult,
};
use tensor_formats::{Bcsf, BcsfOptions, Csf, Hbcsf};

/// Chunk sizes: one entry at a time, a prime, and the whole stream.
fn chunk_sizes(nnz: usize) -> [usize; 3] {
    [1, 7, nnz.max(1)]
}

/// A tensor of order 2–5 over small extents, with some entries pushed
/// again under new values so equal coordinates occur.
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2..=5usize)
        .prop_flat_map(|order| {
            proptest::collection::vec(1u32..7, order).prop_flat_map(move |dims| {
                let coords = dims.iter().map(|&d| (0..d).boxed()).collect::<Vec<_>>();
                let one = (coords, 0.1f32..5.0);
                (
                    proptest::collection::vec(one, 0..90),
                    proptest::collection::vec(0usize..1000, 0..25),
                )
                    .prop_map({
                        let dims = dims.clone();
                        move |(entries, repeats)| {
                            let mut t = CooTensor::new(dims.clone());
                            for (c, v) in &entries {
                                t.push(c, *v);
                            }
                            if t.nnz() > 0 {
                                for (k, r) in repeats.iter().enumerate() {
                                    let c = t.coords_of(r % t.nnz());
                                    t.push(&c, -(k as f32) - 0.5);
                                }
                            }
                            t
                        }
                    })
            })
        })
        .boxed()
}

/// Every entry as (coords, value bits), in stored order.
fn entries(t: &CooTensor) -> Vec<(Vec<u32>, u32)> {
    t.iter_entries()
        .map(|e| (e.coords, e.val.to_bits()))
        .collect()
}

fn sorted_entries(t: &CooTensor) -> Vec<(Vec<u32>, u32)> {
    let mut v = entries(t);
    v.sort();
    v
}

/// Builds from `stream` at every chunk size and holds each tree to
/// `expect` (the input in the stream's order).
fn check_stream(stream: &mut dyn SortedChunks, expect: &CooTensor) -> Result<(), TestCaseError> {
    let order = expect.order();
    for chunk in chunk_sizes(expect.nnz()) {
        let csf = Csf::build_streamed(stream, chunk).unwrap();
        csf.validate().unwrap();
        prop_assert_eq!(entries(&csf.to_coo()), entries(expect), "chunk {}", chunk);
        if order >= 3 {
            let h = Hbcsf::from_csf(csf.clone(), BcsfOptions::default());
            h.validate().unwrap();
            prop_assert_eq!(sorted_entries(&h.to_coo()), sorted_entries(expect));
            let b = Bcsf::from_csf(csf, BcsfOptions::default());
            b.validate().unwrap();
            prop_assert_eq!(sorted_entries(&b.csf.to_coo()), sorted_entries(expect));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn view_builds_expand_to_the_sorted_tensor(t in arb_tensor(), mode_sel in 0usize..5) {
        let perm = mode_orientation(t.order(), mode_sel % t.order());
        // The view's rule: the order `sort_by_perm` leaves.
        let mut expect = t.clone();
        expect.sort_by_perm(&perm);
        check_stream(&mut t.sorted(&perm), &expect)?;
    }

    #[test]
    fn spilled_builds_expand_to_the_sorted_tensor(t in arb_tensor(), mode_sel in 0usize..5) {
        let perm = mode_orientation(t.order(), mode_sel % t.order());
        // The spill's rule: coordinates under `perm`, then arrival.
        let mut expect = t.clone();
        expect.sort_by_perm_stable(&perm);
        let dir = std::env::temp_dir().join(format!("csf_oracle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = IngestOptions::new()
            .with_policy(DuplicatePolicy::Keep)
            .with_chunk_nnz(11);
        let spilled = SpilledTensor::ingest(CooSource::new(t.clone()), &opts, &dir).unwrap();
        let resorted = spilled.resort(&perm, &dir, &opts).unwrap();
        check_stream(&mut resorted.stream().unwrap(), &expect)?;
        drop((resorted, spilled));
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn miscounted_streams_are_errors(t in arb_tensor(), chunk_sel in 0usize..3) {
        let perm = mode_orientation(t.order(), 0);
        let chunk = chunk_sizes(t.nnz())[chunk_sel];
        for delta in [1i64, -1] {
            if t.nnz() == 0 && delta < 0 {
                continue;
            }
            let mut stream = Miscounted { inner: t.sorted(&perm), delta };
            let built = Csf::build_streamed(&mut stream, chunk);
            prop_assert!(
                matches!(built, Err(TensorError::Invalid { context: "csf", .. })),
                "delta {} chunk {}", delta, chunk
            );
        }
    }
}

/// A stream whose declared count is off by `delta` from what it yields.
struct Miscounted<S> {
    inner: S,
    delta: i64,
}

impl<S: SortedChunks> SortedChunks for Miscounted<S> {
    fn dims(&self) -> &[u32] {
        self.inner.dims()
    }

    fn nnz(&self) -> u64 {
        self.inner.nnz().wrapping_add_signed(self.delta)
    }

    fn perm(&self) -> &[usize] {
        self.inner.perm()
    }

    fn next_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        self.inner.next_chunk(max_entries, out)
    }

    fn rewind(&mut self) -> TensorResult<()> {
        self.inner.rewind()
    }
}

#[test]
fn miscount_messages_name_both_counts() {
    let mut t = CooTensor::new(vec![3, 3, 3]);
    for z in 0..5u32 {
        t.push(&[z % 3, (z + 1) % 3, z % 2], z as f32);
    }
    let perm = mode_orientation(3, 1);
    let under = Csf::build_streamed(
        &mut Miscounted {
            inner: t.sorted(&perm),
            delta: -2,
        },
        2,
    );
    let msg = under.unwrap_err().to_string();
    assert!(msg.contains("declared 3"), "{msg}");
    let over = Csf::build_streamed(
        &mut Miscounted {
            inner: t.sorted(&perm),
            delta: 2,
        },
        2,
    );
    let msg = over.unwrap_err().to_string();
    assert!(msg.contains("5 entries, declared 7"), "{msg}");
}
