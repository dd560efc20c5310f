//! Oracle for the packed coordinate key behind every coordinate sort.
//!
//! Each sort is checked against a per-mode comparison written here:
//! the argsort behind `sorted`/`sort_by_perm` must equal
//! `sort_unstable_by` of that comparison over the same `0..n` ids,
//! position for position (ties among duplicates included), and the
//! stable sort and the spill runs must equal the total (coords, id) and
//! (coords, line) orders; the spill's order is read from the values,
//! which are entry ids. Modes mix tiny extents, all-zero coordinates
//! (zero-width key fields), coordinates near `u32::MAX` (fields past 64
//! bits, so the tail comparison runs) and small coordinates under a
//! `u32::MAX` extent (fields sized from the data, not the extent).

use core::cmp::Ordering;

use proptest::prelude::*;
use sptensor::{CooChunk, CooSource, CooTensor, DuplicatePolicy, IngestOptions, SortedChunks};
use sptensor::{Index, SpilledTensor};

/// Per-mode shape: (extent, coordinate range).
fn arb_mode() -> impl Strategy<Value = (Index, (Index, Index))> {
    prop_oneof![
        Just((3, (0, 3))),
        (1u32..5).prop_map(|d| (d, (0, 1))),
        Just((u32::MAX, (u32::MAX - 3, u32::MAX))),
        Just((u32::MAX, (0, 50))),
    ]
}

/// A tensor of order 1-6 with pushed duplicates, one mode order over
/// it, and the number of entries per spill chunk.
fn arb_case() -> impl Strategy<Value = (CooTensor, Vec<usize>, usize)> {
    proptest::collection::vec(arb_mode(), 1..7)
        .prop_flat_map(|modes| {
            let order = modes.len();
            let entry: Vec<BoxedStrategy<Index>> = modes
                .iter()
                .map(|&(_, (lo, hi))| (lo..hi).boxed())
                .collect();
            (
                Just(modes),
                proptest::collection::vec(entry, 0..40),
                proptest::collection::vec(0usize..64, 0..8),
                prop_oneof![Just(0usize), Just(1), Just(usize::MAX), Just(usize::MAX)],
                proptest::collection::vec(any::<u32>(), order),
                1usize..9,
            )
        })
        .prop_map(|(modes, mut entries, dups, cap, perm_keys, chunk)| {
            entries.truncate(cap);
            if !entries.is_empty() {
                for d in dups {
                    entries.push(entries[d % entries.len()].clone());
                }
            }
            let dims = modes.iter().map(|&(d, _)| d).collect();
            let inds = (0..modes.len())
                .map(|m| entries.iter().map(|e| e[m]).collect())
                .collect();
            let vals = (0..entries.len()).map(|z| z as f32).collect();
            let mut perm: Vec<usize> = (0..modes.len()).collect();
            perm.sort_by_key(|&m| (perm_keys[m], m));
            (CooTensor::from_parts(dims, inds, vals), perm, chunk)
        })
}

/// Entries `a` and `b` compared one mode at a time under `perm`.
fn cmp_modes(t: &CooTensor, perm: &[usize], a: u32, b: u32) -> Ordering {
    perm.iter()
        .map(|&m| t.mode_indices(m)[a as usize].cmp(&t.mode_indices(m)[b as usize]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

fn ids(t: &CooTensor) -> Vec<u32> {
    (0..t.nnz() as u32).collect()
}

/// The whole stream in one chunk.
fn drain(stream: &mut dyn SortedChunks) -> CooChunk {
    let mut chunk = CooChunk::default();
    stream.next_chunk(usize::MAX, &mut chunk).unwrap();
    chunk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn argsort_makes_the_moves_of_the_per_mode_comparison((t, perm, _chunk) in arb_case()) {
        let mut expect = ids(&t);
        expect.sort_unstable_by(|&a, &b| cmp_modes(&t, &perm, a, b));
        let lines: Vec<u64> = expect.iter().map(|&z| z as u64).collect();
        prop_assert_eq!(drain(&mut t.sorted(&perm)).lines, lines);

        let mut sorted = t.clone();
        sorted.sort_by_perm(&perm);
        let vals: Vec<f32> = expect.iter().map(|&z| z as f32).collect();
        prop_assert_eq!(sorted.values(), &vals[..]);
    }

    #[test]
    fn stable_sort_is_the_coords_then_id_order((t, perm, _chunk) in arb_case()) {
        let mut expect = ids(&t);
        expect.sort_by(|&a, &b| cmp_modes(&t, &perm, a, b).then(a.cmp(&b)));
        let mut sorted = t.clone();
        sorted.sort_by_perm_stable(&perm);
        let vals: Vec<f32> = expect.iter().map(|&z| z as f32).collect();
        prop_assert_eq!(sorted.values(), &vals[..]);
        for m in 0..t.order() {
            let col: Vec<Index> = expect.iter().map(|&z| t.mode_indices(m)[z as usize]).collect();
            prop_assert_eq!(sorted.mode_indices(m), &col[..]);
        }
    }

    #[test]
    fn spill_runs_are_the_coords_then_line_order((t, perm, chunk) in arb_case()) {
        let dir = std::env::temp_dir().join(format!("sptk_coord_key_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let identity: Vec<usize> = (0..t.order()).collect();
        // Entry `z` holds the value `z`, and CooSource numbers it as
        // line `z + 1`, so the values name the (coords, line) order.
        let expect = |perm: &[usize]| {
            let mut order = ids(&t);
            order.sort_by(|&a, &b| cmp_modes(&t, perm, a, b).then(a.cmp(&b)));
            order.iter().map(|&z| z as f32).collect::<Vec<f32>>()
        };
        // One run (the sort alone) and many runs (sort + merge).
        for chunk in [t.nnz().max(1), chunk] {
            let opts = IngestOptions::new()
                .with_policy(DuplicatePolicy::Keep)
                .with_chunk_nnz(chunk);
            let spilled = SpilledTensor::ingest(CooSource::new(t.clone()), &opts, &dir).unwrap();
            prop_assert_eq!(drain(&mut spilled.stream().unwrap()).vals, expect(&identity));
            let resorted = spilled.resort(&perm, &dir, &opts).unwrap();
            prop_assert_eq!(drain(&mut resorted.stream().unwrap()).vals, expect(&perm));
        }
    }
}
