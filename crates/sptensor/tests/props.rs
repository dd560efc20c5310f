//! Property-based invariants of the COO core.

use proptest::prelude::*;
use sptensor::dims::{identity_perm, invert_perm, mode_orientation};
use sptensor::{CooTensor, Entry};

/// Strategy: a small random tensor of order 2-4.
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2usize..=4)
        .prop_flat_map(|order| {
            let dims = proptest::collection::vec(1u32..12, order);
            dims.prop_flat_map(move |dims| {
                let entry = dims.iter().map(|&d| (0..d).boxed()).collect::<Vec<_>>();
                let coords = entry;
                let one = (
                    coords.into_iter().collect::<Vec<BoxedStrategy<u32>>>(),
                    -10.0f32..10.0,
                )
                    .prop_map(|(c, v)| Entry { coords: c, val: v });
                proptest::collection::vec(one, 0..60)
                    .prop_map(move |es| CooTensor::from_entries(dims.clone(), es))
            })
        })
        .boxed()
}

proptest! {
    #[test]
    fn sort_preserves_multiset(t in arb_tensor()) {
        let mut sorted = t.clone();
        sorted.sort_by_perm(&identity_perm(t.order()));
        prop_assert!(sorted.is_sorted_by_perm(&identity_perm(t.order())));
        prop_assert_eq!(sorted.nnz(), t.nnz());
        // Same entries, order-insensitively.
        let mut a: Vec<_> = t.iter_entries().map(|e| (e.coords, e.val.to_bits())).collect();
        let mut b: Vec<_> = sorted.iter_entries().map(|e| (e.coords, e.val.to_bits())).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sorting_under_any_orientation_sorts(t in arb_tensor(), mode_sel in 0usize..4) {
        let mode = mode_sel % t.order();
        let perm = mode_orientation(t.order(), mode);
        let mut s = t.clone();
        s.sort_by_perm(&perm);
        prop_assert!(s.is_sorted_by_perm(&perm));
        prop_assert_eq!(s.value_sum(), t.value_sum());
    }

    #[test]
    fn fold_duplicates_preserves_value_sum(t in arb_tensor()) {
        let mut s = t.clone();
        s.sort_by_perm(&identity_perm(t.order()));
        let before = s.value_sum();
        let folded = s.fold_duplicates();
        prop_assert!((s.value_sum() - before).abs() < 1e-3);
        prop_assert_eq!(s.nnz() + folded, t.nnz());
        // No duplicates remain.
        for z in 1..s.nnz() {
            let same = (0..s.order()).all(|m| s.mode_indices(m)[z] == s.mode_indices(m)[z - 1]);
            prop_assert!(!same, "duplicate survived at {z}");
        }
    }

    #[test]
    fn tns_text_round_trips(t in arb_tensor()) {
        // Values written in decimal survive up to f32 print precision;
        // compare structurally with a tolerance on values.
        prop_assume!(t.nnz() > 0);
        let mut buf = Vec::new();
        sptensor::io::write_tns(&t, &mut buf).unwrap();
        // arb_tensor() may emit duplicate coordinates; Keep preserves them
        // verbatim (the default Reject policy is exercised in io's own tests).
        let back = sptensor::ingest(
            sptensor::TnsSource::new(std::io::BufReader::new(&buf[..])),
            &sptensor::IngestOptions::new().with_policy(sptensor::DuplicatePolicy::Keep),
        )
        .unwrap();
        prop_assert_eq!(back.nnz(), t.nnz());
        // Extents are per-mode maxima, never larger than the original.
        for m in 0..t.order() {
            prop_assert!(back.dims()[m] <= t.dims()[m]);
        }
        for (a, b) in back.iter_entries().zip(t.iter_entries()) {
            prop_assert_eq!(a.coords, b.coords);
            prop_assert!((a.val - b.val).abs() <= 1e-5 * b.val.abs().max(1.0));
        }
    }

    #[test]
    fn binary_round_trips_exactly(t in arb_tensor()) {
        let mut buf = Vec::new();
        sptensor::io::write_bin(&t, &mut buf).unwrap();
        let src = sptensor::BinSource::new(&buf[..], buf.len() as u64).unwrap();
        let back = sptensor::ingest(
            src,
            &sptensor::IngestOptions::new().with_policy(sptensor::DuplicatePolicy::Keep),
        )
        .unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn tns_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Arbitrary bytes must produce Ok or Err, never a panic.
        let opts = sptensor::IngestOptions::new();
        let _ = sptensor::ingest(
            sptensor::TnsSource::new(std::io::BufReader::new(&bytes[..])),
            &opts,
        );
        if let Ok(src) = sptensor::BinSource::new(&bytes[..], bytes.len() as u64) {
            let _ = sptensor::ingest(src, &opts);
        }
    }

    #[test]
    fn streaming_ingest_equals_incore_across_chunk_sizes(
        t in arb_tensor(),
        // 1 (worst case), a prime, and >= any generated nnz.
        chunk_sel in 0usize..3,
    ) {
        prop_assume!(t.nnz() > 0);
        let mut buf = Vec::new();
        sptensor::io::write_tns(&t, &mut buf).unwrap();
        let chunk = [1usize, 13, 1 << 16][chunk_sel];
        for policy in [sptensor::DuplicatePolicy::Sum, sptensor::DuplicatePolicy::Keep] {
            let opts = sptensor::IngestOptions::new().with_policy(policy);
            let incore = sptensor::ingest(
                sptensor::TnsSource::new(std::io::BufReader::new(&buf[..])),
                &opts,
            )
            .unwrap();
            let chunked = sptensor::ingest(
                sptensor::TnsSource::new(std::io::BufReader::new(&buf[..])),
                &opts.clone().with_chunk_nnz(chunk),
            )
            .unwrap();
            prop_assert_eq!(&chunked, &incore, "chunk {} policy {:?}", chunk, policy);
        }
        // The spilled pipeline under Sum folds duplicates in first-seen
        // order over globally sorted coordinates: exactly what a stable
        // canonical sort + fold of the Keep tensor produces.
        let dir = std::env::temp_dir().join(format!("sptk_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sum_opts = sptensor::IngestOptions::new()
            .with_policy(sptensor::DuplicatePolicy::Sum)
            .with_chunk_nnz(chunk);
        let spilled = sptensor::SpilledTensor::ingest(
            sptensor::TnsSource::new(std::io::BufReader::new(&buf[..])),
            &sum_opts,
            &dir,
        )
        .unwrap();
        let streamed = spilled.to_coo().unwrap();
        let mut expect = sptensor::ingest(
            sptensor::TnsSource::new(std::io::BufReader::new(&buf[..])),
            &sptensor::IngestOptions::new().with_policy(sptensor::DuplicatePolicy::Keep),
        )
        .unwrap();
        expect.sort_by_perm_stable(&identity_perm(expect.order()));
        expect.fold_duplicates();
        prop_assert_eq!(streamed, expect, "spilled Sum != stable-sorted fold");
    }

    #[test]
    fn morton_sort_preserves_multiset(t in arb_tensor()) {
        let m = sptensor::reorder::morton_sort(&t);
        let mut a: Vec<_> = t.iter_entries().map(|e| (e.coords, e.val.to_bits())).collect();
        let mut b: Vec<_> = m.iter_entries().map(|e| (e.coords, e.val.to_bits())).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn heavy_first_relabel_is_volume_sorted(t in arb_tensor()) {
        let (r, map) = sptensor::reorder::relabel_mode_heavy_first(&t, 0);
        prop_assert_eq!(r.nnz(), t.nnz());
        let mut vol = vec![0u32; t.dims()[0] as usize];
        for &i in r.mode_indices(0) {
            vol[i as usize] += 1;
        }
        prop_assert!(vol.windows(2).all(|w| w[0] >= w[1]));
        // Map is a bijection.
        let mut seen = vec![false; map.len()];
        for &m in &map {
            prop_assert!(!seen[m as usize]);
            seen[m as usize] = true;
        }
    }

    #[test]
    fn permute_modes_round_trip(t in arb_tensor()) {
        // Reverse-order permutation is its own class of shuffle.
        let perm: Vec<usize> = (0..t.order()).rev().collect();
        let p = t.permute_modes(&perm);
        let back = p.permute_modes(&invert_perm(&perm));
        prop_assert_eq!(back, t);
    }
}
