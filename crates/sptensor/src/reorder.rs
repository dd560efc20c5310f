//! Nonzero- and index-reordering strategies.
//!
//! The paper's conclusion lists "various reordering methods (Z-order
//! sorting, graph and hypergraph partitioning)" as complementary
//! optimizations to integrate with HB-CSF. This module implements the
//! lightweight members of that family:
//!
//! * [`morton_sort`] — Z-order (Morton) sorting of nonzeros, which
//!   clusters spatially-near nonzeros and improves factor-row reuse for
//!   nonzero-parallel kernels (HiCOO's layout idea applied to plain COO).
//! * [`relabel_mode_heavy_first`] — renumbers one mode's indices by
//!   descending slice volume. Since GPU kernels launch blocks in slice
//!   order, this is the classic LPT (longest-processing-time-first)
//!   heuristic applied to the block schedule.
//! * [`relabel_mode_random`] — seeded random renumbering, the control
//!   baseline for reordering experiments.
//!
//! All functions are value-preserving permutations: the returned tensor
//! holds exactly the same nonzeros (relabeling also returns the index map
//! so factor matrices / results can be permuted consistently).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{CooTensor, Index};

/// Sorts nonzeros by the Morton (Z-order) code of their coordinates.
/// Supports orders up to 8 (32 bits per coordinate, 128-bit keys hold
/// 8 × 16 interleaved bits; extents above 2^16 lose low-bit precision in
/// the interleave for order > 4, which only blurs — never breaks — the
/// ordering's locality).
pub fn morton_sort(t: &CooTensor) -> CooTensor {
    let order = t.order();
    assert!(order <= 8, "morton_sort supports order <= 8");
    let n = t.nnz();
    // Bits per coordinate that fit the 128-bit key.
    let bits = (128 / order).min(32) as u32;
    let mut keyed: Vec<(u128, u32)> = (0..n)
        .map(|z| {
            let mut key: u128 = 0;
            for b in (0..bits).rev() {
                for m in 0..order {
                    let c = t.mode_indices(m)[z];
                    let bit = if b < 32 { (c >> b) & 1 } else { 0 };
                    key = (key << 1) | bit as u128;
                }
            }
            (key, z as u32)
        })
        .collect();
    keyed.sort_unstable_by_key(|&(k, _)| k);

    let inds = (0..order)
        .map(|m| {
            let src = t.mode_indices(m);
            keyed.iter().map(|&(_, z)| src[z as usize]).collect()
        })
        .collect();
    let vals = keyed.iter().map(|&(_, z)| t.values()[z as usize]).collect();
    CooTensor::from_parts(t.dims().to_vec(), inds, vals)
}

/// Renumbers mode `mode` so the index with the most nonzeros becomes 0,
/// the next-heaviest 1, and so on (ties by original index, so the result
/// is deterministic). Returns the relabeled tensor and the map
/// `new_index[old_index]`.
pub fn relabel_mode_heavy_first(t: &CooTensor, mode: usize) -> (CooTensor, Vec<Index>) {
    let extent = t.dims()[mode] as usize;
    let mut volume = vec![0u32; extent];
    for &i in t.mode_indices(mode) {
        volume[i as usize] += 1;
    }
    let mut order_v: Vec<u32> = (0..extent as u32).collect();
    order_v.sort_by_key(|&i| (std::cmp::Reverse(volume[i as usize]), i));
    let mut map = vec![0 as Index; extent];
    for (new, &old) in order_v.iter().enumerate() {
        map[old as usize] = new as Index;
    }
    (apply_mode_map(t, mode, &map), map)
}

/// Renumbers mode `mode` with a seeded random permutation (the control
/// for reordering experiments). Returns the tensor and the map.
pub fn relabel_mode_random(t: &CooTensor, mode: usize, seed: u64) -> (CooTensor, Vec<Index>) {
    use rand::seq::SliceRandom;
    let extent = t.dims()[mode] as usize;
    let mut map: Vec<Index> = (0..extent as Index).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    map.shuffle(&mut rng);
    (apply_mode_map(t, mode, &map), map)
}

/// Applies `map` (a bijection on mode-`mode` indices) to every nonzero.
fn apply_mode_map(t: &CooTensor, mode: usize, map: &[Index]) -> CooTensor {
    assert_eq!(map.len(), t.dims()[mode] as usize, "map length mismatch");
    debug_assert!(is_bijection(map), "map must be a bijection");
    let inds = (0..t.order())
        .map(|m| {
            let src = t.mode_indices(m);
            if m == mode {
                src.iter().map(|&i| map[i as usize]).collect()
            } else {
                src.to_vec()
            }
        })
        .collect();
    CooTensor::from_parts(t.dims().to_vec(), inds, t.values().to_vec())
}

fn is_bijection(map: &[Index]) -> bool {
    let mut seen = vec![false; map.len()];
    for &m in map {
        if m as usize >= map.len() || seen[m as usize] {
            return false;
        }
        seen[m as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::identity_perm;
    use crate::synth::uniform_random;

    fn entry_set(t: &CooTensor) -> Vec<(Vec<Index>, u32)> {
        let mut v: Vec<_> = t
            .iter_entries()
            .map(|e| (e.coords, e.val.to_bits()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn morton_preserves_entries() {
        let t = uniform_random(&[40, 50, 60], 800, 31);
        let m = morton_sort(&t);
        assert_eq!(entry_set(&m), entry_set(&t));
    }

    #[test]
    fn morton_clusters_neighbours() {
        // Two spatial clusters; after Morton sorting each cluster's
        // entries must be contiguous.
        let mut t = CooTensor::new(vec![256, 256, 256]);
        for d in 0..20u32 {
            t.push(&[d % 4, (d * 3) % 4, d % 4], 1.0); // cluster at origin
            t.push(&[200 + d % 4, 200, 200 + (d * 7) % 4], 2.0); // far cluster
        }
        let m = morton_sort(&t);
        // All value-1.0 entries precede all value-2.0 entries.
        let first_far = m.values().iter().position(|&v| v == 2.0).unwrap();
        assert!(m.values()[first_far..].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn morton_order4_works() {
        let t = uniform_random(&[16, 16, 16, 16], 500, 32);
        let m = morton_sort(&t);
        assert_eq!(entry_set(&m), entry_set(&t));
    }

    #[test]
    fn heavy_first_sorts_volumes_descending() {
        let mut t = CooTensor::new(vec![4, 8, 8]);
        // volumes: idx0=1, idx1=3, idx2=0, idx3=2
        t.push(&[0, 0, 0], 1.0);
        for j in 0..3 {
            t.push(&[1, j, 0], 1.0);
        }
        for j in 0..2 {
            t.push(&[3, j, 1], 1.0);
        }
        let (r, map) = relabel_mode_heavy_first(&t, 0);
        assert_eq!(map, vec![2, 0, 3, 1]); // new labels per old index
                                           // New volumes must be non-increasing.
        let mut vol = vec![0u32; 4];
        for &i in r.mode_indices(0) {
            vol[i as usize] += 1;
        }
        assert!(vol.windows(2).all(|w| w[0] >= w[1]), "{vol:?}");
        assert_eq!(r.nnz(), t.nnz());
    }

    #[test]
    fn random_relabel_is_seeded_bijection() {
        let t = uniform_random(&[30, 10, 10], 300, 33);
        let (a, map_a) = relabel_mode_random(&t, 0, 5);
        let (b, map_b) = relabel_mode_random(&t, 0, 5);
        assert_eq!(a, b);
        assert_eq!(map_a, map_b);
        assert!(is_bijection(&map_a));
        let (c, _) = relabel_mode_random(&t, 0, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn relabel_then_inverse_round_trips() {
        let t = uniform_random(&[20, 15, 10], 250, 34);
        let (r, map) = relabel_mode_heavy_first(&t, 0);
        // Invert the map.
        let mut inv = vec![0 as Index; map.len()];
        for (old, &new) in map.iter().enumerate() {
            inv[new as usize] = old as Index;
        }
        let mut back = apply_mode_map(&r, 0, &inv);
        back.sort_by_perm(&identity_perm(3));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(3));
        assert_eq!(back, orig);
    }
}
