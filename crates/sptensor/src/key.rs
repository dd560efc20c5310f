//! One packed coordinate key: the comparison behind every coordinate sort.
//!
//! Sorting nonzeros under a mode order compares coordinate tuples
//! lexicographically. [`CoordKey`] packs each entry's coordinates on the
//! longest prefix of the order whose fields fit in 64 bits into one
//! `u64`, first mode in the most significant field, so most comparisons
//! cost one integer compare. Each field is as wide as the largest
//! coordinate *present* in its mode, not the mode's extent, so no value
//! can spill into a neighbouring field. The modes past the prefix are
//! compared one by one, and only when two keys tie.
//!
//! [`CoordKey::cmp`] returns what [`cmp_under`] returns for every pair,
//! `Equal` included. A `sort_unstable_by` over the same `u32` ids from
//! the same start therefore makes the same moves through either, and
//! leaves the same permutation, ties among equal coordinates included.

use core::cmp::Ordering;

use crate::Index;

/// Packed sort keys over coordinate columns (`cols[mode][entry]`) under
/// one mode order.
pub(crate) struct CoordKey<'a> {
    keys: Vec<u64>,
    cols: &'a [Vec<Index>],
    /// The modes of the order that did not fit in the key.
    tail: &'a [usize],
}

impl<'a> CoordKey<'a> {
    /// Packs the key of every entry under `perm`, a permutation of the
    /// modes of `cols`.
    pub(crate) fn new(cols: &'a [Vec<Index>], perm: &'a [usize]) -> Self {
        let mut keys = vec![0u64; cols.first().map_or(0, Vec::len)];
        let mut used = 0;
        let mut packed = 0;
        for &m in perm {
            let width = cols[m]
                .iter()
                .max()
                .map_or(0, |&c| Index::BITS - c.leading_zeros());
            if used + width > u64::BITS {
                break;
            }
            if width > 0 {
                for (k, &c) in keys.iter_mut().zip(&cols[m]) {
                    *k = (*k << width) | u64::from(c);
                }
            }
            used += width;
            packed += 1;
        }
        CoordKey {
            keys,
            cols,
            tail: &perm[packed..],
        }
    }

    /// Entries `a` and `b` compared by their coordinates under the order.
    #[inline]
    pub(crate) fn cmp(&self, a: u32, b: u32) -> Ordering {
        self.keys[a as usize]
            .cmp(&self.keys[b as usize])
            .then_with(|| cmp_under(self.cols, self.tail, a, b))
    }
}

/// Entries `a` and `b` compared by their coordinates under `perm`, one
/// mode at a time.
#[inline]
pub(crate) fn cmp_under(cols: &[Vec<Index>], perm: &[usize], a: u32, b: u32) -> Ordering {
    for &m in perm {
        match cols[m][a as usize].cmp(&cols[m][b as usize]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair compares as the per-mode comparison does.
    fn assert_agrees(cols: &[Vec<Index>], perm: &[usize]) {
        let key = CoordKey::new(cols, perm);
        let n = cols[0].len() as u32;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(key.cmp(a, b), cmp_under(cols, perm, a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn narrow_modes_pack_whole() {
        let cols = vec![vec![3, 0, 3, 1], vec![0, 0, 0, 0], vec![7, 2, 7, 9]];
        let key = CoordKey::new(&cols, &[2, 1, 0]);
        assert!(key.tail.is_empty());
        assert_agrees(&cols, &[2, 1, 0]);
        assert_agrees(&cols, &[0, 1, 2]);
    }

    #[test]
    fn wide_modes_fall_back_to_the_tail() {
        let big = u32::MAX;
        let cols = vec![
            vec![big, big, big - 1, big],
            vec![big, big - 1, big, big],
            vec![1, 0, 1, 0],
        ];
        let key = CoordKey::new(&cols, &[0, 1, 2]);
        assert_eq!(key.tail, &[2]);
        assert_agrees(&cols, &[0, 1, 2]);
        assert_agrees(&cols, &[2, 0, 1]);
    }
}
