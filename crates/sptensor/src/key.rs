//! One packed coordinate key: the comparison behind every coordinate
//! sort, and the index half of every spill run record.
//!
//! Sorting nonzeros under a mode order compares coordinate tuples
//! lexicographically. A [`KeyLayout`] packs each entry's coordinates on
//! the longest prefix of the order whose fields fit in 64 bits into one
//! `u64`, first mode in the most significant field, so most comparisons
//! cost one integer compare. Each field is as wide as the largest
//! coordinate *present* in its mode, not the mode's extent, so no value
//! can spill into a neighbouring field. The modes past the prefix form
//! the tail; they are compared one by one, and only when two keys tie.
//!
//! [`CoordKey::cmp`] returns what [`cmp_under`] returns for every pair,
//! `Equal` included. A `sort_unstable_by` over the same `u32` ids from
//! the same start therefore makes the same moves through either, and
//! leaves the same permutation, ties among equal coordinates included.

use core::cmp::Ordering;

use crate::Index;

/// How coordinates pack under one mode order: the key holds the prefix
/// fields, first mode most significant, and the modes left over form the
/// tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyLayout {
    /// `(mode, width in bits)` per packed field, most significant first.
    fields: Vec<(usize, u32)>,
    tail: Vec<usize>,
}

impl KeyLayout {
    /// The layout under `perm`, a permutation of the modes, for entries
    /// whose coordinates in mode `m` are at most `maxima[m]`.
    pub(crate) fn new(maxima: &[Index], perm: &[usize]) -> Self {
        let mut fields = Vec::with_capacity(perm.len());
        let mut used = 0;
        for &m in perm {
            let width = Index::BITS - maxima[m].leading_zeros();
            if used + width > u64::BITS {
                break;
            }
            used += width;
            fields.push((m, width));
        }
        KeyLayout {
            tail: perm[fields.len()..].to_vec(),
            fields,
        }
    }

    /// The layout under `perm` sized from the largest coordinate of each
    /// column (`cols[mode][entry]`).
    pub(crate) fn of_columns(cols: &[Vec<Index>], perm: &[usize]) -> Self {
        let maxima: Vec<Index> = cols
            .iter()
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect();
        KeyLayout::new(&maxima, perm)
    }

    /// The modes past the key, in the order's sequence.
    pub(crate) fn tail(&self) -> &[usize] {
        &self.tail
    }

    /// The key of one entry whose coordinate in mode `m` is `coord(m)`.
    #[inline]
    pub(crate) fn pack(&self, coord: impl Fn(usize) -> Index) -> u64 {
        self.fields
            .iter()
            .fold(0, |k, &(m, width)| k << width | u64::from(coord(m)))
    }

    /// Writes back the coordinates of the entry with `key` and tail
    /// coordinates `tail` into `coords`, indexed by mode.
    #[inline]
    pub(crate) fn unpack(&self, mut key: u64, tail: &[Index], coords: &mut [Index]) {
        for &(m, width) in self.fields.iter().rev() {
            coords[m] = (key & ((1 << width) - 1)) as Index;
            key >>= width;
        }
        for (&m, &c) in self.tail.iter().zip(tail) {
            coords[m] = c;
        }
    }
}

/// Packed sort keys over coordinate columns (`cols[mode][entry]`) under
/// one mode order.
pub(crate) struct CoordKey<'a> {
    keys: Vec<u64>,
    cols: &'a [Vec<Index>],
    /// The modes of the order that did not fit in the key.
    tail: Vec<usize>,
}

impl<'a> CoordKey<'a> {
    /// Packs the key of every entry under `perm`, a permutation of the
    /// modes of `cols`.
    pub(crate) fn new(cols: &'a [Vec<Index>], perm: &[usize]) -> Self {
        let layout = KeyLayout::of_columns(cols, perm);
        CoordKey {
            keys: (0..cols.first().map_or(0, Vec::len))
                .map(|i| layout.pack(|m| cols[m][i]))
                .collect(),
            cols,
            tail: layout.tail,
        }
    }

    /// Entries `a` and `b` compared by their coordinates under the order.
    #[inline]
    pub(crate) fn cmp(&self, a: u32, b: u32) -> Ordering {
        self.keys[a as usize]
            .cmp(&self.keys[b as usize])
            .then_with(|| cmp_under(self.cols, &self.tail, a, b))
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

    #[test]
    fn unpack_inverts_pack() {
        let big = u32::MAX;
        // 32 + 0 + 32 bits fill the key exactly; the last mode is tail.
        let maxima = [big, 0, big, 9];
        let layout = KeyLayout::new(&maxima, &[2, 1, 0, 3]);
        assert_eq!(layout.tail(), &[3]);
        for coords in [[big, 0, big, 9], [0, 0, 1, 0], [big - 7, 0, 3, 5]] {
            let key = layout.pack(|m| coords[m]);
            let mut back = [1; 4];
            layout.unpack(key, &[coords[3]], &mut back);
            assert_eq!(back, coords);
        }
    }
}
