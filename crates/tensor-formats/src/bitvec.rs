//! Minimal bit vector used by the F-COO format's flag arrays.

/// A fixed-length bit vector backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> BitVec {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// If `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    /// If `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Storage footprint in bytes (what Fig. 16 charges F-COO per flag
    /// array: one bit per nonzero, byte-rounded).
    pub fn storage_bytes(&self) -> u64 {
        (self.len as u64).div_ceil(8)
    }
}

impl crate::storage::ArrayBytes for BitVec {
    /// The backing words, whole.
    fn array_bytes(&self) -> u64 {
        std::mem::size_of_val(self.words.as_slice()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut b = BitVec::zeros(130);
        assert_eq!(b.len(), 130);
        for i in [0, 1, 63, 64, 65, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 6);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn storage_is_byte_rounded() {
        assert_eq!(BitVec::zeros(0).storage_bytes(), 0);
        assert_eq!(BitVec::zeros(1).storage_bytes(), 1);
        assert_eq!(BitVec::zeros(8).storage_bytes(), 1);
        assert_eq!(BitVec::zeros(9).storage_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }
}
