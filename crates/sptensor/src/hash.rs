//! The workspace's two non-cryptographic hashes: FNV-1a, which checksums
//! every binary file ([`crate::frame`]) and mixes names into seeds, and
//! SplitMix64, which turns counters into well-distributed bits ([`u01`]
//! maps them to floats).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a state. [`Fnv1a::bytes`] folds one byte per step, the
/// classic hash; [`Fnv1a::word`] folds a whole `u64` per step, which
/// costs a seventh as much per byte. Each step `h ↦ (h ^ x)·prime` is a
/// bijection of the state for a fixed input (the prime is odd), so two
/// inputs that differ in one step always leave different states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

/// The state at the FNV offset basis.
impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Folds `bytes`, one byte per step.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.word(u64::from(b));
        }
        self
    }

    /// Folds one 64-bit word in one step.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
        self
    }
}

/// Maps a hash to a uniform float in `[0, 1)` (its top 53 bits).
pub fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64: a full-period 64-bit mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_is_the_reference_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::default().bytes(b"").0, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::default().bytes(b"a").0, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::default().bytes(b"foobar").0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_matches_its_reference_outputs() {
        // The first outputs of the reference generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }
}
