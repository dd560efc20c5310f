//! Mode permutations and orientation helpers.
//!
//! A *mode orientation* for MTTKRP mode `n` of an order-`N` tensor is a
//! permutation of the modes that places mode `n` first (the "slice" level of
//! the CSF tree) and leaves the remaining modes in ascending order, matching
//! SPLATT's ALLMODE convention: the output mode owns the root level so the
//! kernel never needs atomics across slices.

/// A permutation of tensor modes. `perm[level] = original mode index` —
/// i.e. level 0 of a CSF tree built with this permutation enumerates the
/// indices of original mode `perm[0]`.
pub type ModePerm = Vec<usize>;

/// The identity permutation over `order` modes.
pub fn identity_perm(order: usize) -> ModePerm {
    (0..order).collect()
}

/// The orientation used for a mode-`mode` MTTKRP: `mode` first, the other
/// modes following in ascending original order.
///
/// ```
/// assert_eq!(sptensor::mode_orientation(3, 1), vec![1, 0, 2]);
/// assert_eq!(sptensor::mode_orientation(4, 3), vec![3, 0, 1, 2]);
/// ```
pub fn mode_orientation(order: usize, mode: usize) -> ModePerm {
    assert!(mode < order, "mode {mode} out of range for order {order}");
    let mut perm = Vec::with_capacity(order);
    perm.push(mode);
    perm.extend((0..order).filter(|&m| m != mode));
    perm
}

/// Validates that `perm` is a permutation of `0..order`.
pub fn is_valid_perm(perm: &[usize], order: usize) -> bool {
    if perm.len() != order {
        return false;
    }
    let mut seen = vec![false; order];
    for &p in perm {
        if p >= order || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Inverse permutation: if `perm[level] = mode`, then `inv[mode] = level`.
pub fn invert_perm(perm: &[usize]) -> ModePerm {
    let mut inv = vec![0usize; perm.len()];
    for (level, &mode) in perm.iter().enumerate() {
        inv[mode] = level;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_valid() {
        let p = identity_perm(5);
        assert!(is_valid_perm(&p, 5));
        assert_eq!(p, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn orientation_puts_mode_first() {
        for order in 1..6 {
            for mode in 0..order {
                let p = mode_orientation(order, mode);
                assert!(is_valid_perm(&p, order));
                assert_eq!(p[0], mode);
                // Remaining modes ascend.
                let rest: Vec<_> = p[1..].to_vec();
                let mut sorted = rest.clone();
                sorted.sort_unstable();
                assert_eq!(rest, sorted);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn orientation_rejects_bad_mode() {
        mode_orientation(3, 3);
    }

    #[test]
    fn invert_round_trips() {
        let p = vec![2, 0, 3, 1];
        let inv = invert_perm(&p);
        for (level, &mode) in p.iter().enumerate() {
            assert_eq!(inv[mode], level);
        }
    }

    #[test]
    fn invalid_perms_detected() {
        assert!(!is_valid_perm(&[0, 0, 1], 3));
        assert!(!is_valid_perm(&[0, 1], 3));
        assert!(!is_valid_perm(&[0, 1, 3], 3));
        assert!(is_valid_perm(&[2, 1, 0], 3));
    }
}
