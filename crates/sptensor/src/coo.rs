//! Canonical coordinate-format (COO) sparse tensor.
//!
//! COO is the paper's baseline representation (Section III-A): each nonzero
//! stores one index per mode plus its value. We keep a structure-of-arrays
//! layout (one index array per mode) so that per-mode sorting, CSF
//! construction, and the MTTKRP kernels all stream contiguous memory.

use core::cmp::Ordering;

use crate::dims::{is_valid_perm, ModePerm};
use crate::key::{cmp_under, CoordKey};
use crate::source::CooChunk;
use crate::spill::SortedChunks;
use crate::{Index, TensorResult, Value};

/// A single nonzero: its full coordinate tuple and value.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub coords: Vec<Index>,
    pub val: Value,
}

/// An order-`N` sparse tensor in coordinate format.
///
/// Invariants (checked by [`CooTensor::validate`] and upheld by all
/// constructors): every index array has the same length as `vals`, and every
/// stored index is strictly less than the corresponding mode's extent.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    dims: Vec<Index>,
    /// `inds[mode][z]` is the mode-`mode` coordinate of nonzero `z`.
    inds: Vec<Vec<Index>>,
    vals: Vec<Value>,
}

impl CooTensor {
    /// An empty tensor with the given mode extents.
    ///
    /// # Panics
    /// If `dims` is empty or any extent is zero.
    pub fn new(dims: Vec<Index>) -> Self {
        assert!(!dims.is_empty(), "tensor must have at least one mode");
        assert!(dims.iter().all(|&d| d > 0), "mode extents must be positive");
        let order = dims.len();
        CooTensor {
            dims,
            inds: vec![Vec::new(); order],
            vals: Vec::new(),
        }
    }

    /// Builds a tensor from an entry list.
    ///
    /// # Panics
    /// If any entry's order mismatches `dims` or an index is out of range.
    pub fn from_entries(dims: Vec<Index>, entries: impl IntoIterator<Item = Entry>) -> Self {
        let mut t = CooTensor::new(dims);
        for e in entries {
            t.push(&e.coords, e.val);
        }
        t
    }

    /// Builds directly from parallel arrays (one index vector per mode).
    ///
    /// # Panics
    /// If array lengths disagree or any index is out of range.
    pub fn from_parts(dims: Vec<Index>, inds: Vec<Vec<Index>>, vals: Vec<Value>) -> Self {
        assert_eq!(inds.len(), dims.len(), "one index array per mode required");
        for (m, arr) in inds.iter().enumerate() {
            assert_eq!(arr.len(), vals.len(), "index array {m} length mismatch");
            assert!(
                arr.iter().all(|&i| i < dims[m]),
                "mode-{m} index out of range"
            );
        }
        CooTensor { dims, inds, vals }
    }

    /// Appends one nonzero.
    ///
    /// # Panics
    /// If `coords.len() != order` or any coordinate is out of range.
    pub fn push(&mut self, coords: &[Index], val: Value) {
        assert_eq!(coords.len(), self.order(), "coordinate arity mismatch");
        for (m, (&c, &d)) in coords.iter().zip(&self.dims).enumerate() {
            assert!(c < d, "mode-{m} index {c} out of range (extent {d})");
        }
        for (arr, &c) in self.inds.iter_mut().zip(coords) {
            arr.push(c);
        }
        self.vals.push(val);
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode extents.
    #[inline]
    pub fn dims(&self) -> &[Index] {
        &self.dims
    }

    /// Number of stored nonzeros (duplicates count until folded).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The index array of one mode (length [`nnz`](Self::nnz)).
    #[inline]
    pub fn mode_indices(&self, mode: usize) -> &[Index] {
        &self.inds[mode]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Mutable access to values (structure is fixed; only magnitudes change).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.vals
    }

    /// The coordinate tuple of nonzero `z`.
    pub fn coords_of(&self, z: usize) -> Vec<Index> {
        self.inds.iter().map(|arr| arr[z]).collect()
    }

    /// Iterator over entries (allocates one coordinate vector per item; use
    /// the raw arrays in hot code).
    pub fn iter_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.nnz()).map(move |z| Entry {
            coords: self.coords_of(z),
            val: self.vals[z],
        })
    }

    /// Fraction of cells that are nonzero: `nnz / prod(dims)` in `f64`.
    pub fn density(&self) -> f64 {
        let cells: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.nnz() as f64 / cells
    }

    /// Checks the structural invariants. All constructors already enforce
    /// them; this exists for tests and for data read from external files.
    pub fn validate(&self) -> Result<(), crate::TensorError> {
        let fail = |msg: String| Err(crate::TensorError::invalid("coo", msg));
        if self.dims.is_empty() {
            return fail("empty dims".into());
        }
        for (m, arr) in self.inds.iter().enumerate() {
            if arr.len() != self.vals.len() {
                return fail(format!("mode {m} index array length mismatch"));
            }
            if let Some(&bad) = arr.iter().find(|&&i| i >= self.dims[m]) {
                return fail(format!("mode {m} index {bad} >= extent {}", self.dims[m]));
            }
        }
        Ok(())
    }

    /// Sorts nonzeros lexicographically by the coordinates *as reordered by
    /// `perm`* — i.e. primary key `inds[perm[0]]`, secondary `inds[perm[1]]`,
    /// and so on. Entries with equal coordinates end in whatever order the
    /// (unstable) sort leaves them; [`CooTensor::sorted`] streams the same
    /// order without moving anything.
    ///
    /// # Panics
    /// If `perm` is not a permutation of the modes.
    pub fn sort_by_perm(&mut self, perm: &ModePerm) {
        let order = self.argsort(perm);
        self.apply_order(&order);
    }

    /// Like [`CooTensor::sort_by_perm`], but entries with identical
    /// coordinate tuples keep their original relative order. This makes
    /// the canonical sort a *total*, algorithm-independent order for
    /// data still carrying duplicates — the same (coords, arrival) key
    /// the external spill-merge sorts by, so in-core and out-of-core
    /// pipelines fold duplicates in the same value order bit for bit.
    ///
    /// # Panics
    /// If `perm` is not a permutation of the modes.
    pub fn sort_by_perm_stable(&mut self, perm: &ModePerm) {
        assert!(
            is_valid_perm(perm, self.order()),
            "invalid mode permutation"
        );
        let mut order: Vec<u32> = (0..self.nnz() as u32).collect();
        let key = CoordKey::new(&self.inds, perm);
        order.sort_unstable_by(|&a, &b| key.cmp(a, b).then(a.cmp(&b)));
        // Free the key before the gathers allocate.
        drop(key);
        self.apply_order(&order);
    }

    /// A sorted stream over this tensor that moves nothing: one `u32`
    /// argsort under `perm` (compared through one packed `u64` key per
    /// entry), then each chunk gathers its entries through it. The order
    /// is exactly the one [`CooTensor::sort_by_perm`] leaves, equal
    /// coordinates included, so a format built from the
    /// view is the one built from a sorted copy — without the copy. This
    /// is how every resident format build is fed.
    ///
    /// # Panics
    /// If `perm` is not a permutation of the modes.
    pub fn sorted(&self, perm: &ModePerm) -> SortedView<'_> {
        SortedView {
            order: self.argsort(perm),
            tensor: self,
            perm: perm.clone(),
            next: 0,
        }
    }

    /// The permutation of entry ids that sorts the tensor under `perm`:
    /// the one sort behind [`CooTensor::sort_by_perm`],
    /// [`CooTensor::sorted`] and [`crate::ModeStats::compute`].
    pub(crate) fn argsort(&self, perm: &ModePerm) -> Vec<u32> {
        assert!(
            is_valid_perm(perm, self.order()),
            "invalid mode permutation"
        );
        let mut order: Vec<u32> = (0..self.nnz() as u32).collect();
        let key = CoordKey::new(&self.inds, perm);
        order.sort_unstable_by(|&a, &b| key.cmp(a, b));
        order
    }

    /// True if the nonzeros are sorted under `perm` (ties allowed).
    pub fn is_sorted_by_perm(&self, perm: &ModePerm) -> bool {
        (1..self.nnz() as u32).all(|z| cmp_under(&self.inds, perm, z - 1, z) != Ordering::Greater)
    }

    /// Sums values of nonzeros with identical coordinates. Requires the
    /// tensor to be sorted (any orientation); the relative order of surviving
    /// entries is preserved. Returns the number of folded duplicates.
    pub fn fold_duplicates(&mut self) -> usize {
        let n = self.nnz();
        if n == 0 {
            return 0;
        }
        let order = self.order();
        let mut write = 0usize;
        for read in 1..n {
            let same = (0..order).all(|m| self.inds[m][read] == self.inds[m][write]);
            if same {
                self.vals[write] += self.vals[read];
            } else {
                write += 1;
                for m in 0..order {
                    self.inds[m][write] = self.inds[m][read];
                }
                self.vals[write] = self.vals[read];
            }
        }
        let kept = write + 1;
        for arr in &mut self.inds {
            arr.truncate(kept);
        }
        self.vals.truncate(kept);
        n - kept
    }

    /// Reorders all parallel arrays by `order` (a permutation of `0..nnz`).
    fn apply_order(&mut self, order: &[u32]) {
        for arr in &mut self.inds {
            let reordered: Vec<Index> = order.iter().map(|&z| arr[z as usize]).collect();
            *arr = reordered;
        }
        self.vals = order.iter().map(|&z| self.vals[z as usize]).collect();
    }

    /// A copy of this tensor with its modes physically permuted:
    /// `out.dims()[l] == self.dims()[perm[l]]` and each nonzero's coordinate
    /// tuple reordered to match. Useful for testing mode-generic code.
    pub fn permute_modes(&self, perm: &ModePerm) -> CooTensor {
        assert!(
            is_valid_perm(perm, self.order()),
            "invalid mode permutation"
        );
        let dims = perm.iter().map(|&m| self.dims[m]).collect();
        let inds = perm.iter().map(|&m| self.inds[m].clone()).collect();
        CooTensor {
            dims,
            inds,
            vals: self.vals.clone(),
        }
    }

    /// Sum of all values; cheap sanity invariant preserved by every format
    /// conversion (splitting fibers/slices never changes the value multiset).
    pub fn value_sum(&self) -> f64 {
        self.vals.iter().map(|&v| v as f64).sum()
    }
}

/// A resident tensor streamed in sorted order through an argsort (see
/// [`CooTensor::sorted`]): entry ids sorted by the packed coordinate key
/// that every coordinate sort compares through, with the moves the
/// per-mode comparison would make. Each chunk's `lines` carry the
/// entries' positions in the tensor.
pub struct SortedView<'a> {
    tensor: &'a CooTensor,
    perm: ModePerm,
    /// Entry ids in sorted order.
    order: Vec<u32>,
    /// Position in `order` of the next entry to stream.
    next: usize,
}

impl SortedView<'_> {
    /// Mode `mode`'s coordinates, in sorted order.
    pub fn gather(&self, mode: usize) -> Vec<Index> {
        let src = &self.tensor.inds[mode];
        self.order.iter().map(|&z| src[z as usize]).collect()
    }

    /// The values, in sorted order.
    pub fn gather_values(&self) -> Vec<Value> {
        let src = &self.tensor.vals;
        self.order.iter().map(|&z| src[z as usize]).collect()
    }
}

impl SortedChunks for SortedView<'_> {
    fn dims(&self) -> &[Index] {
        &self.tensor.dims
    }

    fn nnz(&self) -> u64 {
        self.order.len() as u64
    }

    fn perm(&self) -> &[usize] {
        &self.perm
    }

    fn next_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        out.reset(self.tensor.order());
        let end = self.order.len().min(self.next.saturating_add(max_entries));
        let ids = &self.order[self.next..end];
        for (dst, src) in out.coords.iter_mut().zip(&self.tensor.inds) {
            dst.extend(ids.iter().map(|&z| src[z as usize]));
        }
        out.vals
            .extend(ids.iter().map(|&z| self.tensor.vals[z as usize]));
        out.lines.extend(ids.iter().map(|&z| z as u64));
        self.next = end;
        Ok(ids.len())
    }

    fn rewind(&mut self) -> TensorResult<()> {
        self.next = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::identity_perm;

    fn small() -> CooTensor {
        let mut t = CooTensor::new(vec![4, 5, 6]);
        t.push(&[3, 4, 5], 1.0);
        t.push(&[0, 0, 0], 2.0);
        t.push(&[0, 2, 1], 3.0);
        t.push(&[3, 4, 0], 4.0);
        t
    }

    #[test]
    fn push_and_query() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.coords_of(0), vec![3, 4, 5]);
        assert_eq!(t.values()[1], 2.0);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_oob() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_rejects_wrong_arity() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[1], 1.0);
    }

    #[test]
    fn sort_identity_orders_lexicographically() {
        let mut t = small();
        t.sort_by_perm(&identity_perm(3));
        assert!(t.is_sorted_by_perm(&identity_perm(3)));
        assert_eq!(t.coords_of(0), vec![0, 0, 0]);
        assert_eq!(t.coords_of(1), vec![0, 2, 1]);
        assert_eq!(t.coords_of(2), vec![3, 4, 0]);
        assert_eq!(t.coords_of(3), vec![3, 4, 5]);
    }

    #[test]
    fn sort_by_nonidentity_perm() {
        let mut t = small();
        let perm = vec![2, 0, 1]; // primary key: mode 2
        t.sort_by_perm(&perm);
        assert!(t.is_sorted_by_perm(&perm));
        let mode2: Vec<_> = t.mode_indices(2).to_vec();
        let mut sorted = mode2.clone();
        sorted.sort_unstable();
        assert_eq!(mode2, sorted);
    }

    #[test]
    fn fold_duplicates_sums_values() {
        let mut t = CooTensor::new(vec![2, 2]);
        t.push(&[0, 1], 1.0);
        t.push(&[0, 1], 2.5);
        t.push(&[1, 1], 4.0);
        t.sort_by_perm(&identity_perm(2));
        let folded = t.fold_duplicates();
        assert_eq!(folded, 1);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.values(), &[3.5, 4.0]);
    }

    #[test]
    fn fold_duplicates_empty_ok() {
        let mut t = CooTensor::new(vec![3]);
        assert_eq!(t.fold_duplicates(), 0);
    }

    #[test]
    fn density_small() {
        let t = small();
        let expected = 4.0 / (4.0 * 5.0 * 6.0);
        assert!((t.density() - expected).abs() < 1e-12);
    }

    #[test]
    fn permute_modes_round_trip() {
        let t = small();
        let perm = vec![1, 2, 0];
        let p = t.permute_modes(&perm);
        assert_eq!(p.dims(), &[5, 6, 4]);
        assert_eq!(p.coords_of(0), vec![4, 5, 3]);
        let inv = crate::dims::invert_perm(&perm);
        let back = p.permute_modes(&inv);
        assert_eq!(back, t);
    }

    #[test]
    fn value_sum_stable_under_sort() {
        let mut t = small();
        let before = t.value_sum();
        t.sort_by_perm(&vec![2, 1, 0]);
        assert_eq!(before, t.value_sum());
    }
}
