//! The dense half of an ALS step, in two row passes over reused buffers.
//!
//! After the MTTKRP `Y` of mode `n`, least-squares ALS needs `Aₙ ← Y·V⁺`,
//! the column norms of `Aₙ` (they become λ), `Aₙ` divided by them, the
//! gram `AₙᵀAₙ` and, on the last mode, the per-column sums of `Y ∗ Aₙ`
//! the fit is folded from. One operation at a time, that streams the
//! `rows × R` factor four or five times. Here it is two passes:
//!
//! 1. [`UpdateBuffers::solve`] writes `Y·V⁺` into `Aₙ`, whose old values
//!    are dead, and folds the column sums of squares;
//! 2. [`UpdateBuffers::normalize`] divides each row by the norms, then adds
//!    it into the gram and, given `Y`, into the per-column inner sums.
//!
//! [`Matrix::matmul`], [`Matrix::gram`] and [`Matrix::normalize_columns`]
//! run on the same kernels, so each operation has one implementation.
//!
//! Every accumulator adds its terms in the order of the textbook loops:
//! ascending `k` within a product, ascending rows across rows. Each term
//! is a product of two `f32` values widened to `f64`, which is exact, so
//! only the additions round, in the old order. No kernel uses a fused
//! multiply-add (and Rust never contracts `a * b + c` on its own), so the
//! results are bit-identical to those loops under any `target-cpu` and
//! on either compiled copy of the kernels: one for the build's baseline
//! target, one with AVX2 enabled, picked at run time.

use crate::Matrix;

/// Which compiled copy of the row kernels runs.
///
/// Each kernel body is compiled twice: for the build's baseline target
/// (SSE2 on `x86_64`) and with AVX2 enabled, picked at run time. The AVX2
/// copy only gets wider vectors: it does the same IEEE operations in the
/// same order, so both copies round alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest copy the running CPU supports.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// Defines `$name(isa, args…)`, running the `#[inline(always)]` function
/// `$body` as compiled for the baseline target or, when `isa` says so,
/// with AVX2 enabled.
macro_rules! dual_compiled {
    ($name:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if isa == Isa::Avx2 {
                /// # Safety
                /// The CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // SAFETY: `Isa::Avx2` comes only from `Isa::detect`, which
                // checked that the CPU has AVX2.
                return unsafe { avx2($($arg),*) };
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            $body($($arg),*)
        }
    };
}

dual_compiled!(product_rows => product_body(
    x: &[f32], b: &[f64], out: &mut [f32], n: usize, sq: Option<&mut [f64]>, scrub: bool,
) -> u64);
dual_compiled!(normalize_rows => normalize_body(
    a: &mut [f32], n: usize, norms: &[f32], gram: Option<&mut [f64]>,
    inner: Option<(&[f32], &mut [f64])>, wide: &mut [f64],
));
dual_compiled!(gram_rows => gram_body(
    a: &[f32], n: usize, gram: &mut [f64], inner: Option<(&[f32], &mut [f64])>, wide: &mut [f64],
));

/// Reusable buffers of the dense ALS update. An ALS run keeps one, so an
/// update allocates nothing larger than its `R`-sized outputs.
#[derive(Debug)]
pub struct UpdateBuffers {
    isa: Isa,
    /// The right-hand factor of a product, converted to `f64` once per call.
    rhs: Vec<f64>,
    /// Per-column sums: squares in pass 1, inner products in pass 2.
    cols: Vec<f64>,
    /// Gram accumulators, `R × R` (upper triangle used).
    gram: Vec<f64>,
    /// Up to two rows widened to `f64`.
    wide: Vec<f64>,
}

impl Default for UpdateBuffers {
    fn default() -> Self {
        UpdateBuffers::new()
    }
}

impl UpdateBuffers {
    /// Empty buffers, running the widest kernels the CPU supports.
    pub fn new() -> UpdateBuffers {
        UpdateBuffers::with_isa(Isa::detect())
    }

    /// Empty buffers running the `isa` copy of the kernels (tests pin
    /// each copy this way).
    pub(crate) fn with_isa(isa: Isa) -> UpdateBuffers {
        UpdateBuffers {
            isa,
            rhs: Vec::new(),
            cols: Vec::new(),
            gram: Vec::new(),
            wide: Vec::new(),
        }
    }

    /// `out ← x · b`. Each element sums its terms in `f64` in ascending
    /// `k`, then rounds once to `f32`.
    ///
    /// # Panics
    /// If `x.cols() != b.rows()` or `out` is not `x.rows() × b.cols()`.
    pub fn matmul_into(&mut self, x: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.product(x, b, out, false, false);
    }

    /// Pass 1 of the least-squares update: `a ← y · vinv`, in place of
    /// `a`'s old values. With `scrub`, non-finite entries of the product
    /// become zero (the resilience guard). Returns the column 2-norms of
    /// the new `a`, each summed in `f64` over ascending rows, and the
    /// number of entries scrubbed.
    ///
    /// # Panics
    /// As [`UpdateBuffers::matmul_into`] with `x = y`, `b = vinv`, `out = a`.
    pub fn solve(
        &mut self,
        y: &Matrix,
        vinv: &Matrix,
        a: &mut Matrix,
        scrub: bool,
    ) -> (Vec<f32>, u64) {
        let scrubbed = self.product(y, vinv, a, true, scrub);
        let norms = self.cols.iter().map(|&s| s.sqrt() as f32).collect();
        (norms, scrubbed)
    }

    /// Pass 2 of the least-squares update: divides each column of `a` by
    /// its entry of `norms` (columns with a norm that is not positive are
    /// left as they are), then, row by row, adds the scaled row into
    /// `gram ← aᵀa` and, given `y`, into the per-column sums of `y ∗ a`.
    /// Returns those sums (empty without `y`).
    ///
    /// # Panics
    /// If `norms` does not have one entry per column, `gram` is not
    /// `cols × cols`, or `y` does not have `a`'s shape.
    pub fn normalize(
        &mut self,
        a: &mut Matrix,
        norms: &[f32],
        gram: &mut Matrix,
        y: Option<&Matrix>,
    ) -> &[f64] {
        let r = a.cols();
        assert_eq!(gram.rows(), r, "gram shape mismatch");
        assert_eq!(gram.cols(), r, "gram shape mismatch");
        self.scale(a, norms, true, y);
        write_gram(&self.gram, gram);
        &self.cols
    }

    /// `gram ← aᵀa`, each entry summed in `f64` over ascending rows, and,
    /// given `y`, the per-column sums of `y ∗ a`, which it returns (empty
    /// without `y`). Pass 2 without the scaling.
    ///
    /// # Panics
    /// If `gram` is not `a.cols() × a.cols()` or `y` does not have `a`'s
    /// shape.
    pub fn gram_into(&mut self, a: &Matrix, gram: &mut Matrix, y: Option<&Matrix>) -> &[f64] {
        let r = a.cols();
        assert_eq!(gram.rows(), r, "gram shape mismatch");
        assert_eq!(gram.cols(), r, "gram shape mismatch");
        self.prepare(a, true, y);
        let inner = y.map(|y| (y.data(), self.cols.as_mut_slice()));
        gram_rows(self.isa, a.data(), r, &mut self.gram, inner, &mut self.wide);
        write_gram(&self.gram, gram);
        &self.cols
    }

    /// Normalizes each column of `a` to unit 2-norm and returns the norms;
    /// see [`Matrix::normalize_columns`].
    pub fn normalize_columns(&mut self, a: &mut Matrix) -> Vec<f32> {
        reset(&mut self.cols, a.cols());
        for row in a.data().chunks_exact(a.cols().max(1)) {
            add_squares(&mut self.cols, row);
        }
        let norms: Vec<f32> = self.cols.iter().map(|&s| s.sqrt() as f32).collect();
        self.scale(a, &norms, false, None);
        norms
    }

    /// [`UpdateBuffers::matmul_into`], optionally scrubbing and folding the
    /// column sums of squares of `out` into `cols`.
    fn product(
        &mut self,
        x: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
        fold: bool,
        scrub: bool,
    ) -> u64 {
        assert_eq!(x.cols(), b.rows(), "matmul dimension mismatch");
        assert_eq!(out.rows(), x.rows(), "matmul output shape mismatch");
        assert_eq!(out.cols(), b.cols(), "matmul output shape mismatch");
        self.rhs.clear();
        self.rhs.extend(b.data().iter().map(|&v| v as f64));
        reset(&mut self.cols, b.cols());
        let sq = fold.then_some(self.cols.as_mut_slice());
        product_rows(
            self.isa,
            x.data(),
            &self.rhs,
            out.data_mut(),
            b.cols(),
            sq,
            scrub,
        )
    }

    /// Runs [`normalize_body`] over `a`: the gram into `self.gram` when
    /// `gram`, the inner sums into `self.cols` given `y`.
    fn scale(&mut self, a: &mut Matrix, norms: &[f32], gram: bool, y: Option<&Matrix>) {
        let r = a.cols();
        assert_eq!(norms.len(), r, "one norm per column");
        self.prepare(a, gram, y);
        let gram = gram.then_some(self.gram.as_mut_slice());
        let inner = y.map(|y| (y.data(), self.cols.as_mut_slice()));
        normalize_rows(
            self.isa,
            a.data_mut(),
            r,
            norms,
            gram,
            inner,
            &mut self.wide,
        );
    }

    /// Zeroes the accumulators pass 2 needs over `a`: the gram when
    /// `gram`, the inner sums given `y` (whose shape it checks).
    fn prepare(&mut self, a: &Matrix, gram: bool, y: Option<&Matrix>) {
        let r = a.cols();
        if let Some(y) = y {
            assert!(
                y.rows() == a.rows() && y.cols() == r,
                "y must have a's shape"
            );
        }
        reset(&mut self.gram, if gram { r * r } else { 0 });
        reset(&mut self.wide, 2 * r);
        reset(&mut self.cols, if y.is_some() { r } else { 0 });
    }
}

/// Clears `v` to `len` zeros, keeping its allocation.
fn reset(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

/// Rounds the upper triangle of `acc` into both triangles of `out`.
fn write_gram(acc: &[f64], out: &mut Matrix) {
    let r = out.cols();
    for a in 0..r {
        for b in a..r {
            let x = acc[a * r + b] as f32;
            out.set(a, b, x);
            out.set(b, a, x);
        }
    }
}

/// Output columns per register block of the product: two rows of eight
/// `f64` accumulators stay in registers on either compiled copy.
const BLOCK: usize = 8;

/// `out ← x · b` for row-major `x` (`rows × k`), `b` (`k × n`, already in
/// `f64`) and `out` (`rows × n`), two rows per step. Each finished row is
/// then scrubbed (with `scrub`) and its squares added into `sq`, in row
/// order. Returns the number of entries scrubbed.
#[inline(always)]
fn product_body(
    x: &[f32],
    b: &[f64],
    out: &mut [f32],
    n: usize,
    mut sq: Option<&mut [f64]>,
    scrub: bool,
) -> u64 {
    if n == 0 {
        return 0;
    }
    let k = b.len() / n;
    let mut scrubbed = 0;
    let mut pairs = out.chunks_exact_mut(2 * n);
    let mut xs = x.chunks_exact(k.max(1));
    for pair in pairs.by_ref() {
        let (o0, o1) = pair.split_at_mut(n);
        let mut outs = [o0, o1];
        product::<2>([row_of(&mut xs, k), row_of(&mut xs, k)], b, n, &mut outs);
        for o in outs {
            scrubbed += finish_row(o, sq.as_deref_mut(), scrub);
        }
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        let mut outs = [last];
        product::<1>([row_of(&mut xs, k)], b, n, &mut outs);
        scrubbed += finish_row(outs[0], sq, scrub);
    }
    scrubbed
}

/// The next `k`-long row of `xs` (empty when `k == 0`).
#[inline(always)]
fn row_of<'a>(xs: &mut std::slice::ChunksExact<'a, f32>, k: usize) -> &'a [f32] {
    if k == 0 {
        &[]
    } else {
        xs.next().expect("x has a row per output row")
    }
}

/// `outs[m] ← xs[m] · b` for `M` rows, in column blocks of [`BLOCK`],
/// then 4, then 1.
#[inline(always)]
fn product<const M: usize>(xs: [&[f32]; M], b: &[f64], n: usize, outs: &mut [&mut [f32]; M]) {
    let mut j = 0;
    while j + BLOCK <= n {
        product_block::<M, BLOCK>(xs, b, n, j, outs);
        j += BLOCK;
    }
    if j + 4 <= n {
        product_block::<M, 4>(xs, b, n, j, outs);
        j += 4;
    }
    while j < n {
        product_block::<M, 1>(xs, b, n, j, outs);
        j += 1;
    }
}

/// Columns `j..j + W` of `outs[m] ← xs[m] · b`: every element sums
/// `xs[m][k] · b[k][c]` in `f64` over ascending `k`, from `0.0`, then
/// rounds once to `f32`.
#[inline(always)]
fn product_block<const M: usize, const W: usize>(
    xs: [&[f32]; M],
    b: &[f64],
    n: usize,
    j: usize,
    outs: &mut [&mut [f32]; M],
) {
    let mut acc = [[0.0f64; W]; M];
    for (kk, brow) in b.chunks_exact(n).enumerate() {
        let bw: &[f64; W] = brow[j..j + W].try_into().expect("W columns");
        for m in 0..M {
            let xv = xs[m][kk] as f64;
            for c in 0..W {
                acc[m][c] += xv * bw[c];
            }
        }
    }
    for m in 0..M {
        for c in 0..W {
            outs[m][j + c] = acc[m][c] as f32;
        }
    }
}

/// Scrubs a finished product row (with `scrub`), then adds its squares
/// into `sq`. Returns the number of entries scrubbed.
#[inline(always)]
fn finish_row(row: &mut [f32], sq: Option<&mut [f64]>, scrub: bool) -> u64 {
    let mut scrubbed = 0;
    if scrub {
        for v in row.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
                scrubbed += 1;
            }
        }
    }
    if let Some(sq) = sq {
        add_squares(sq, row);
    }
    scrubbed
}

/// Adds each entry's square, in `f64`, into its column's sum.
#[inline(always)]
fn add_squares(sq: &mut [f64], row: &[f32]) {
    for (s, &v) in sq.iter_mut().zip(row) {
        *s += v as f64 * v as f64;
    }
}

/// Pass 2 over row-major `a` (`rows × n`), two rows per step: divides
/// each entry by its column's norm when that norm is positive, then
/// [`accumulate`]s the row.
#[inline(always)]
fn normalize_body(
    a: &mut [f32],
    n: usize,
    norms: &[f32],
    mut gram: Option<&mut [f64]>,
    mut inner: Option<(&[f32], &mut [f64])>,
    wide: &mut [f64],
) {
    if n == 0 {
        return;
    }
    let mut ys = inner.as_ref().map(|(y, _)| y.chunks_exact(n));
    let mut pairs = a.chunks_exact_mut(2 * n);
    for pair in pairs.by_ref() {
        let (r0, r1) = pair.split_at_mut(n);
        scale_row(r0, norms);
        scale_row(r1, norms);
        let y = ys.as_mut().map(|ys| [next_row(ys), next_row(ys)]);
        let cols = cols_of(&mut inner);
        accumulate::<2>([r0, r1], n, gram.as_deref_mut(), y, cols, wide);
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        scale_row(last, norms);
        let y = ys.as_mut().map(|ys| [next_row(ys)]);
        accumulate::<1>([last], n, gram, y, cols_of(&mut inner), wide);
    }
}

/// [`normalize_body`] without the scaling: `gram ← aᵀa` and the inner sums.
#[inline(always)]
fn gram_body(
    a: &[f32],
    n: usize,
    gram: &mut [f64],
    mut inner: Option<(&[f32], &mut [f64])>,
    wide: &mut [f64],
) {
    if n == 0 {
        return;
    }
    let mut ys = inner.as_ref().map(|(y, _)| y.chunks_exact(n));
    let mut pairs = a.chunks_exact(2 * n);
    for pair in pairs.by_ref() {
        let (r0, r1) = pair.split_at(n);
        let y = ys.as_mut().map(|ys| [next_row(ys), next_row(ys)]);
        accumulate::<2>([r0, r1], n, Some(&mut *gram), y, cols_of(&mut inner), wide);
    }
    let last = pairs.remainder();
    if !last.is_empty() {
        let y = ys.as_mut().map(|ys| [next_row(ys)]);
        accumulate::<1>([last], n, Some(gram), y, cols_of(&mut inner), wide);
    }
}

/// Divides each entry by its column's norm when that norm is positive.
#[inline(always)]
fn scale_row(row: &mut [f32], norms: &[f32]) {
    for (v, &norm) in row.iter_mut().zip(norms) {
        if norm > 0.0 {
            *v /= norm;
        }
    }
}

/// The next row of `y`, which has one per row of `a`.
#[inline(always)]
fn next_row<'a>(ys: &mut std::slice::ChunksExact<'a, f32>) -> &'a [f32] {
    ys.next().expect("y has a's shape")
}

/// The column sums of `inner`, reborrowed.
#[inline(always)]
fn cols_of<'a>(inner: &'a mut Option<(&[f32], &mut [f64])>) -> Option<&'a mut [f64]> {
    inner.as_mut().map(|(_, cols)| &mut **cols)
}

/// Adds `M` consecutive rows of `a` into the upper triangle of `gram`
/// (`n × n`) and, given their rows of `y`, `y ∗ a` into `cols`. Each
/// accumulator takes row `m`'s term before row `m + 1`'s, so rows arrive
/// in ascending order as in the one-row-at-a-time loops. `wide` holds the
/// rows widened to `f64`.
#[inline(always)]
fn accumulate<const M: usize>(
    rows: [&[f32]; M],
    n: usize,
    gram: Option<&mut [f64]>,
    y: Option<[&[f32]; M]>,
    cols: Option<&mut [f64]>,
    wide: &mut [f64],
) {
    if let Some(gram) = gram {
        for (dst, row) in wide.chunks_exact_mut(n).zip(rows) {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = v as f64;
            }
        }
        let w: [&[f64]; M] = std::array::from_fn(|m| &wide[m * n..(m + 1) * n]);
        for a in 0..n {
            let va: [f64; M] = std::array::from_fn(|m| w[m][a]);
            let tails: [&[f64]; M] = std::array::from_fn(|m| &w[m][a..]);
            let dst = &mut gram[a * n + a..(a + 1) * n];
            for (c, d) in dst.iter_mut().enumerate() {
                let mut s = *d;
                for m in 0..M {
                    s += va[m] * tails[m][c];
                }
                *d = s;
            }
        }
    }
    if let (Some(y), Some(cols)) = (y, cols) {
        for (yr, ar) in y.iter().zip(rows) {
            for ((c, &yv), &av) in cols.iter_mut().zip(*yr).zip(ar) {
                *c += yv as f64 * av as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-operation-at-a-time loops the kernels replace, kept as the
    /// bit-for-bit oracle.
    mod oracle {
        use crate::Matrix;

        pub fn matmul(x: &Matrix, b: &Matrix) -> Matrix {
            let n = b.cols();
            let mut out = Matrix::zeros(x.rows(), n);
            let mut accrow = vec![0.0f64; n];
            for i in 0..x.rows() {
                accrow.fill(0.0);
                for (k, &av) in x.row(i).iter().enumerate() {
                    let av = av as f64;
                    for (acc, &bv) in accrow.iter_mut().zip(b.row(k)) {
                        *acc += av * bv as f64;
                    }
                }
                for (o, &acc) in out.row_mut(i).iter_mut().zip(&accrow) {
                    *o = acc as f32;
                }
            }
            out
        }

        /// The `f64` accumulators of [`gram`] (upper triangle).
        pub fn gram_acc(a: &Matrix) -> Vec<f64> {
            let r = a.cols();
            let mut acc = vec![0.0f64; r * r];
            for v in a.data().chunks_exact(r.max(1)) {
                for (i, &va) in v.iter().enumerate() {
                    let va = va as f64;
                    for (dst, &vb) in acc[i * r + i..(i + 1) * r].iter_mut().zip(&v[i..]) {
                        *dst += va * vb as f64;
                    }
                }
            }
            acc
        }

        pub fn gram(a: &Matrix) -> Matrix {
            let r = a.cols();
            let acc = gram_acc(a);
            let mut out = Matrix::zeros(r, r);
            for i in 0..r {
                for j in i..r {
                    let x = acc[i * r + j] as f32;
                    out.set(i, j, x);
                    out.set(j, i, x);
                }
            }
            out
        }

        /// The `f64` column sums of squares [`normalize_columns`] takes
        /// the norms from.
        pub fn square_sums(a: &Matrix) -> Vec<f64> {
            let r = a.cols();
            let mut norms = vec![0.0f64; r];
            for row in a.data().chunks_exact(r.max(1)) {
                for (n, &v) in norms.iter_mut().zip(row) {
                    *n += v as f64 * v as f64;
                }
            }
            norms
        }

        pub fn normalize_columns(a: &mut Matrix) -> Vec<f32> {
            let r = a.cols();
            if r == 0 {
                return Vec::new();
            }
            let norms: Vec<f32> = square_sums(a).iter().map(|&n| n.sqrt() as f32).collect();
            for row in a.data_mut().chunks_exact_mut(r) {
                for (v, &n) in row.iter_mut().zip(&norms) {
                    if n > 0.0 {
                        *v /= n;
                    }
                }
            }
            norms
        }

        pub fn scrub_nonfinite(m: &mut Matrix) -> u64 {
            let mut n = 0;
            for v in m.data_mut() {
                if !v.is_finite() {
                    *v = 0.0;
                    n += 1;
                }
            }
            n
        }

        /// The per-column `f64` sums [`inner_from_last_mode`] weights.
        pub fn inner_cols(y: &Matrix, a: &Matrix) -> Vec<f64> {
            let r = a.cols();
            let mut cols = vec![0.0f64; r];
            for (yr, ar) in y
                .data()
                .chunks_exact(r.max(1))
                .zip(a.data().chunks_exact(r.max(1)))
            {
                for ((c, &yv), &av) in cols.iter_mut().zip(yr).zip(ar) {
                    *c += yv as f64 * av as f64;
                }
            }
            cols
        }

        pub fn inner_from_last_mode(y: &Matrix, a: &Matrix, lambda: &[f32]) -> f64 {
            if lambda.is_empty() {
                return 0.0;
            }
            let cols = inner_cols(y, a);
            cols.iter().zip(lambda).map(|(&c, &l)| l as f64 * c).sum()
        }
    }

    /// Every compiled copy this host can run.
    fn isas() -> Vec<Isa> {
        let mut v = vec![Isa::Portable];
        if Isa::detect() != Isa::Portable {
            v.push(Isa::detect());
        }
        v
    }

    /// Deterministic test matrices: entries in `±scale`, a quarter of them
    /// shrunk by up to `2⁻³⁹`, an eighth `±2⁻³⁰`, `±1` or `±2³⁰` (so sums
    /// cancel and the order of additions shows in the rounded result), a
    /// few zeros, and (with `specials`) an occasional NaN or infinity.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn value(&mut self, scale: f32, specials: bool) -> f32 {
            let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            match self.next() % 64 {
                0..=2 => 0.0,
                3 if specials => f32::NAN,
                4 if specials => f32::INFINITY,
                5 if specials => f32::NEG_INFINITY,
                6..=21 => {
                    let shrink = (-((self.next() % 40) as f64)).exp2() as f32;
                    ((2.0 * u - 1.0) as f32) * scale * shrink
                }
                // Powers of two 2³⁰ apart: large terms cancel exactly
                // and absorb small ones, differently in another order.
                22..=29 => {
                    let sign = if u < 0.5 { -1.0 } else { 1.0 };
                    sign * (30.0 * ((self.next() % 3) as f32 - 1.0)).exp2()
                }
                _ => ((2.0 * u - 1.0) as f32) * scale,
            }
        }

        fn matrix(&mut self, rows: usize, cols: usize, scale: f32, specials: bool) -> Matrix {
            let data = (0..rows * cols)
                .map(|_| self.value(scale, specials))
                .collect();
            Matrix::from_vec(rows, cols, data)
        }
    }

    /// Bit equality, with any NaN equal to any NaN (vector and scalar
    /// code may propagate different NaN payloads).
    fn same32(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan())
    }

    fn same64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
    }

    /// [`same64`] over slices: for the `f64` accumulators, whose order of
    /// additions the `f32` results mostly round away.
    fn same64s(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same64(x, y))
    }

    const SCALES: [f32; 5] = [1.0, 1e-20, 1e15, 1e19, 3e38];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn two_passes_match_the_one_operation_loops(
            rows in 0usize..=67,
            r in 1usize..=40,
            (scale_y, scale_v) in (0usize..5, 0usize..3),
            zero_cols in 0usize..4,
            specials in 0u32..3,
            seed in any::<u64>(),
        ) {
            let mut g = Gen(seed);
            let y = g.matrix(rows, r, SCALES[scale_y], specials == 0);
            let mut vinv = g.matrix(r, r, SCALES[scale_v], false);
            // A zero column of V⁺ gives a zero column of the factor: norm 0,
            // left unscaled and (in ALS) guarded in λ.
            for _ in 0..zero_cols {
                let c = (g.next() % r as u64) as usize;
                for k in 0..r {
                    vinv.set(k, c, 0.0);
                }
            }
            for scrub in [false, true] {
                let mut want = oracle::matmul(&y, &vinv);
                let want_scrubbed = if scrub { oracle::scrub_nonfinite(&mut want) } else { 0 };
                let want_squares = oracle::square_sums(&want);
                let want_norms = oracle::normalize_columns(&mut want);
                let want_gram = oracle::gram(&want);
                let want_gram_acc = oracle::gram_acc(&want);
                let want_cols = oracle::inner_cols(&y, &want);
                let want_inner = oracle::inner_from_last_mode(&y, &want, &want_norms);
                for isa in isas() {
                    let mut buf = UpdateBuffers::with_isa(isa);
                    // Stale contents: pass 1 must overwrite every entry.
                    let mut a = g.matrix(rows, r, 1.0, true);
                    let mut gram = g.matrix(r, r, 1.0, true);
                    let (norms, scrubbed) = buf.solve(&y, &vinv, &mut a, scrub);
                    prop_assert_eq!(scrubbed, want_scrubbed, "{:?} scrub {}", isa, scrub);
                    prop_assert!(same64s(&buf.cols, &want_squares), "{:?} squares", isa);
                    prop_assert!(same32(&norms, &want_norms), "{:?} norms", isa);
                    let cols = buf.normalize(&mut a, &norms, &mut gram, Some(&y)).to_vec();
                    prop_assert!(same64s(&cols, &want_cols), "{:?} inner sums", isa);
                    prop_assert!(same64s(&buf.gram, &want_gram_acc), "{:?} gram sums", isa);
                    let inner: f64 = cols.iter().zip(&norms).map(|(&c, &l)| l as f64 * c).sum();
                    prop_assert!(same32(a.data(), want.data()), "{:?} factor", isa);
                    prop_assert!(same32(gram.data(), want_gram.data()), "{:?} gram", isa);
                    prop_assert!(same64(inner, want_inner), "{:?} inner {} vs {}", isa, inner, want_inner);
                    // Without `y` there are no inner sums, and the rest is unchanged.
                    let mut a2 = oracle::matmul(&y, &vinv);
                    if scrub {
                        oracle::scrub_nonfinite(&mut a2);
                    }
                    prop_assert!(buf.normalize(&mut a2, &norms, &mut gram, None).is_empty());
                    prop_assert!(same32(a2.data(), want.data()), "{:?} factor without y", isa);
                    // Pass 2 without the scaling, over the scaled factor.
                    let cols = buf.gram_into(&want, &mut gram, Some(&y)).to_vec();
                    let inner: f64 = cols.iter().zip(&norms).map(|(&c, &l)| l as f64 * c).sum();
                    prop_assert!(same32(gram.data(), want_gram.data()), "{:?} gram_into", isa);
                    prop_assert!(same64(inner, want_inner), "{:?} gram_into inner", isa);
                }
            }
        }

        #[test]
        fn matrix_methods_match_the_one_operation_loops(
            rows in 0usize..=67,
            k in 0usize..=40,
            n in 0usize..=40,
            scale in 0usize..5,
            seed in any::<u64>(),
        ) {
            let mut g = Gen(seed);
            let x = g.matrix(rows, k, SCALES[scale], true);
            let b = g.matrix(k, n, SCALES[scale % 3], false);
            let want = oracle::matmul(&x, &b);
            prop_assert!(same32(x.matmul(&b).data(), want.data()));
            prop_assert!(same32(x.gram().data(), oracle::gram(&x).data()));
            let (mut got, mut want_x) = (x.clone(), x.clone());
            let norms = got.normalize_columns();
            prop_assert!(same32(&norms, &oracle::normalize_columns(&mut want_x)));
            prop_assert!(same32(got.data(), want_x.data()));
            for isa in isas() {
                let mut buf = UpdateBuffers::with_isa(isa);
                let mut out = g.matrix(rows, n, 1.0, true);
                buf.matmul_into(&x, &b, &mut out);
                prop_assert!(same32(out.data(), want.data()), "{:?} matmul", isa);
                let mut gram = Matrix::zeros(k, k);
                buf.gram_into(&x, &mut gram, None);
                prop_assert!(same32(gram.data(), oracle::gram(&x).data()), "{:?} gram", isa);
                prop_assert!(same64s(&buf.gram, &oracle::gram_acc(&x)), "{:?} gram sums", isa);
            }
        }
    }

    #[test]
    fn scrubbing_counts_and_zeroes_non_finite_products() {
        let y = Matrix::from_vec(3, 1, vec![1.0, f32::NAN, 3e38]);
        let vinv = Matrix::from_vec(1, 1, vec![2.0]);
        let mut a = Matrix::zeros(3, 1);
        let mut buf = UpdateBuffers::new();
        let (norms, scrubbed) = buf.solve(&y, &vinv, &mut a, true);
        assert_eq!(scrubbed, 2);
        assert_eq!(a.data(), &[2.0, 0.0, 0.0]);
        assert_eq!(norms, vec![2.0]);
    }
}
