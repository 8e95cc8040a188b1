//! Dense row-major `f32` tensors (rank ≤ 2 in practice).
//!
//! The workspace's neural models only need matrices and vectors; this type
//! keeps shape explicit and panics loudly on mismatches (shape bugs in
//! hand-rolled backprop are otherwise silent death). The matmul loops run
//! in the compilation [`Kernels::detected`] picks.

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Tensor {
        Tensor { rows, cols, data: vec![v; rows * cols] }
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "data length {} != {rows}x{cols}", data.len());
        Tensor { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Tensor {
        let n = data.len();
        Tensor::from_vec(1, n, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`: each output's terms added in
    /// ascending `p` from `+0.0`, zero entries of `self` skipped (one-hot
    /// and ReLU rows are mostly zeros). Where `other` is all finite and a
    /// row is as wide as one of the NECS model's layers (1, 8, 16, 24, 32
    /// or 33 outputs), no term is skipped, with the same bits: the product
    /// of a zero entry and a finite value is a zero, and adding a zero to
    /// a sum that started at `+0.0` (which no sum of such terms can turn
    /// into `-0.0`) leaves it as it is.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_rows(other, 0)
    }

    /// `self · other[from .. from + self.cols]`: the product with one band
    /// of `other`'s rows, each output's terms added as in
    /// [`matmul`](Self::matmul) (which is the band at `from = 0` of an
    /// `other` exactly `self.cols` tall). Summing the products of bands
    /// that tile `other` re-associates each output's sum: it equals
    /// `matmul` to within rounding, not bit for bit.
    pub fn matmul_rows(&self, other: &Tensor, from: usize) -> Tensor {
        self.matmul_rows_on(Kernels::detected(), other, from)
    }

    fn matmul_rows_on(&self, kernels: Kernels, other: &Tensor, from: usize) -> Tensor {
        assert!(
            from + self.cols <= other.rows,
            "matmul shape mismatch: {}x{} · rows {from}.. of {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        let b = &other.data[from * n..(from + k) * n];
        // A zero entry of `self` times an infinite or NaN `b` is a NaN, not
        // a zero: only an all-finite `b` may add every term. (A fold, not
        // `all`, so that the test runs 8 lanes wide with no early exit.)
        let finite = b.iter().fold(true, |finite, v| finite & v.is_finite());
        if !(finite && run_row_tile(kernels, &self.data, b, (k, n), &mut out)) {
            let product =
                Product { a: &self.data, b, mkn: (m, k, n), skip_zeros: true, out: &mut out };
            for_rows_of(kernels, n).run(product);
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// `self · otherᵀ`: every output element is the dot product of two rows,
    /// its terms added in column order from `+0.0` (no zero skip). Done
    /// over a transposed copy of `other`, whose rows the lanes run along,
    /// which leaves each sum's order alone.
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Tensor {
        self.matmul_transpose_b_on(Kernels::detected(), other)
    }

    fn matmul_transpose_b_on(&self, kernels: Kernels, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tB shape mismatch: {}x{} · ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let (bt, mut out) = (other.transposed(), vec![0.0f32; m * n]);
        let product = Product {
            a: &self.data,
            b: &bt.data,
            mkn: (m, k, n),
            skip_zeros: false,
            out: &mut out,
        };
        for_rows_of(kernels, n).run(product);
        Tensor { rows: m, cols: n, data: out }
    }

    /// `selfᵀ · other` without materializing the transpose: each output's
    /// terms added in row order from `+0.0`, zero entries of `self` skipped.
    pub fn transpose_a_matmul(&self, other: &Tensor) -> Tensor {
        self.transpose_a_matmul_on(Kernels::detected(), other)
    }

    fn transpose_a_matmul_on(&self, kernels: Kernels, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "tA_matmul shape mismatch: ({}x{})^T · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = vec![0.0f32; m * n];
        let product =
            TransposedProduct { a: &self.data, b: &other.data, mkn: (m, k, n), out: &mut out };
        for_rows_of(kernels, n).run(product);
        Tensor { rows: m, cols: n, data: out }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// `self += alpha * other` (shapes must match).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a + b).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Scale all elements.
    pub fn scaled(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Fill with zeros in place.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Add the `[1, cols]` row `bias` to every row, in place.
    pub fn add_row_(&mut self, bias: &Tensor) {
        assert_eq!(bias.shape(), (1, self.cols), "bias must be [1,{}]", self.cols);
        for r in 0..self.rows {
            for (o, b) in self.row_mut(r).iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
    }

    /// ReLU in place.
    pub fn relu_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = v.max(0.0));
    }
}

/// Outputs a row needs before a product runs the AVX compilation. Below
/// 32, the AVX axpy's main loop (4 registers of 8 lanes a step) never
/// runs and its 4-lane remainder loop is slower than the plain build's.
const AVX_MIN_ROW: usize = 32;

/// The compilation a product with `n` outputs a row runs in.
fn for_rows_of(kernels: Kernels, n: usize) -> Kernels {
    if n < AVX_MIN_ROW {
        Kernels::Portable
    } else {
        kernels
    }
}

/// `out += a · b` for `a` `[m, k]`, `b` `[k, n]` and `out` `[m, n]`, all
/// row-major, row by row of `out`: row `i` adds `a[i, p] · b[p, :]` for
/// `p` ascending, skipping zero `a[i, p]` where `skip_zeros` holds.
struct Product<'a> {
    a: &'a [f32],
    b: &'a [f32],
    mkn: (usize, usize, usize),
    skip_zeros: bool,
    out: &'a mut [f32],
}

impl Kernel for Product<'_> {
    #[inline(always)]
    fn run(self) {
        let (m, k, n) = self.mkn;
        for i in 0..m {
            let o_row = &mut self.out[i * n..(i + 1) * n];
            for (p, &a) in self.a[i * k..(i + 1) * k].iter().enumerate() {
                if self.skip_zeros && a == 0.0 {
                    continue;
                }
                axpy(o_row, a, &self.b[p * n..(p + 1) * n]);
            }
        }
    }
}

/// `out = a · b` for `a` `[m, k]`, `b` `[k, N]` and `out` `[m, N]`, all
/// row-major, row by row of `out`: the row's `N` sums sit in one
/// `[f32; N]`, which the compiler keeps in registers across the whole `p`
/// loop, and every `a[i, p] · b[p, :]` is added, zeros of `a` too. With
/// no test on `a` the loop has no branch but its own, and its lanes run
/// across the `N` outputs.
struct RowTile<'a, const N: usize> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    out: &'a mut [f32],
}

impl<const N: usize> Kernel for RowTile<'_, N> {
    #[inline(always)]
    fn run(self) {
        if self.k == 0 {
            return;
        }
        let (b_rows, _) = self.b.as_chunks::<N>();
        let (o_rows, _) = self.out.as_chunks_mut::<N>();
        for (a_row, o_row) in self.a.chunks_exact(self.k).zip(o_rows) {
            *o_row = row_product(a_row, b_rows);
        }
    }
}

/// One [`RowTile`] row: `Σ_p a[p] · b[p, :]`, each of the `N` sums from
/// `+0.0` in ascending `p`, every term added.
#[inline(always)]
pub(crate) fn row_product<const N: usize>(a: &[f32], b: &[[f32; N]]) -> [f32; N] {
    let mut acc = [0.0f32; N];
    for (&a, b_row) in a.iter().zip(b) {
        for (s, &b) in acc.iter_mut().zip(b_row) {
            *s += a * b;
        }
    }
    acc
}

/// Each tile width, with the entry that runs its tile in the AVX
/// compilation. The entries are named one a width, not monomorphs of
/// [`with_avx`] (whose instances all demangle to one name), so that a
/// tile's AVX code can be found in a binary: `scripts/verify.sh` checks
/// that each has 8-lane (`ymm`) arithmetic and no float compare. The
/// widths are those of the NECS model's layers: the tower's
/// 33 → 16 → 8 → 1, the code projection's 24, the GCN's 16 and the
/// convolution's 32 kernels.
macro_rules! row_tiles {
    ($($n:literal => $avx:ident),*) => {
        /// `out = a · b` in the [`RowTile`] of width `n`, in `kernels`'
        /// compilation; `false`, with `out` untouched, where `n` has none.
        fn run_row_tile(
            kernels: Kernels,
            a: &[f32],
            b: &[f32],
            (k, n): (usize, usize),
            out: &mut [f32],
        ) -> bool {
            match n {
                $($n => {
                    let tile = RowTile::<$n> { a, b, k, out };
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: the entry runs `tile` with AVX enabled and
                    // needs nothing else of the CPU.
                    unsafe { kernels.run_via(tile, $avx) };
                    #[cfg(not(target_arch = "x86_64"))]
                    kernels.run(tile);
                })*
                _ => return false,
            }
            true
        }

        $(
            /// The AVX compilation of this width's [`RowTile`].
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx")]
            #[inline(never)]
            fn $avx(tile: RowTile<'_, $n>) {
                tile.run()
            }
        )*

        /// The output widths a product runs in a [`RowTile`].
        #[cfg(test)]
        const TILE_WIDTHS: &[usize] = &[$($n),*];
    };
}

row_tiles!(
    1 => row_tile_avx_1,
    8 => row_tile_avx_8,
    16 => row_tile_avx_16,
    24 => row_tile_avx_24,
    32 => row_tile_avx_32,
    33 => row_tile_avx_33
);

/// `out += aᵀ · b` for `a` `[k, m]`, `b` `[k, n]` and `out` `[m, n]`, all
/// row-major, row by row of `a` and `b`: row `p` adds `a[p, i] · b[p, :]`
/// to every row `i` of `out` whose `a[p, i]` is not zero.
struct TransposedProduct<'a> {
    a: &'a [f32],
    b: &'a [f32],
    mkn: (usize, usize, usize),
    out: &'a mut [f32],
}

impl Kernel for TransposedProduct<'_> {
    #[inline(always)]
    fn run(self) {
        let (m, k, n) = self.mkn;
        for p in 0..k {
            let b_row = &self.b[p * n..(p + 1) * n];
            for (i, &a) in self.a[p * m..(p + 1) * m].iter().enumerate() {
                if a != 0.0 {
                    axpy(&mut self.out[i * n..(i + 1) * n], a, b_row);
                }
            }
        }
    }
}

/// `o += a · b`, element by element: one product and one add per output,
/// the lanes across outputs.
#[inline(always)]
fn axpy(o: &mut [f32], a: f32, b: &[f32]) {
    for (o, &b) in o.iter_mut().zip(b) {
        *o += a * b;
    }
}

/// A loop written once and compiled once per [`Kernels`] variant. Every
/// implementation marks `run` `#[inline(always)]`, so that the AVX
/// compilation inlines a copy of its own, and so does everything `run`
/// calls.
pub(crate) trait Kernel {
    /// Run the loop.
    fn run(self);
}

/// Which compilation of the kernels runs: the convolution's window sums
/// ([`Tape::conv_relu_max`](crate::Tape::conv_relu_max)) and the loops of
/// [`Tensor::matmul`], [`Tensor::matmul_rows`],
/// [`Tensor::matmul_transpose_b`] and [`Tensor::transpose_a_matmul`], and
/// the NECS tower's fused tail
/// ([`TowerMlp::infer_from_first`](crate::layers::TowerMlp::infer_from_first)).
///
/// Each loop body is written once and compiled twice: plain, for the
/// target's baseline (4-lane SSE2 on x86-64), and on x86-64 once more
/// with AVX enabled, where the same loops run 8 lanes wide. The public
/// entries run the AVX compilation where the CPU has AVX (a zero-skipping
/// product only when its rows are at least 32 outputs wide; a row tile at
/// every width). Both give the same bits: the lanes lie across
/// independent outputs (kernels, output columns), never across one sum, so every sum keeps its terms, their
/// order and its `+0.0` start; and without `fma` each product and each add
/// rounds on its own, as in SSE2. (Only the payload of a NaN may differ.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernels {
    /// The plain compilation.
    Portable,
    /// The AVX compilation (x86-64 only).
    Avx,
}

impl Kernels {
    /// The compilation the public entries run on this CPU.
    pub fn detected() -> Kernels {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Kernels::Avx;
        }
        Kernels::Portable
    }

    /// `"avx"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            Kernels::Portable => "portable",
            Kernels::Avx => "avx",
        }
    }

    /// Run `kernel` in this compilation. Off x86-64 both run it as it is.
    #[inline(always)]
    pub(crate) fn run<K: Kernel>(self, kernel: K) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `with_avx` runs `kernel` with AVX enabled and needs
        // nothing else of the CPU.
        unsafe {
            self.run_via(kernel, with_avx)
        };
        #[cfg(not(target_arch = "x86_64"))]
        kernel.run();
    }

    /// [`Kernels::run`], with the AVX compilation entered through `avx`.
    ///
    /// # Safety
    ///
    /// `avx` must run `kernel` and must be safe to call on every CPU that
    /// has AVX.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn run_via<K: Kernel>(self, kernel: K, avx: unsafe fn(K)) {
        if self == Kernels::Avx {
            assert!(std::arch::is_x86_feature_detected!("avx"), "AVX kernels on a CPU without AVX");
            // SAFETY: the CPU has AVX, checked on the line above, and
            // `avx` needs nothing more (this function's contract).
            return unsafe { avx(kernel) };
        }
        kernel.run()
    }
}

#[cfg(test)]
impl Kernels {
    /// Every compilation this host can run: `Portable`, and `Avx` where
    /// the CPU has AVX.
    pub(crate) fn on_this_host() -> Vec<Kernels> {
        let avx = Kernels::detected() == Kernels::Avx;
        [Kernels::Portable].into_iter().chain(avx.then_some(Kernels::Avx)).collect()
    }
}

/// `kernel.run()`, compiled with AVX enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn with_avx(kernel: impl Kernel) {
    kernel.run()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(4, 3, vec![1., 0., 2., -1., 3., 1., 2., 2., 0., 0., 1., 4.]);
        let via_t = a.matmul(&b.transposed());
        let direct = a.matmul_transpose_b(&b);
        assert_eq!(via_t, direct);

        let c = Tensor::from_vec(2, 4, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let a2 = Tensor::from_vec(2, 3, vec![1., -2., 3., 0.5, 5., -6.]);
        let via_t2 = a2.transposed().matmul(&c);
        let direct2 = a2.transpose_a_matmul(&c);
        assert_eq!(via_t2, direct2);
    }

    /// `len` values from `seed`: a quarter exact zeros of either sign and,
    /// with `specials`, one in 16 an infinity or a NaN; the rest in ±2.
    pub(crate) fn values(len: usize, seed: u64, specials: bool) -> Vec<f32> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..len)
            .map(|_| {
                let r = next();
                match r % 16 {
                    0..=1 => 0.0,
                    2..=3 => -0.0,
                    4 if specials => {
                        [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(r >> 8) as usize % 3]
                    }
                    _ => ((r >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32,
                }
            })
            .collect()
    }

    /// Equal shapes, and every element bit for bit, except that a NaN
    /// matches any NaN (which NaN an operation on two returns is up to the
    /// order the compiler puts its operands in).
    fn assert_same(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (e, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}: element {e} is {g:e} ({:#x}), want {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `Σ_p a(i, p) · b(p, j)` from `+0.0` in ascending `p`, skipping zero
    /// `a(i, p)` where `skip_zeros` holds, one output at a time.
    fn naive(
        (m, k, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        skip_zeros: bool,
    ) -> Tensor {
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0f32;
                for p in 0..k {
                    if !(skip_zeros && a(i, p) == 0.0) {
                        sum += a(i, p) * b(p, j);
                    }
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    /// `(m, k, n)`: outputs from none to several vectors of 8 and a tail,
    /// on both sides of the 32 outputs a row from which a product runs
    /// AVX; sums of no terms to 40.
    fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
        (0usize..=9, 0usize..=40, 1usize..=70)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `matmul` and `matmul_rows` at every band offset, in each
        /// compilation, against the naive loop with its zero skip: exact
        /// zeros of both signs (skipped), ±inf and NaN on either side.
        #[test]
        fn matmul_and_matmul_rows_equal_the_naive_loop_bit_for_bit(
            (m, k, n) in shapes(),
            (from, extra) in (0usize..=3, 0usize..=2),
            seed in any::<u64>(),
            specials in any::<bool>(),
        ) {
            let a = Tensor::from_vec(m, k, values(m * k, seed, specials));
            let rows = from + k + extra;
            let b = Tensor::from_vec(rows, n, values(rows * n, !seed, specials));
            let want = naive((m, k, n), |i, p| a.get(i, p), |p, j| b.get(from + p, j), true);
            for kernels in Kernels::on_this_host() {
                let what = format!("{} [{m},{k}]·[{rows},{n}] from {from}", kernels.name());
                assert_same(&a.matmul_rows_on(kernels, &b, from), &want, &what);
            }
            assert_same(&a.matmul_rows(&b, from), &want, "matmul_rows");
            if from == 0 && extra == 0 {
                assert_same(&a.matmul(&b), &want, "matmul");
            }
        }

        /// Every tiled width, in each compilation, against the naive loop
        /// with its zero skip: zeros of both signs in `a`, and a `b` that is
        /// all finite (the tile runs) or may hold an infinity or a NaN
        /// (the zero-skipping loop must run: a tile would make a zero
        /// entry's term a NaN).
        #[test]
        fn every_tile_width_equals_the_naive_loop_bit_for_bit(
            (w, m, k) in (0..TILE_WIDTHS.len(), 0usize..=9, 0usize..=70),
            seed in any::<u64>(),
            (specials_a, specials_b) in (any::<bool>(), any::<bool>()),
        ) {
            let n = TILE_WIDTHS[w];
            let a = Tensor::from_vec(m, k, values(m * k, seed, specials_a));
            let b = Tensor::from_vec(k, n, values(k * n, !seed, specials_b));
            let want = naive((m, k, n), |i, p| a.get(i, p), |p, j| b.get(p, j), true);
            for kernels in Kernels::on_this_host() {
                let what = format!("{} [{m},{k}]·[{k},{n}]", kernels.name());
                assert_same(&a.matmul_rows_on(kernels, &b, 0), &want, &what);
            }
        }

        /// `matmul_transpose_b` in each compilation against the dot of two
        /// rows, every term added (no zero skip).
        #[test]
        fn matmul_transpose_b_equals_a_dot_per_element_bit_for_bit(
            (m, k, n) in shapes(),
            seed in any::<u64>(),
            specials in any::<bool>(),
        ) {
            let a = Tensor::from_vec(m, k, values(m * k, seed, specials));
            let b = Tensor::from_vec(n, k, values(n * k, !seed, specials));
            let want = naive((m, k, n), |i, p| a.get(i, p), |p, j| b.get(j, p), false);
            for kernels in Kernels::on_this_host() {
                let what = format!("{} [{m},{k}]·[{n},{k}]ᵀ", kernels.name());
                assert_same(&a.matmul_transpose_b_on(kernels, &b), &want, &what);
            }
            assert_same(&a.matmul_transpose_b(&b), &want, "matmul_transpose_b");
        }

        /// `transpose_a_matmul` in each compilation against the naive loop
        /// over `selfᵀ`, zero entries of `self` skipped.
        #[test]
        fn transpose_a_matmul_equals_the_naive_loop_bit_for_bit(
            (m, k, n) in shapes(),
            seed in any::<u64>(),
            specials in any::<bool>(),
        ) {
            let a = Tensor::from_vec(k, m, values(k * m, seed, specials));
            let b = Tensor::from_vec(k, n, values(k * n, !seed, specials));
            let want = naive((m, k, n), |i, p| a.get(p, i), |p, j| b.get(p, j), true);
            for kernels in Kernels::on_this_host() {
                let what = format!("{} ([{k},{m}])ᵀ·[{k},{n}]", kernels.name());
                assert_same(&a.transpose_a_matmul_on(kernels, &b), &want, &what);
            }
            assert_same(&a.transpose_a_matmul(&b), &want, "transpose_a_matmul");
        }
    }

    #[test]
    fn the_properties_run_every_compilation_this_host_has() {
        let under_test = Kernels::on_this_host();
        let names: Vec<&str> = under_test.iter().map(|k| k.name()).collect();
        eprintln!("nn kernels under test: {}", names.join(", "));
        assert_eq!(under_test[0], Kernels::Portable);
        assert_eq!(under_test.contains(&Kernels::Avx), Kernels::detected() == Kernels::Avx);
    }

    #[test]
    fn matmul_rows_over_a_full_band_equals_matmul_bit_for_bit() {
        let w = Tensor::from_vec(3, 2, vec![7., -8., 0.3, 10., 11., -0.7]);
        let bits = |t: Tensor| (t.shape(), t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        // Zeros of both signs (skipped), no rows, one row.
        let mixed = Tensor::from_vec(3, 3, vec![0.1, -0.0, 3., 1e-3, 0.0, -3., 5., 2., 0.5]);
        for a in [mixed, Tensor::zeros(0, 3), Tensor::from_vec(1, 3, vec![1., 0., -2.])] {
            assert_eq!(bits(a.matmul_rows(&w, 0)), bits(a.matmul(&w)), "{a:?}");
        }
        // A narrower band is the product with those rows of `w` alone.
        let a = Tensor::from_vec(2, 1, vec![2., -0.5]);
        let last_row = Tensor::from_vec(1, 2, vec![11., -0.7]);
        assert_eq!(bits(a.matmul_rows(&w, 2)), bits(a.matmul(&last_row)));
    }

    #[test]
    fn a_non_finite_b_keeps_the_zero_skip_at_every_tile_width() {
        // Row 0 is all zeros: skipped, each of its outputs is +0.0; a tile
        // would add 0 · inf and 0 · NaN, both NaN.
        let a = Tensor::from_vec(2, 2, vec![0.0, -0.0, 1.0, 0.5]);
        for &n in TILE_WIDTHS {
            let mut b = Tensor::full(2, n, 1.0);
            b.set(0, n - 1, f32::INFINITY);
            b.set(1, 0, f32::NAN);
            for kernels in Kernels::on_this_host() {
                let c = a.matmul_rows_on(kernels, &b, 0);
                let what = format!("{} width {n}", kernels.name());
                assert!(c.row(0).iter().all(|v| v.to_bits() == 0), "{what}");
                assert!(c.get(1, 0).is_nan(), "{what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rows_panics_past_the_last_row() {
        let _ = Tensor::zeros(1, 2).matmul_rows(&Tensor::zeros(3, 2), 2);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_panics_on_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_and_elementwise() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 20., 30.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6., 12., 18.]);
        assert_eq!(a.hadamard(&b).data(), &[60., 240., 540.]);
        assert_eq!(a.add(&b).data(), &[16., 32., 48.]);
        assert_eq!(a.scaled(2.0).data(), &[12., 24., 36.]);
    }

    #[test]
    fn in_place_bias_and_relu() {
        let mut a = Tensor::from_vec(2, 2, vec![1., -2., -3., 4.]);
        a.add_row_(&Tensor::row_vector(vec![0.5, 0.5]));
        assert_eq!(a.data(), &[1.5, -1.5, -2.5, 4.5]);
        a.relu_();
        assert_eq!(a.data(), &[1.5, 0., 0., 4.5]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1., -2., 3., -4.]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.norm_sq(), 30.0);
    }

    #[test]
    fn rows_are_contiguous() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1), &[4., 5., 6.]);
    }
}
