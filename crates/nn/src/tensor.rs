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
        if !(finite && run_row_tile(kernels, &self.data, b, (k, n), n, &mut out)) {
            let product = Product { a: &self.data, b, mkn: (m, k, n), out: &mut out };
            for_rows_of(kernels, n).run(product);
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// `self · otherᵀ`: every output element is the dot product of two rows,
    /// its terms added in column order from `+0.0` (no zero skip). Runs as
    /// [`RowTile`]s over `otherᵀ`, packed into [`panels`] of tile widths
    /// (one panel where `other.rows` is a tile width): a tile adds every
    /// term in that order, which is all this product ever did, so it needs
    /// no finiteness test.
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
        let mut out = vec![0.0f32; m * n];
        if m > 0 {
            for (col, w) in panels(n) {
                let bt = transposed_band(&other.data, k, col, w);
                run_row_tile(kernels, &self.data, &bt, (k, w), n, &mut out[col..]);
            }
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// `selfᵀ · other` without materializing the transpose: each output's
    /// terms added in row order from `+0.0`, zero entries of `self` skipped.
    /// Where `other` is all finite, no term is skipped, with the same bits
    /// (the zero-term argument of [`matmul`](Self::matmul)): one output
    /// column runs a [`RowTile`] as wide as `self` (`outᵀ = otherᵀ · self`,
    /// and a product of two floats is the same float in either order),
    /// any other width [`ColTile`]s over [`panels`] of `other`'s columns.
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
        // As in `matmul_rows_on`: a zero of `self` times a non-finite `other`
        // is a NaN the skip never made.
        let finite = other.data.iter().fold(true, |finite, v| finite & v.is_finite());
        if !finite {
            let product =
                TransposedProduct { a: &self.data, b: &other.data, mkn: (m, k, n), out: &mut out };
            for_rows_of(kernels, n).run(product);
        } else if n == 1 {
            for (col, w) in panels(m) {
                let b = band(&self.data, m, col, w);
                run_row_tile(kernels, &other.data, &b, (k, w), m, &mut out[col..]);
            }
        } else if m > 0 {
            for (col, w) in panels(n) {
                let b = band(&other.data, n, col, w);
                run_col_tile(kernels, (&self.data, m), &b, (k, w), n, &mut out[col..]);
            }
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let data = transposed_band(&self.data, self.cols, 0, self.rows);
        Tensor { rows: self.cols, cols: self.rows, data }
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
/// `p` ascending, skipping zero `a[i, p]`.
struct Product<'a> {
    a: &'a [f32],
    b: &'a [f32],
    mkn: (usize, usize, usize),
    out: &'a mut [f32],
}

impl Kernel for Product<'_> {
    #[inline(always)]
    fn run(self) {
        let (m, k, n) = self.mkn;
        for i in 0..m {
            let o_row = &mut self.out[i * n..(i + 1) * n];
            for (p, &a) in self.a[i * k..(i + 1) * k].iter().enumerate() {
                if a != 0.0 {
                    axpy(o_row, a, &self.b[p * n..(p + 1) * n]);
                }
            }
        }
    }
}

/// `out = a · b` for `a` `[m, k]` and `b` `[k, N]`, row-major, into `N`
/// columns of an `out` whose rows are `stride` apart, row by row of `out`:
/// the row's `N` sums sit in one `[f32; N]`, which the compiler keeps in
/// registers across the whole `p` loop, and every `a[i, p] · b[p, :]` is
/// added, zeros of `a` too. With no test on `a` the loop has no branch but
/// its own, and its lanes run across the `N` outputs.
struct RowTile<'a, const N: usize> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    out: &'a mut [f32],
    stride: usize,
}

impl<const N: usize> Kernel for RowTile<'_, N> {
    #[inline(always)]
    fn run(self) {
        if self.k == 0 {
            return;
        }
        let (b_rows, _) = self.b.as_chunks::<N>();
        for (a_row, o_row) in self.a.chunks_exact(self.k).zip(self.out.chunks_mut(self.stride)) {
            o_row[..N].copy_from_slice(&row_product(a_row, b_rows));
        }
    }
}

/// One [`RowTile`] row: `Σ_p a[p] · b[p, :]`, each of the `N` sums from
/// `+0.0` in ascending `p`, every term added.
#[inline(always)]
pub(crate) fn row_product<'a, const N: usize>(
    a: impl IntoIterator<Item = &'a f32>,
    b: &[[f32; N]],
) -> [f32; N] {
    let mut acc = [0.0f32; N];
    for (&a, b_row) in a.into_iter().zip(b) {
        for (s, &b) in acc.iter_mut().zip(b_row) {
            *s += a * b;
        }
    }
    acc
}

/// `out = aᵀ · b` for `a` `[k, m]` and `b` `[k, N]`, row-major, into `N`
/// columns of an `out` whose rows are `stride` apart: a [`RowTile`] whose
/// rows read columns of `a`, so no transposed copy of `a` is made. Rows
/// run `R` at a time: each `p` loads `R` neighbouring floats of `a`'s row
/// and one row of `b` for `R × N` sums, which keeps a strided walk down
/// `a` from costing a cache line a term. Every term is added, in ascending
/// `p` from `+0.0`.
struct ColTile<'a, const N: usize, const R: usize> {
    a: &'a [f32],
    m: usize,
    b: &'a [f32],
    out: &'a mut [f32],
    stride: usize,
}

impl<const N: usize, const R: usize> Kernel for ColTile<'_, N, R> {
    #[inline(always)]
    fn run(self) {
        if self.a.is_empty() {
            return;
        }
        let (b_rows, _) = self.b.as_chunks::<N>();
        let mut o_rows = self.out.chunks_mut(self.stride);
        let whole = self.m - self.m % R;
        for i in (0..whole).step_by(R) {
            let block: [[f32; N]; R] = column_block(self.a, self.m, b_rows, i);
            for (sums, o_row) in block.iter().zip(&mut o_rows) {
                o_row[..N].copy_from_slice(sums);
            }
        }
        for (i, o_row) in (whole..self.m).zip(o_rows) {
            let column = self.a[i..].iter().step_by(self.m);
            o_row[..N].copy_from_slice(&row_product(column, b_rows));
        }
    }
}

/// Rows `i .. i + R` of a [`ColTile`]: `Σ_p a[p, i + r] · b[p, :]` for
/// each `r`, from `+0.0` in ascending `p`, every term added.
#[inline(always)]
fn column_block<const N: usize, const R: usize>(
    a: &[f32],
    m: usize,
    b: &[[f32; N]],
    i: usize,
) -> [[f32; N]; R] {
    let mut acc = [[0.0f32; N]; R];
    for (a_row, b_row) in a.chunks_exact(m).zip(b) {
        let a: &[f32; R] = a_row[i..i + R].try_into().unwrap();
        // Indexed loops: LLVM keeps this form's `R × N` sums in registers,
        // and spills the iterator form's to the stack.
        #[allow(clippy::needless_range_loop)]
        for r in 0..R {
            for j in 0..N {
                acc[r][j] += a[r] * b_row[j];
            }
        }
    }
    acc
}

/// Columns `from .. from + w` of a row-major matrix `width` wide, packed
/// `[rows, w]`: the matrix itself where they are all of it.
fn band(data: &[f32], width: usize, from: usize, w: usize) -> std::borrow::Cow<'_, [f32]> {
    if w == width {
        return data.into();
    }
    data.chunks_exact(width).flat_map(|row| &row[from..from + w]).copied().collect()
}

/// Rows `from .. from + w` of a row-major matrix `cols` wide, transposed:
/// `[cols, w]`, row-major.
fn transposed_band(data: &[f32], cols: usize, from: usize, w: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; cols * w];
    if cols > 0 {
        for (j, row) in data[from * cols..(from + w) * cols].chunks_exact(cols).enumerate() {
            for (o, &v) in out[j..].iter_mut().step_by(w).zip(row) {
                *o = v;
            }
        }
    }
    out
}

/// The panels `(first column, width)` a product `n` outputs wide runs in,
/// each a tile width, left to right: the cover with the fewest steps,
/// counting `⌈w / 8⌉` 8-lane steps a term for a panel `w` wide and one more
/// for its pass over the left-hand side. A tile width is its own one
/// panel; 66 runs as 33 + 33 and 57 as 33 + 24.
fn panels(n: usize) -> Vec<(usize, usize)> {
    if TILE_WIDTHS.contains(&n) {
        return vec![(0, n)];
    }
    // cost[r]: the cheapest cover of `r` columns, whose first panel is pick[r].
    let (mut cost, mut pick) = (vec![0usize; n + 1], vec![0usize; n + 1]);
    for r in 1..=n {
        let covers = TILE_WIDTHS.iter().filter(|&&w| w <= r);
        let steps = covers.map(|&w| (cost[r - w] + w.div_ceil(8) + 1, w));
        // Ties go to the wider first panel.
        (cost[r], pick[r]) = steps.min_by_key(|&(c, w)| (c, std::cmp::Reverse(w))).unwrap();
    }
    let (mut out, mut col) = (Vec::new(), 0);
    while col < n {
        let w = pick[n - col];
        out.push((col, w));
        col += w;
    }
    out
}

/// Each tile width, with the entries that run its [`RowTile`] and its
/// [`ColTile`] in the AVX compilation. The entries are named one a width,
/// not monomorphs of [`with_avx`] (whose instances all demangle to one
/// name), so that a tile's AVX code can be found in a binary:
/// `scripts/verify.sh` reads the names from this list and checks that
/// each entry has 8-lane (`ymm`) arithmetic and no float compare. The
/// widths are those of the NECS model's layers: the tower's
/// 33 → 16 → 8 → 1, the code projection's 24, the GCN's 16 and the
/// convolution's 32 kernels.
macro_rules! row_tiles {
    ($($n:literal => $row:ident, $col:ident, $r:literal;)*) => {
        /// `out = a · b` in the [`RowTile`] of width `n`, into rows of
        /// `out` `stride` apart, in `kernels`' compilation; `false`, with
        /// `out` untouched, where `n` has none.
        fn run_row_tile(
            kernels: Kernels,
            a: &[f32],
            b: &[f32],
            (k, n): (usize, usize),
            stride: usize,
            out: &mut [f32],
        ) -> bool {
            match n {
                $($n => {
                    let tile = RowTile::<$n> { a, b, k, out, stride };
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: the entry runs `tile` with AVX enabled and
                    // needs nothing else of the CPU.
                    unsafe { kernels.run_via(tile, $row) };
                    #[cfg(not(target_arch = "x86_64"))]
                    kernels.run(tile);
                })*
                _ => return false,
            }
            true
        }

        /// `out = aᵀ · b` in the [`ColTile`] of width `n` (a tile width),
        /// for `a` `[k, m]`, into rows of `out` `stride` apart, in
        /// `kernels`' compilation.
        fn run_col_tile(
            kernels: Kernels,
            (a, m): (&[f32], usize),
            b: &[f32],
            (_k, n): (usize, usize),
            stride: usize,
            out: &mut [f32],
        ) {
            match n {
                $($n => {
                    let tile = ColTile::<$n, $r> { a, m, b, out, stride };
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: the entry runs `tile` with AVX enabled and
                    // needs nothing else of the CPU.
                    unsafe { kernels.run_via(tile, $col) };
                    #[cfg(not(target_arch = "x86_64"))]
                    kernels.run(tile);
                })*
                _ => unreachable!("no column tile {n} wide"),
            }
        }

        $(
            /// The AVX compilation of this width's [`RowTile`].
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx")]
            #[inline(never)]
            fn $row(tile: RowTile<'_, $n>) {
                tile.run()
            }

            /// The AVX compilation of this width's [`ColTile`].
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx")]
            #[inline(never)]
            fn $col(tile: ColTile<'_, $n, $r>) {
                tile.run()
            }
        )*

        /// The output widths a product runs in a tile.
        const TILE_WIDTHS: &[usize] = &[$($n),*];
    };
}

row_tiles!(
    1 => row_tile_avx_1, col_tile_avx_1, 8;
    8 => row_tile_avx_8, col_tile_avx_8, 4;
    16 => row_tile_avx_16, col_tile_avx_16, 4;
    24 => row_tile_avx_24, col_tile_avx_24, 3;
    32 => row_tile_avx_32, col_tile_avx_32, 2;
    33 => row_tile_avx_33, col_tile_avx_33, 2;
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
    }

    /// Output widths of the backward products: each tile width; 57 and 66
    /// (the discriminator's and the NECS tower's inputs, run in panels
    /// 33 + 24 and 33 + 33); 32, the benchmark corpus's one-hot width (a
    /// tile width), and 20, 29 and 41, one-hot widths of other vocabularies
    /// (panels with single-column tails).
    const BACKWARD_WIDTHS: &[usize] = &[1, 8, 16, 24, 32, 33, 57, 66, 20, 29, 41];

    /// A width from [`BACKWARD_WIDTHS`], or any from none to 70.
    fn backward_width() -> impl Strategy<Value = usize> {
        (0..=BACKWARD_WIDTHS.len(), 0usize..=70)
            .prop_map(|(i, any)| BACKWARD_WIDTHS.get(i).copied().unwrap_or(any))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// Both backward products at every width they run in, in each
        /// compilation and through the public entry, against the naive
        /// loops bit for bit: `g · Wᵀ` (every term added) and `xᵀ · g`
        /// (zero entries of `x` skipped), for a `g` that is all finite (the
        /// tiles run) or may hold an infinity or a NaN (`xᵀ · g` must keep
        /// its zero skip), zeros of both signs on every side. `xᵀ · g` one
        /// column wide runs as `gᵀ · x` in a row tile as wide as `x`; any
        /// other width runs in column tiles.
        #[test]
        fn every_backward_path_equals_the_naive_loop_bit_for_bit(
            (m, n, one_column) in (backward_width(), backward_width(), any::<bool>()),
            (rows, k) in (0usize..=9, 0usize..=40),
            seed in any::<u64>(),
            (specials_x, specials_g) in (any::<bool>(), any::<bool>()),
        ) {
            let n = if one_column { 1 } else { n };
            // da = g · Wᵀ for g [rows, k] and W [m, k].
            let g = Tensor::from_vec(rows, k, values(rows * k, seed, specials_g));
            let w = Tensor::from_vec(m, k, values(m * k, !seed, specials_x));
            let want = naive((rows, k, m), |i, p| g.get(i, p), |p, j| w.get(j, p), false);
            for kernels in Kernels::on_this_host() {
                let what = format!("{} [{rows},{k}]·[{m},{k}]ᵀ", kernels.name());
                assert_same(&g.matmul_transpose_b_on(kernels, &w), &want, &what);
            }
            assert_same(&g.matmul_transpose_b(&w), &want, "matmul_transpose_b");
            // dW = xᵀ · g for x [k, m] and g [k, n].
            let x = Tensor::from_vec(k, m, values(k * m, seed ^ 0x5eed, specials_x));
            let g = Tensor::from_vec(k, n, values(k * n, !seed ^ 0x5eed, specials_g));
            let want = naive((m, k, n), |i, p| x.get(p, i), |p, j| g.get(p, j), true);
            for kernels in Kernels::on_this_host() {
                let what = format!("{} ([{k},{m}])ᵀ·[{k},{n}]", kernels.name());
                assert_same(&x.transpose_a_matmul_on(kernels, &g), &want, &what);
            }
            assert_same(&x.transpose_a_matmul(&g), &want, "transpose_a_matmul");
        }
    }

    #[test]
    fn a_non_finite_g_keeps_the_zero_skip_of_x_transposed_times_g() {
        // Column 0 of `x` is all zeros: skipped, row 0 of `xᵀ · g` is +0.0;
        // a tile would add 0 · inf and 0 · NaN, both NaN.
        for &m in BACKWARD_WIDTHS {
            for n in [1, m] {
                let mut x = Tensor::full(2, m, 1.0);
                x.set(0, 0, 0.0);
                x.set(1, 0, -0.0);
                let mut g = Tensor::full(2, n, 1.0);
                g.set(0, n - 1, f32::INFINITY);
                g.set(1, 0, f32::NAN);
                for kernels in Kernels::on_this_host() {
                    let dw = x.transpose_a_matmul_on(kernels, &g);
                    let what = format!("{} [2,{m}]ᵀ·[2,{n}]", kernels.name());
                    assert!(dw.row(0).iter().all(|v| v.to_bits() == 0), "{what}");
                    assert!(m == 1 || dw.get(1, 0).is_nan(), "{what}");
                }
            }
        }
    }

    #[test]
    fn panels_cover_each_width_with_tile_widths_left_to_right() {
        assert_eq!(panels(66), [(0, 33), (33, 33)]);
        assert_eq!(panels(57), [(0, 33), (33, 24)]);
        for &w in TILE_WIDTHS {
            assert_eq!(panels(w), [(0, w)]);
        }
        for n in 0..=200 {
            let mut next = 0;
            for (col, w) in panels(n) {
                assert!(col == next && TILE_WIDTHS.contains(&w), "{n}: {:?}", panels(n));
                next += w;
            }
            assert_eq!(next, n);
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
