//! Dense row-major `f32` tensors (rank ≤ 2 in practice).
//!
//! The workspace's neural models only need matrices and vectors; this type
//! keeps shape explicit and panics loudly on mismatches (shape bugs in
//! hand-rolled backprop are otherwise silent death).

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

    /// Matrix product `self · other` with an ikj loop (cache friendly for
    /// row-major operands; ample for the model sizes in this workspace).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// `self · otherᵀ`: every output element is the dot product of two rows,
    /// its terms added in column order from `+0.0` (no zero skip). Done as
    /// axpys over a transposed copy of `other`, which vectorise where a
    /// scalar dot per element cannot, and leave each sum's order alone.
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tB shape mismatch: {}x{} · ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let bt = other.transposed();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in self.data[i * k..(i + 1) * k].iter().enumerate() {
                for (o, &b) in o_row.iter_mut().zip(&bt.data[p * n..(p + 1) * n]) {
                    *o += a * b;
                }
            }
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn transpose_a_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "tA_matmul shape mismatch: ({}x{})^T · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn matmul_transpose_b_equals_a_dot_per_element_bit_for_bit() {
        // Values from a fixed recurrence (some exactly zero), not an rng.
        let fill = |rows: usize, cols: usize, salt: usize| {
            let at = |i: usize| ((i * 29 + salt) % 53) as f32 * 0.04 - 1.0;
            Tensor::from_vec(rows, cols, (0..rows * cols).map(at).collect())
        };
        for (m, k, n) in [(512, 33, 66), (1, 40, 7), (9, 1, 5), (3, 17, 1)] {
            let (a, b) = (fill(m, k, 5), fill(n, k, 3));
            let got = a.matmul_transpose_b(&b);
            assert_eq!(got.shape(), (m, n));
            for i in 0..m {
                for j in 0..n {
                    let mut dot = 0.0f32;
                    for (x, y) in a.row(i).iter().zip(b.row(j)) {
                        dot += x * y;
                    }
                    assert_eq!(
                        got.get(i, j).to_bits(),
                        dot.to_bits(),
                        "[{m},{k}]·[{n},{k}]ᵀ at ({i},{j})"
                    );
                }
            }
        }
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
