//! Neural layers built on the autograd tape.
//!
//! Every layer owns [`ParamId`]s into a shared [`Params`] store and exposes
//! a `forward(&self, tape, ...) -> Var`. Layers are exactly those needed by
//! the paper's models: dense / tower-MLP (performance estimation,
//! discriminator), a multi-width Conv1d bank with global max pooling (code
//! encoder, Eq. 1), graph convolution (scheduler encoder, Eq. 2), and the
//! LSTM / Transformer encoders used as Table VII baselines.

use crate::init;
use crate::tape::{ParamId, Params, Tape, Var};
use crate::tensor::{row_product, Kernel, Kernels, Tensor};
use rand::rngs::StdRng;

/// Fully connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight `[in, out]`.
    pub w: ParamId,
    /// Bias `[1, out]`.
    pub b: ParamId,
    /// Input width.
    pub input: usize,
    /// Output width.
    pub output: usize,
}

impl Dense {
    /// Create with He init (use before ReLU) under `name` in the store.
    pub fn new(
        params: &mut Params,
        name: &str,
        input: usize,
        output: usize,
        rng: &mut StdRng,
    ) -> Dense {
        let w = params.add(format!("{name}.w"), init::he(input, output, rng));
        let b = params.add(format!("{name}.b"), Tensor::zeros(1, output));
        Dense { w, b, input, output }
    }

    /// `x [B, in] -> [B, out]` (no activation).
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        let w = tape.param(params, self.w);
        let b = tape.param(params, self.b);
        let h = tape.matmul(x, w);
        tape.add_row_broadcast(h, b)
    }

    /// [`Dense::forward`] without a tape: the same two kernels in the same
    /// order, reading the weights in place.
    fn infer(&self, params: &Params, x: &Tensor) -> Tensor {
        let mut h = x.matmul(params.value(self.w));
        h.add_row_(params.value(self.b));
        h
    }
}

/// Tower MLP: each hidden layer halves the width (paper Section III-F),
/// ReLU activations, linear head of width `out`.
#[derive(Debug, Clone)]
pub struct TowerMlp {
    layers: Vec<Dense>,
    head: Dense,
}

impl TowerMlp {
    /// `input` → `input/2` → `input/4` → … (`depth` hidden layers, floor 8
    /// units) → `out`.
    pub fn new(
        params: &mut Params,
        name: &str,
        input: usize,
        depth: usize,
        out: usize,
        rng: &mut StdRng,
    ) -> TowerMlp {
        let mut layers = Vec::with_capacity(depth);
        let mut width = input;
        for l in 0..depth {
            let next = (width / 2).max(8);
            layers.push(Dense::new(params, &format!("{name}.h{l}"), width, next, rng));
            width = next;
        }
        let head = Dense::new(params, &format!("{name}.head"), width, out, rng);
        TowerMlp { layers, head }
    }

    /// Forward returning the head output `[B, out]`.
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        self.forward_with_hidden(tape, params, x).0
    }

    /// Forward returning `(head output, concatenated hidden activations)`.
    ///
    /// The hidden concatenation `h_i = f¹(x) ‖ … ‖ f^L(…)` is the feature
    /// embedding the paper's Adaptive Model Update discriminates on.
    pub fn forward_with_hidden(&self, tape: &mut Tape, params: &Params, x: Var) -> (Var, Var) {
        let mut h = x;
        let mut hidden = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let z = layer.forward(tape, params, h);
            h = tape.relu(z);
            hidden.push(h);
        }
        let out = self.head.forward(tape, params, h);
        let cat = if hidden.is_empty() { h } else { tape.concat_cols(&hidden) };
        (out, cat)
    }

    /// Forward-only head output `[B, out]` for inference: bit-identical to
    /// [`TowerMlp::forward`] (the tape ops run these same `Tensor` kernels),
    /// but nothing is recorded, no weight is cloned and the hidden
    /// activations are not concatenated.
    pub fn infer(&self, params: &Params, x: &Tensor) -> Tensor {
        self.infer_from_first(params, x.matmul(params.value(self.first().w)))
    }

    /// The first layer's weights applied to one band of the input, without
    /// the bias: `x · W[from .. from + x.cols]`, for an `x` holding input
    /// columns `from ..`. The products of bands that tile the input sum to
    /// the first layer's product to within rounding (the sum re-associates).
    pub fn first_product(&self, params: &Params, x: &Tensor, from: usize) -> Tensor {
        x.matmul_rows(params.value(self.first().w), from)
    }

    /// The rest of [`TowerMlp::infer`] from the first layer's product `z`:
    /// its bias, its ReLU unless the head is the first layer, then every
    /// later layer.
    pub fn infer_from_first(&self, params: &Params, mut z: Tensor) -> Tensor {
        if let Some(out) = self.fused_tail(params, &z) {
            return out;
        }
        z.add_row_(params.value(self.first().b));
        let Some((_, later)) = self.layers.split_first() else {
            return z;
        };
        z.relu_();
        for layer in later {
            z = layer.infer(params, &z);
            z.relu_();
        }
        self.head.infer(params, &z)
    }

    /// [`TowerMlp::infer_from_first`] a row at a time, for the NECS
    /// tower's tail: three hidden layers whose widths end 33 → 16 → 8, and
    /// a head of 1. `None` for any other shape, or where a later layer's
    /// weight is not finite (a zero activation times it must be skipped,
    /// as `Tensor::matmul` skips it, not added).
    fn fused_tail(&self, params: &Params, z: &Tensor) -> Option<Tensor> {
        let [first, l2, l3] = &self.layers[..] else {
            return None;
        };
        let widths = (z.cols(), first.output, l2.output, l3.output, self.head.output);
        if widths != (33, 33, 16, 8, 1) {
            return None;
        }
        let finite = |d: &Dense| params.value(d.w).data().iter().all(|v| v.is_finite());
        if !(finite(l2) && finite(l3) && finite(&self.head)) {
            return None;
        }
        let bias = |d: &Dense| params.value(d.b).data();
        let mut out = vec![0.0f32; z.rows()];
        Kernels::detected().run(TowerTail::<33, 16, 8, 1> {
            z: z.data(),
            b1: bias(first).try_into().ok()?,
            l2: (params.value(l2.w).data().as_chunks().0, bias(l2).try_into().ok()?),
            l3: (params.value(l3.w).data().as_chunks().0, bias(l3).try_into().ok()?),
            head: (
                params.value(self.head.w).data().as_chunks().0,
                bias(&self.head).try_into().ok()?,
            ),
            out: &mut out,
        });
        Some(Tensor::from_vec(z.rows(), 1, out))
    }

    /// The layer that reads the input: the first hidden layer, or the head
    /// of a tower without one.
    fn first(&self) -> &Dense {
        self.layers.first().unwrap_or(&self.head)
    }

    /// Width of the concatenated hidden embedding.
    pub fn hidden_width(&self) -> usize {
        self.layers.iter().map(|l| l.output).sum()
    }
}

/// A dense layer's weights, as rows of its `N` outputs, and its bias.
type Layer<'a, const N: usize> = (&'a [[f32; N]], &'a [f32; N]);

/// `out = head(relu(l3(relu(l2(relu(z + b1))))))` row by row, for `z`
/// `[m, A]` and `out` `[m, D]`: a row's activations stay in registers
/// from one layer to the next. Each output is the sum a [`Tensor::matmul`]
/// row tile adds, then its bias, then its ReLU, as the layer-by-layer
/// path computes them, so the bits are that path's (its weights finite).
struct TowerTail<'a, const A: usize, const B: usize, const C: usize, const D: usize> {
    z: &'a [f32],
    b1: &'a [f32; A],
    l2: Layer<'a, B>,
    l3: Layer<'a, C>,
    head: Layer<'a, D>,
    out: &'a mut [f32],
}

impl<const A: usize, const B: usize, const C: usize, const D: usize> Kernel
    for TowerTail<'_, A, B, C, D>
{
    #[inline(always)]
    fn run(self) {
        let (z_rows, _) = self.z.as_chunks::<A>();
        let (out_rows, _) = self.out.as_chunks_mut::<D>();
        for (z, out) in z_rows.iter().zip(out_rows) {
            let h1 = relu(biased(*z, self.b1));
            let h2 = relu(biased(row_product(&h1, self.l2.0), self.l2.1));
            let h3 = relu(biased(row_product(&h2, self.l3.0), self.l3.1));
            *out = biased(row_product(&h3, self.head.0), self.head.1);
        }
    }
}

/// `v + b`, as [`Tensor::add_row_`] adds a bias.
#[inline(always)]
fn biased<const N: usize>(mut v: [f32; N], b: &[f32; N]) -> [f32; N] {
    for (v, b) in v.iter_mut().zip(b) {
        *v += b;
    }
    v
}

/// `v`'s ReLU, as [`Tensor::relu_`] computes it.
#[inline(always)]
fn relu<const N: usize>(mut v: [f32; N]) -> [f32; N] {
    v.iter_mut().for_each(|v| *v = v.max(0.0));
    v
}

/// Multi-width 1-D convolution bank over a token-embedding matrix
/// `[N, D]`, each width followed by global max pooling; outputs the
/// concatenated feature map `[1, widths·kernels]` (paper Eq. 1 without the
/// final ReLU projection).
#[derive(Debug, Clone)]
pub struct Conv1dBank {
    kernels: Vec<(ParamId, ParamId)>, // per width: (weights [K, w*D], bias [1, K])
    /// Embedding dimension the bank expects.
    pub dim: usize,
    /// Kernels per width.
    pub kernels_per_width: usize,
}

impl Conv1dBank {
    /// A bank with `kernels_per_width` filters for each window width.
    pub fn new(
        params: &mut Params,
        name: &str,
        dim: usize,
        widths: &[usize],
        kernels_per_width: usize,
        rng: &mut StdRng,
    ) -> Conv1dBank {
        let kernels = widths
            .iter()
            .map(|&w| {
                let k = params
                    .add(format!("{name}.conv{w}.w"), init::he(kernels_per_width, w * dim, rng));
                let b =
                    params.add(format!("{name}.conv{w}.b"), Tensor::zeros(1, kernels_per_width));
                (k, b)
            })
            .collect();
        Conv1dBank { kernels, dim, kernels_per_width }
    }

    /// Total output width.
    pub fn output_width(&self) -> usize {
        self.kernels.len() * self.kernels_per_width
    }

    /// `x [N, D] -> [1, widths·K]`: conv + ReLU + global max pool per
    /// width ([`Tape::conv_relu_max`]) plus bias, concatenated.
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        let mut pooled = Vec::with_capacity(self.kernels.len());
        for &(k, b) in &self.kernels {
            let mx = tape.conv_relu_max(params, x, k); // [1, K]
            let bv = tape.param(params, b);
            pooled.push(tape.add(mx, bv));
        }
        tape.concat_cols(&pooled)
    }
}

/// One graph-convolution layer `H' = ReLU(Â H W)` with
/// `Â = D^{-1/2}(A + I)D^{-1/2}` (paper Eq. in Section III-E).
#[derive(Debug, Clone)]
pub struct GcnLayer {
    /// Weight `[in, out]`.
    pub w: ParamId,
    /// Input feature width.
    pub input: usize,
    /// Output feature width.
    pub output: usize,
}

impl GcnLayer {
    /// New layer.
    pub fn new(
        params: &mut Params,
        name: &str,
        input: usize,
        output: usize,
        rng: &mut StdRng,
    ) -> GcnLayer {
        let w = params.add(format!("{name}.w"), init::xavier(input, output, rng));
        GcnLayer { w, input, output }
    }

    /// `a_hat [n,n]` (constant), `h [n,in]` -> `[n,out]`.
    pub fn forward(&self, tape: &mut Tape, params: &Params, a_hat: Var, h: Var) -> Var {
        let w = tape.param(params, self.w);
        let ah = tape.matmul(a_hat, h);
        let z = tape.matmul(ah, w);
        tape.relu(z)
    }
}

/// Compute the normalized adjacency `Â = D^{-1/2}(A + I)D^{-1/2}` for a
/// DAG given as (node count, directed edges). Edges are symmetrized, as is
/// standard for GCNs on program graphs.
pub fn normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> Tensor {
    let mut a = Tensor::zeros(n, n);
    for i in 0..n {
        a.set(i, i, 1.0);
    }
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge ({u},{v}) out of bounds for {n} nodes");
        a.set(u, v, 1.0);
        a.set(v, u, 1.0);
    }
    let mut deg = vec![0.0f32; n];
    for (i, d) in deg.iter_mut().enumerate() {
        *d = a.row(i).iter().sum::<f32>();
    }
    let mut out = Tensor::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if a.get(i, j) != 0.0 {
                out.set(i, j, a.get(i, j) / (deg[i] * deg[j]).sqrt());
            }
        }
    }
    out
}

/// LSTM encoder: runs a single-layer LSTM over `[N, D]` token embeddings
/// and returns the final hidden state `[1, H]`.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: ParamId, // [D, 4H]
    wh: ParamId, // [H, 4H]
    b: ParamId,  // [1, 4H]
    /// Hidden width.
    pub hidden: usize,
    /// Input width.
    pub input: usize,
    /// Maximum sequence length processed (longer inputs are truncated —
    /// quadratic tape growth makes full N=1000 sequences impractical, and
    /// the paper itself notes sequence models underperform here).
    pub max_steps: usize,
}

impl Lstm {
    /// New LSTM with forget-gate bias 1.
    pub fn new(
        params: &mut Params,
        name: &str,
        input: usize,
        hidden: usize,
        max_steps: usize,
        rng: &mut StdRng,
    ) -> Lstm {
        let wx = params.add(format!("{name}.wx"), init::xavier(input, 4 * hidden, rng));
        let wh = params.add(format!("{name}.wh"), init::xavier(hidden, 4 * hidden, rng));
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate
        }
        let b = params.add(format!("{name}.b"), bias);
        Lstm { wx, wh, b, hidden, input, max_steps }
    }

    /// Encode `[N, D] -> [1, H]` (final hidden state).
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        let n = tape.value(x).rows().min(self.max_steps);
        let hsz = self.hidden;
        let wx = tape.param(params, self.wx);
        let wh = tape.param(params, self.wh);
        let b = tape.param(params, self.b);
        let mut h = tape.leaf(Tensor::zeros(1, hsz));
        let mut c = tape.leaf(Tensor::zeros(1, hsz));
        for t in 0..n {
            let xt = tape.slice_row(x, t); // [1, D]
            let zx = tape.matmul(xt, wx);
            let zh = tape.matmul(h, wh);
            let z = tape.add(zx, zh);
            let z = tape.add(z, b); // [1, 4H]
                                    // Split gates i, f, g, o.
            let gates: Vec<Var> = (0..4)
                .map(|k| {
                    let cols: Vec<usize> = (k * hsz..(k + 1) * hsz).collect();
                    gather_cols(tape, z, &cols)
                })
                .collect();
            let i = tape.sigmoid(gates[0]);
            let f = tape.sigmoid(gates[1]);
            let g = tape.tanh(gates[2]);
            let o = tape.sigmoid(gates[3]);
            let fc = tape.hadamard(f, c);
            let ig = tape.hadamard(i, g);
            c = tape.add(fc, ig);
            let tc = tape.tanh(c);
            h = tape.hadamard(o, tc);
        }
        h
    }
}

/// A single pre-norm Transformer encoder block with multi-head
/// self-attention over `[N, D]`, followed by mean pooling to `[1, D]`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    ff1: Dense,
    ff2: Dense,
    ln1_g: ParamId,
    ln1_b: ParamId,
    ln2_g: ParamId,
    ln2_b: ParamId,
    /// Number of attention heads.
    pub heads: usize,
    /// Model width.
    pub dim: usize,
    /// Maximum sequence length (attention is quadratic; longer inputs are
    /// truncated).
    pub max_steps: usize,
}

impl TransformerBlock {
    /// New block; `dim` must be divisible by `heads`.
    pub fn new(
        params: &mut Params,
        name: &str,
        dim: usize,
        heads: usize,
        max_steps: usize,
        rng: &mut StdRng,
    ) -> TransformerBlock {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        let wq = params.add(format!("{name}.wq"), init::xavier(dim, dim, rng));
        let wk = params.add(format!("{name}.wk"), init::xavier(dim, dim, rng));
        let wv = params.add(format!("{name}.wv"), init::xavier(dim, dim, rng));
        let wo = params.add(format!("{name}.wo"), init::xavier(dim, dim, rng));
        let ff1 = Dense::new(params, &format!("{name}.ff1"), dim, dim * 2, rng);
        let ff2 = Dense::new(params, &format!("{name}.ff2"), dim * 2, dim, rng);
        let ln1_g = params.add(format!("{name}.ln1.g"), Tensor::full(1, dim, 1.0));
        let ln1_b = params.add(format!("{name}.ln1.b"), Tensor::zeros(1, dim));
        let ln2_g = params.add(format!("{name}.ln2.g"), Tensor::full(1, dim, 1.0));
        let ln2_b = params.add(format!("{name}.ln2.b"), Tensor::zeros(1, dim));
        TransformerBlock {
            wq,
            wk,
            wv,
            wo,
            ff1,
            ff2,
            ln1_g,
            ln1_b,
            ln2_g,
            ln2_b,
            heads,
            dim,
            max_steps,
        }
    }

    /// Encode `[N, D] -> [1, D]` (attention block + mean pool).
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        let n_full = tape.value(x).rows();
        let x = if n_full > self.max_steps {
            let idx: Vec<usize> = (0..self.max_steps).collect();
            tape.gather_rows(x, &idx)
        } else {
            x
        };

        // Pre-norm attention with residual.
        let g1 = tape.param(params, self.ln1_g);
        let b1 = tape.param(params, self.ln1_b);
        let xn = tape.layer_norm_row(x, g1, b1);
        let wq = tape.param(params, self.wq);
        let wk = tape.param(params, self.wk);
        let wv = tape.param(params, self.wv);
        let q = tape.matmul(xn, wq); // [N, D]
        let k = tape.matmul(xn, wk);
        let v = tape.matmul(xn, wv);

        let dh = self.dim / self.heads;
        let mut head_outs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let cols: Vec<usize> = (h * dh..(h + 1) * dh).collect();
            let qh = gather_cols(tape, q, &cols); // [N, dh]
            let kh = gather_cols(tape, k, &cols);
            let vh = gather_cols(tape, v, &cols);
            let kt = transpose_var(tape, kh); // [dh, N]
            let scores = tape.matmul(qh, kt); // [N, N]
            let scaled = tape.scale(scores, 1.0 / (dh as f32).sqrt());
            let attn = tape.row_softmax(scaled);
            head_outs.push(tape.matmul(attn, vh)); // [N, dh]
        }
        let concat = tape.concat_cols(&head_outs); // [N, D]
        let wo = tape.param(params, self.wo);
        let att = tape.matmul(concat, wo);
        let res1 = tape.add(x, att);

        // Pre-norm feed-forward with residual.
        let g2 = tape.param(params, self.ln2_g);
        let b2 = tape.param(params, self.ln2_b);
        let rn = tape.layer_norm_row(res1, g2, b2);
        let f1 = self.ff1.forward(tape, params, rn);
        let f1 = tape.relu(f1);
        let f2 = self.ff2.forward(tape, params, f1);
        let res2 = tape.add(res1, f2);

        // Mean pool rows -> [1, D] via constant averaging matmul.
        let n = tape.value(res2).rows();
        let avg = tape.leaf(Tensor::full(1, n, 1.0 / n as f32));
        tape.matmul(avg, res2)
    }
}

/// Differentiable column gather via a constant selector matrix.
fn gather_cols(tape: &mut Tape, v: Var, cols: &[usize]) -> Var {
    let n = tape.value(v).cols();
    let mut sel = Tensor::zeros(n, cols.len());
    for (j, &c) in cols.iter().enumerate() {
        sel.set(c, j, 1.0);
    }
    let s = tape.leaf(sel);
    tape.matmul(v, s)
}

/// Differentiable transpose built from column gathers, row slices and
/// vstack (no dedicated transpose op needed on the tape).
fn transpose_var(tape: &mut Tape, v: Var) -> Var {
    let (m, n) = tape.value(v).shape();
    let mut rows = Vec::with_capacity(n);
    for c in 0..n {
        let col = gather_cols(tape, v, &[c]); // [m,1]
        let parts: Vec<Var> = (0..m).map(|r| tape.slice_row(col, r)).collect();
        rows.push(tape.concat_cols(&parts)); // [1,m]
    }
    tape.vstack(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;
    use crate::optim::Adam;
    use crate::tape::Params;

    #[test]
    fn tower_mlp_halves_widths() {
        let mut params = Params::new();
        let mlp = TowerMlp::new(&mut params, "m", 64, 3, 1, &mut rng(1));
        assert_eq!(mlp.hidden_width(), 32 + 16 + 8);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(5, 64));
        let (out, hidden) = mlp.forward_with_hidden(&mut tape, &params, x);
        assert_eq!(tape.value(out).shape(), (5, 1));
        assert_eq!(tape.value(hidden).shape(), (5, 56));
    }

    /// A tower with biases drawn at random (they start at zero, where
    /// adding one before or after a ReLU looks the same).
    fn tower(params: &mut Params, input: usize, depth: usize) -> TowerMlp {
        let mlp = TowerMlp::new(params, "m", input, depth, 1, &mut rng(21));
        for (i, dense) in mlp.layers.iter().chain([&mlp.head]).enumerate() {
            *params.value_mut(dense.b) =
                init::normal(1, dense.output, 0.5, &mut rng(30 + i as u64));
        }
        mlp
    }

    /// `infer` against the tape, bit for bit (a NaN matches any NaN), on
    /// `x` `[37, input]` with exact zeros of both signs, which the product
    /// skips.
    fn assert_infer_equals_the_tape(params: &Params, mlp: &TowerMlp, input: usize, what: &str) {
        let mut x = init::normal(37, input, 1.0, &mut rng(22));
        for r in 0..x.rows() {
            x.set(r, 2, 0.0);
            x.set(r, 7, -0.0);
        }
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let out = mlp.forward(&mut tape, params, xv);
        let bits = |t: &Tensor| {
            t.data().iter().map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() }).collect()
        };
        let want: Vec<u32> = bits(tape.value(out));
        assert_eq!(bits(&mlp.infer(params, &x)), want, "{what}");
    }

    #[test]
    fn tower_mlp_infer_equals_the_tape_bit_for_bit() {
        // 66 → 33 → 16 → 8 → 1 is the NECS tower, whose tail runs fused.
        for (input, depth) in [(40, 0), (40, 3), (66, 3)] {
            let mut params = Params::new();
            let mlp = tower(&mut params, input, depth);
            assert_infer_equals_the_tape(
                &params,
                &mlp,
                input,
                &format!("{input} at depth {depth}"),
            );
        }
    }

    #[test]
    fn the_fused_tail_steps_aside_for_a_weight_that_is_not_finite() {
        for (layer, special) in [(1, f32::INFINITY), (2, f32::NAN), (3, f32::NEG_INFINITY)] {
            let mut params = Params::new();
            let mlp = tower(&mut params, 66, 3);
            let dense = [&mlp.layers[0], &mlp.layers[1], &mlp.layers[2], &mlp.head][layer];
            params.value_mut(dense.w).set(0, 0, special);
            let what = format!("{special} in layer {layer}");
            assert_infer_equals_the_tape(&params, &mlp, 66, &what);
            // A ReLU zero times it, skipped, keeps some output finite.
            let x = init::normal(37, 66, 1.0, &mut rng(22));
            assert!(mlp.infer(&params, &x).data().iter().any(|v| v.is_finite()), "{what}");
        }
    }

    #[test]
    fn first_products_of_two_bands_then_the_rest_match_infer_within_rounding() {
        const SPLIT: usize = 12;
        let x = init::normal(37, 40, 1.0, &mut rng(22));
        let band = |cols: std::ops::Range<usize>| {
            let data = (0..x.rows()).flat_map(|r| x.row(r)[cols.clone()].to_vec()).collect();
            Tensor::from_vec(x.rows(), cols.len(), data)
        };
        let (left, right) = (band(0..SPLIT), band(SPLIT..40));
        for depth in [0, 3] {
            let mut params = Params::new();
            let mlp = TowerMlp::new(&mut params, "m", 40, depth, 1, &mut rng(21));
            let z = mlp
                .first_product(&params, &left, 0)
                .add(&mlp.first_product(&params, &right, SPLIT));
            let split = mlp.infer_from_first(&params, z);
            let whole = mlp.infer(&params, &x);
            assert_eq!(split.shape(), whole.shape());
            // Relative, with outputs under 1 held to the same absolute slack.
            for (s, w) in split.data().iter().zip(whole.data()) {
                assert!((s - w).abs() <= 1e-5 * w.abs().max(1.0), "depth {depth}: {s} vs {w}");
            }
            if depth == 0 {
                // The head is the first layer: no ReLU clamps what it says.
                assert!(split.data().iter().any(|&v| v < 0.0), "{split:?}");
            }
        }
    }

    #[test]
    fn conv_bank_shapes_and_gradients_flow() {
        let mut params = Params::new();
        let bank = Conv1dBank::new(&mut params, "c", 4, &[2, 3], 5, &mut rng(2));
        assert_eq!(bank.output_width(), 10);
        let mut tape = Tape::new();
        let x = tape.leaf(init::normal(20, 4, 1.0, &mut rng(3)));
        let out = bank.forward(&mut tape, &params, x);
        assert_eq!(tape.value(out).shape(), (1, 10));
        let loss = tape.mse_loss(out, &Tensor::zeros(1, 10));
        tape.backward(loss, &mut params);
        // Conv weights received gradient.
        let any_grad =
            (0..params.len()).any(|i| params.grad(crate::tape::ParamId(i)).norm_sq() > 0.0);
        assert!(any_grad);
    }

    #[test]
    fn normalized_adjacency_is_symmetric_with_self_loops() {
        let a = normalized_adjacency(3, &[(0, 1), (1, 2)]);
        for i in 0..3 {
            assert!(a.get(i, i) > 0.0, "self loop missing at {i}");
            for j in 0..3 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-6);
            }
        }
        // Row sums of D^-1/2 (A+I) D^-1/2 are <= 1 + slack.
        for i in 0..3 {
            let s: f32 = a.row(i).iter().sum();
            assert!(s <= 1.5, "row {i} sum {s}");
        }
    }

    #[test]
    fn gcn_layer_runs_on_a_dag() {
        let mut params = Params::new();
        let l1 = GcnLayer::new(&mut params, "g1", 6, 8, &mut rng(4));
        let l2 = GcnLayer::new(&mut params, "g2", 8, 8, &mut rng(5));
        let a_hat = normalized_adjacency(4, &[(0, 1), (1, 2), (1, 3)]);
        let mut tape = Tape::new();
        let a = tape.leaf(a_hat);
        let h0 = tape.leaf(init::normal(4, 6, 1.0, &mut rng(6)));
        let h1 = l1.forward(&mut tape, &params, a, h0);
        let h2 = l2.forward(&mut tape, &params, a, h1);
        let pooled = tape.col_max(h2);
        assert_eq!(tape.value(pooled).shape(), (1, 8));
    }

    #[test]
    fn lstm_final_state_shape_and_gradients() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "l", 3, 4, 64, &mut rng(7));
        let mut tape = Tape::new();
        let x = tape.leaf(init::normal(10, 3, 1.0, &mut rng(8)));
        let h = lstm.forward(&mut tape, &params, x);
        assert_eq!(tape.value(h).shape(), (1, 4));
        let loss = tape.mse_loss(h, &Tensor::zeros(1, 4));
        tape.backward(loss, &mut params);
        assert!(params.grad(lstm.wx).norm_sq() > 0.0);
        assert!(params.grad(lstm.wh).norm_sq() > 0.0);
    }

    #[test]
    fn lstm_truncates_long_sequences() {
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, "l", 2, 3, 5, &mut rng(9));
        let mut tape = Tape::new();
        let x = tape.leaf(init::normal(50, 2, 1.0, &mut rng(10)));
        let h = lstm.forward(&mut tape, &params, x);
        assert_eq!(tape.value(h).shape(), (1, 3));
        // Tape stays small: ~20 nodes per step, 5 steps.
        assert!(tape.len() < 400, "tape grew to {}", tape.len());
    }

    #[test]
    fn transformer_block_pools_to_model_dim() {
        let mut params = Params::new();
        let block = TransformerBlock::new(&mut params, "t", 8, 2, 16, &mut rng(11));
        let mut tape = Tape::new();
        let x = tape.leaf(init::normal(12, 8, 1.0, &mut rng(12)));
        let out = block.forward(&mut tape, &params, x);
        assert_eq!(tape.value(out).shape(), (1, 8));
        let loss = tape.mse_loss(out, &Tensor::zeros(1, 8));
        tape.backward(loss, &mut params);
        assert!(params.grad(block.wq).norm_sq() > 0.0);
    }

    #[test]
    fn layers_can_fit_a_toy_function() {
        // End-to-end sanity: a small tower MLP learns y = x0 - 2*x1.
        let mut r = rng(13);
        let mut params = Params::new();
        let mlp = TowerMlp::new(&mut params, "m", 2, 2, 1, &mut r);
        let mut opt = Adam::new(0.01);
        let xs = init::normal(64, 2, 1.0, &mut r);
        let mut ys = Tensor::zeros(64, 1);
        for i in 0..64 {
            ys.set(i, 0, xs.get(i, 0) - 2.0 * xs.get(i, 1));
        }
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.leaf(xs.clone());
            let pred = mlp.forward(&mut tape, &params, x);
            let loss = tape.mse_loss(pred, &ys);
            last = tape.value(loss).get(0, 0);
            tape.backward(loss, &mut params);
            opt.step(&mut params);
        }
        assert!(last < 0.05, "MLP failed to fit toy function: {last}");
    }
}
