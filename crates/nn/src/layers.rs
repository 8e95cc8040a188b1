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
use crate::tensor::Tensor;
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
        let mut h: Option<Tensor> = None;
        for layer in &self.layers {
            let mut z = layer.infer(params, h.as_ref().unwrap_or(x));
            z.relu_();
            h = Some(z);
        }
        self.head.infer(params, h.as_ref().unwrap_or(x))
    }

    /// Width of the concatenated hidden embedding.
    pub fn hidden_width(&self) -> usize {
        self.layers.iter().map(|l| l.output).sum()
    }
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

    #[test]
    fn tower_mlp_infer_equals_the_tape_bit_for_bit() {
        for depth in [0, 3] {
            let mut params = Params::new();
            let mlp = TowerMlp::new(&mut params, "m", 40, depth, 1, &mut rng(21));
            let x = init::normal(37, 40, 1.0, &mut rng(22));
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let taped = mlp.forward(&mut tape, &params, xv);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&mlp.infer(&params, &x)), bits(tape.value(taped)), "depth {depth}");
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
