//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records operations eagerly (define-by-run); [`Tape::backward`]
//! walks the tape in reverse, accumulating gradients into a [`Params`]
//! store. Parameters live *outside* the tape so a fresh tape can be built
//! per minibatch while optimizers step on the persistent store.
//!
//! The op set is exactly what the paper's models need: dense algebra for
//! MLPs, a fused convolution → ReLU → global-max op for the CNN code
//! encoder, gather / stack ops so per-template encodings can be shared
//! across a minibatch, masked max-pooling for the GCN scheduler encoder,
//! softmax/layer-norm for the Transformer baseline, and a gradient-reversal
//! op for the adversarial Adaptive Model Update.

use crate::tensor::{Kernel, Kernels, Tensor};
use std::sync::Arc;

/// Handle to a parameter tensor in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// Persistent parameter store (values + gradient accumulators). A value
/// is shared, not copied, with every tape that records it
/// ([`Tape::param`]) and with a cloned store; [`Params::value_mut`]
/// copies it first where it is shared.
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: Vec<Arc<Tensor>>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl Params {
    /// An empty store.
    pub fn new() -> Params {
        Params::default()
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(Arc::new(value));
        self.names.push(name.into());
        id
    }

    /// Parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value (used by optimizers): copied first if a
    /// live tape or a cloned store shares it, so neither sees the change.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.values[id.0])
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient accumulator.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Drop every parameter registered after the first `len`, so a
    /// temporary head (AMU's discriminator) leaves the store as it found
    /// it. [`ParamId`]s at or past `len` dangle afterwards.
    pub fn truncate(&mut self, len: usize) {
        self.values.truncate(len);
        self.grads.truncate(len);
        self.names.truncate(len);
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.zero_();
        }
    }
}

/// Kernels [`Tape::conv_relu_max`] scores a window against at once.
const CONV_LANES: usize = 16;

/// Windows [`Tape::conv_relu_max`] scores in one pass over its kernels.
const CONV_WINDOWS: usize = 4;

/// Floats of one convolution window: the kernel's width clipped to an
/// input of `n` rows, times the embedding width `d`.
fn conv_window(kernel: &Tensor, n: usize, d: usize) -> usize {
    assert!(
        n >= 1 && d >= 1 && kernel.cols().is_multiple_of(d),
        "conv kernel does not fit [{n},{d}]"
    );
    (kernel.cols() / d).min(n) * d
}

/// [`Tape::conv_relu_max`]'s forward: `x`'s rows flat, the window's
/// floats `wd`, and the kernels transposed to `[wd, kp]`, zero-padded to
/// whole chunks; each kernel's best `relu` so far and its window.
struct ConvReluMax<'a> {
    x: &'a [f32],
    d: usize,
    wd: usize,
    kt: &'a [f32],
    kp: usize,
    best: &'a mut [f32],
    arg: &'a mut [usize],
}

impl Kernel for ConvReluMax<'_> {
    #[inline(always)]
    fn run(mut self) {
        let windows = self.x.len() / self.d - self.wd / self.d + 1;
        let whole = windows - windows % CONV_WINDOWS;
        for j in (0..whole).step_by(CONV_WINDOWS) {
            self.merge::<CONV_WINDOWS>(j);
        }
        for j in whole..windows {
            self.merge::<1>(j);
        }
    }
}

impl ConvReluMax<'_> {
    /// Score windows `j .. j + B` against every kernel and fold each
    /// `relu` into `best` / `arg` in ascending window order, so the first
    /// strict maximum wins. Each dot product adds its terms in column
    /// order from `+0.0`; the lanes of an accumulator are kernels, and
    /// each kernel load serves all `B` windows.
    #[inline(always)]
    fn merge<const B: usize>(&mut self, j: usize) {
        let windows: [&[f32]; B] =
            std::array::from_fn(|b| &self.x[(j + b) * self.d..(j + b) * self.d + self.wd]);
        for c in (0..self.kp).step_by(CONV_LANES) {
            let mut acc = [[0.0f32; CONV_LANES]; B];
            for (p, k_row) in self.kt.chunks_exact(self.kp).enumerate() {
                let k_row: &[f32; CONV_LANES] = k_row[c..c + CONV_LANES].try_into().unwrap();
                for (acc, window) in acc.iter_mut().zip(&windows) {
                    let xv = window[p];
                    for (a, &kv) in acc.iter_mut().zip(k_row) {
                        *a += kv * xv;
                    }
                }
            }
            for (b, acc) in acc.iter().enumerate() {
                for (l, &a) in acc.iter().enumerate() {
                    let v = a.max(0.0);
                    if v > self.best[c + l] {
                        (self.best[c + l], self.arg[c + l]) = (v, j + b);
                    }
                }
            }
        }
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    /// `[m,n] + [1,n]` broadcast over rows.
    AddRowBroadcast(Var, Var),
    Scale(Var, f32),
    Hadamard(Var, Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    RowSoftmax(Var),
    /// Max over each column: `[m,n] -> [1,n]` (argmax memo).
    ColMax(Var),
    ConcatCols(Vec<Var>),
    VStack(Vec<Var>),
    GatherRows(Var, Vec<usize>),
    /// Sliding-window convolution of `[n,d]` rows with a `[K, w*d]` kernel
    /// parameter, ReLU, max over the windows: `[1,K]` (argmax memo).
    ConvReluMax(Var, ParamId),
    /// Row gather from an embedding table parameter.
    EmbeddingGather(ParamId, Vec<usize>),
    SliceRow(Var, usize),
    /// Row-wise layer norm with gain/bias vars.
    LayerNormRow(Var, Var, Var),
    /// Identity forward, `-lambda` scaled backward (adversarial training).
    GradReverse(Var, f32),
    /// Mean of row-wise squared error against a constant target (scalar).
    MseLoss(Var, Tensor),
    /// Mean binary cross-entropy on logits against constant labels.
    BceLogitsLoss(Var, Tensor),
    /// Mean over all elements -> `[1,1]`.
    Mean(Var),
}

impl Op {
    /// Whether a parameter is upstream of this op's node: it reads one
    /// from the store itself, or one of its inputs has one upstream.
    fn needs_grad(&self, nodes: &[Node]) -> bool {
        let any = |vars: &[Var]| vars.iter().any(|v| nodes[v.0].needs_grad);
        match self {
            Op::Leaf => false,
            Op::Param(_) | Op::ConvReluMax(..) | Op::EmbeddingGather(..) => true,
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddRowBroadcast(a, b) | Op::Hadamard(a, b) => {
                any(&[*a, *b])
            }
            Op::LayerNormRow(a, gain, bias) => any(&[*a, *gain, *bias]),
            Op::ConcatCols(vars) | Op::VStack(vars) => any(vars),
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::RowSoftmax(a)
            | Op::ColMax(a)
            | Op::GatherRows(a, _)
            | Op::SliceRow(a, _)
            | Op::GradReverse(a, _)
            | Op::MseLoss(a, _)
            | Op::BceLogitsLoss(a, _)
            | Op::Mean(a) => any(&[*a]),
        }
    }
}

/// A node's value: its op's result, or a parameter's value, shared with
/// the store.
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl std::ops::Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

struct Node {
    value: Value,
    op: Op,
    /// Whether a parameter is upstream ([`Op::needs_grad`]): backward
    /// computes a gradient for this node only if so.
    needs_grad: bool,
    /// Integer memo (argmax indices for max ops).
    memo_idx: Vec<usize>,
    /// Tensor memos (layer norm normalized input / inv-std).
    memo_t: Vec<Tensor>,
}

/// An autodiff tape. Build one per forward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.push_full(value, op, Vec::new(), Vec::new())
    }

    fn push_full(
        &mut self,
        value: Tensor,
        op: Op,
        memo_idx: Vec<usize>,
        memo_t: Vec<Tensor>,
    ) -> Var {
        self.push_value(Value::Owned(value), op, memo_idx, memo_t)
    }

    fn push_value(
        &mut self,
        value: Value,
        op: Op,
        memo_idx: Vec<usize>,
        memo_t: Vec<Tensor>,
    ) -> Var {
        let needs_grad = op.needs_grad(&self.nodes);
        self.nodes.push(Node { value, op, needs_grad, memo_idx, memo_t });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Record a constant (no gradient).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Record a parameter (gradient flows into the store on backward).
    /// The tape shares the store's value: drop the tape before an
    /// optimizer steps, or the step copies the value first.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        let value = Value::Shared(params.values[id.0].clone());
        self.push_value(value, Op::Param(id), Vec::new(), Vec::new())
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise sum (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// `[m,n] + [1,n]`, broadcasting the bias row.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let mut out = self.value(a).clone();
        out.add_row_(self.value(bias));
        self.push(out, Op::AddRowBroadcast(a, bias))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.value(a).scaled(alpha);
        self.push(v, Op::Scale(a, alpha))
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Hadamard(a, b))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        v.relu_();
        self.push(v, Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Row-wise softmax.
    pub fn row_softmax(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut out = Tensor::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in out.row_mut(r).iter_mut().zip(row.iter()) {
                *o = (v - mx).exp();
                sum += *o;
            }
            for o in out.row_mut(r) {
                *o /= sum;
            }
        }
        self.push(out, Op::RowSoftmax(a))
    }

    /// Max over each column: `[m,n] -> [1,n]`.
    pub fn col_max(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let (m, n) = x.shape();
        let mut out = Tensor::full(1, n, f32::NEG_INFINITY);
        let mut arg = vec![0usize; n];
        for r in 0..m {
            for (c, &v) in x.row(r).iter().enumerate() {
                if v > out.get(0, c) {
                    out.set(0, c, v);
                    arg[c] = r;
                }
            }
        }
        self.push_full(out, Op::ColMax(a), arg, Vec::new())
    }

    /// Concatenate along columns (all inputs share the row count).
    pub fn concat_cols(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty());
        let m = self.value(vars[0]).rows();
        let total: usize = vars.iter().map(|v| self.value(*v).cols()).sum();
        let mut out = Tensor::zeros(m, total);
        for r in 0..m {
            let mut off = 0;
            for v in vars {
                let t = self.value(*v);
                assert_eq!(t.rows(), m, "concat_cols row mismatch");
                out.row_mut(r)[off..off + t.cols()].copy_from_slice(t.row(r));
                off += t.cols();
            }
        }
        self.push(out, Op::ConcatCols(vars.to_vec()))
    }

    /// Stack `[1,F]` rows into `[B,F]`.
    pub fn vstack(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty());
        let f = self.value(vars[0]).cols();
        let mut out = Tensor::zeros(vars.len(), f);
        for (r, v) in vars.iter().enumerate() {
            let t = self.value(*v);
            assert_eq!(t.shape(), (1, f), "vstack expects [1,{f}] rows");
            out.row_mut(r).copy_from_slice(t.row(0));
        }
        self.push(out, Op::VStack(vars.to_vec()))
    }

    /// Gather rows of `[T,F]` by index into `[B,F]` (indices may repeat —
    /// this is how per-template encodings are shared across a batch).
    pub fn gather_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        let t = self.value(a);
        let mut out = Tensor::zeros(idx.len(), t.cols());
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < t.rows(), "gather index {i} out of {} rows", t.rows());
            out.row_mut(r).copy_from_slice(t.row(i));
        }
        self.push(out, Op::GatherRows(a, idx.to_vec()))
    }

    /// Token convolution, ReLU and global max pooling as one op (paper
    /// Eq. 1): `x [N,D]`, kernel parameter `[K, w·D]` -> `[1,K]`, entry `k`
    /// the largest `relu(kernel_k · window_j)` over the `N-w+1` windows of
    /// `w` consecutive rows. Row-major `x` holds window `j` as the slice
    /// `x[j·D .. (j+w)·D]`, so nothing is unfolded, and only each kernel's
    /// maximum and first arg-max are kept — all that backward needs. An
    /// input shorter than the window uses the kernel's leading `N·D`
    /// columns. Every dot product adds its terms in column order from
    /// `+0.0`, as `Tensor::matmul` over the unfolded windows would. Windows
    /// are scored 4 at a time against chunks of 16 kernels (8 accumulators
    /// of 8 lanes under AVX), in the compilation [`Kernels::detected`]
    /// picks, and merged in ascending window order.
    pub fn conv_relu_max(&mut self, params: &Params, x: Var, kernel: ParamId) -> Var {
        self.conv_relu_max_on(Kernels::detected(), params, x, kernel)
    }

    fn conv_relu_max_on(
        &mut self,
        kernels: Kernels,
        params: &Params,
        x: Var,
        kernel: ParamId,
    ) -> Var {
        let (xt, kern) = (self.value(x), params.value(kernel));
        let (n, d) = xt.shape();
        let wd = conv_window(kern, n, d);
        let k = kern.rows();
        // Transposed copy, zero-padded to whole chunks: row `p` holds
        // column `p` of every kernel, so one chunk's accumulators are a
        // fixed-size array the compiler keeps in registers.
        let kp = k.next_multiple_of(CONV_LANES);
        let mut kt = vec![0.0f32; wd * kp];
        for r in 0..k {
            for (p, &v) in kern.row(r)[..wd].iter().enumerate() {
                kt[p * kp + r] = v;
            }
        }
        let mut best = vec![f32::NEG_INFINITY; kp];
        let mut arg = vec![0usize; kp];
        kernels.run(ConvReluMax {
            x: xt.data(),
            d,
            wd,
            kt: &kt,
            kp,
            best: &mut best,
            arg: &mut arg,
        });
        best.truncate(k);
        arg.truncate(k);
        self.push_full(Tensor::row_vector(best), Op::ConvReluMax(x, kernel), arg, Vec::new())
    }

    /// Gather token embeddings: table `[V,D]` (parameter), ids -> `[N,D]`.
    pub fn embedding_gather(&mut self, params: &Params, table: ParamId, ids: &[usize]) -> Var {
        let t = params.value(table);
        let mut out = Tensor::zeros(ids.len(), t.cols());
        for (r, &i) in ids.iter().enumerate() {
            assert!(i < t.rows(), "token id {i} out of vocab {}", t.rows());
            out.row_mut(r).copy_from_slice(t.row(i));
        }
        self.push(out, Op::EmbeddingGather(table, ids.to_vec()))
    }

    /// Extract one row as `[1,n]`.
    pub fn slice_row(&mut self, a: Var, r: usize) -> Var {
        let x = self.value(a);
        let out = Tensor::row_vector(x.row(r).to_vec());
        self.push(out, Op::SliceRow(a, r))
    }

    /// Row-wise layer normalization with learnable gain/bias (`[1,n]`).
    pub fn layer_norm_row(&mut self, a: Var, gain: Var, bias: Var) -> Var {
        const EPS: f32 = 1e-5;
        let x = self.value(a);
        let (m, n) = x.shape();
        assert_eq!(self.value(gain).shape(), (1, n));
        assert_eq!(self.value(bias).shape(), (1, n));
        let mut xhat = Tensor::zeros(m, n);
        let mut inv_std = Tensor::zeros(m, 1);
        let mut out = Tensor::zeros(m, n);
        let g = self.value(gain).row(0).to_vec();
        let b = self.value(bias).row(0).to_vec();
        for r in 0..m {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let is = 1.0 / (var + EPS).sqrt();
            inv_std.set(r, 0, is);
            for c in 0..n {
                let xh = (row[c] - mean) * is;
                xhat.set(r, c, xh);
                out.set(r, c, g[c] * xh + b[c]);
            }
        }
        self.push_full(out, Op::LayerNormRow(a, gain, bias), Vec::new(), vec![xhat, inv_std])
    }

    /// Identity forward; backward multiplies the gradient by `-lambda`.
    /// This is the gradient-reversal layer of adversarial domain
    /// adaptation (paper's Adaptive Model Update).
    pub fn grad_reverse(&mut self, a: Var, lambda: f32) -> Var {
        let v = self.value(a).clone();
        self.push(v, Op::GradReverse(a, lambda))
    }

    /// Mean squared error against a constant target (scalar `[1,1]`).
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let p = self.value(pred);
        assert_eq!(p.shape(), target.shape(), "mse target shape");
        let n = p.len() as f32;
        let mut acc = 0.0;
        for (a, b) in p.data().iter().zip(target.data().iter()) {
            let d = a - b;
            acc += d * d;
        }
        self.push(Tensor::from_vec(1, 1, vec![acc / n]), Op::MseLoss(pred, target.clone()))
    }

    /// Mean binary cross-entropy on logits vs constant 0/1 labels
    /// (numerically stable log-sum-exp form).
    pub fn bce_logits_loss(&mut self, logits: Var, labels: &Tensor) -> Var {
        let z = self.value(logits);
        assert_eq!(z.shape(), labels.shape(), "bce labels shape");
        let n = z.len() as f32;
        let mut acc = 0.0;
        for (&x, &y) in z.data().iter().zip(labels.data().iter()) {
            // max(x,0) - x*y + ln(1 + e^{-|x|})
            acc += x.max(0.0) - x * y + (1.0 + (-x.abs()).exp()).ln();
        }
        self.push(Tensor::from_vec(1, 1, vec![acc / n]), Op::BceLogitsLoss(logits, labels.clone()))
    }

    /// Mean over all elements.
    pub fn mean(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let m = x.sum() / x.len() as f32;
        self.push(Tensor::from_vec(1, 1, vec![m]), Op::Mean(a))
    }

    /// Run reverse-mode accumulation from `loss` (must be `[1,1]`),
    /// adding parameter gradients into `params`.
    ///
    /// Only work whose result reaches a parameter is done: a node with no
    /// parameter upstream (a leaf, or an op on leaves only) is skipped,
    /// and an op computes an input's gradient only for an input that has
    /// one. Every gradient that is computed receives the same terms in
    /// the same order as if all were: a node with a parameter upstream
    /// feeds only nodes that have one too, so none of its gradient's terms
    /// is among those skipped.
    pub fn backward(&mut self, loss: Var, params: &mut Params) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::full(1, 1, 1.0));

        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(mut g) = grads[idx].take() else { continue };
            // Split borrows: the node being processed vs earlier nodes.
            let (before, rest) = self.nodes.split_at_mut(idx);
            let node = &rest[0];
            let val = |v: Var| -> &Tensor {
                assert!(v.0 < idx, "op parent must precede node");
                &before[v.0].value
            };
            let wants = |v: Var| before[v.0].needs_grad;
            let accum =
                |grads: &mut Vec<Option<Tensor>>, v: Var, delta: Tensor| match &mut grads[v.0] {
                    Some(t) => t.axpy(1.0, &delta),
                    slot => *slot = Some(delta),
                };
            match &node.op {
                Op::Leaf => {}
                Op::Param(id) => params.grad_mut(*id).axpy(1.0, &g),
                Op::MatMul(a, b) => {
                    if wants(*a) {
                        accum(&mut grads, *a, counted(g.matmul_transpose_b(val(*b))));
                    }
                    if wants(*b) {
                        accum(&mut grads, *b, counted(val(*a).transpose_a_matmul(&g)));
                    }
                }
                Op::Add(a, b) => match (wants(*a), wants(*b)) {
                    (true, true) => {
                        accum(&mut grads, *a, g.clone());
                        accum(&mut grads, *b, g);
                    }
                    (true, false) => accum(&mut grads, *a, g),
                    (false, _) => accum(&mut grads, *b, g),
                },
                Op::AddRowBroadcast(a, bias) => {
                    let db = wants(*bias).then(|| {
                        let mut db = Tensor::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for (d, &v) in db.data_mut().iter_mut().zip(g.row(r)) {
                                *d += v;
                            }
                        }
                        db
                    });
                    if wants(*a) {
                        accum(&mut grads, *a, g);
                    }
                    if let Some(db) = db {
                        accum(&mut grads, *bias, db);
                    }
                }
                Op::Scale(a, alpha) => accum(&mut grads, *a, g.scaled(*alpha)),
                Op::Hadamard(a, b) => {
                    if wants(*a) {
                        accum(&mut grads, *a, g.hadamard(val(*b)));
                    }
                    if wants(*b) {
                        accum(&mut grads, *b, g.hadamard(val(*a)));
                    }
                }
                Op::Relu(a) => {
                    // `g ⊙ mask` in place, the mask's 1 or 0 per element.
                    for (gv, &x) in g.data_mut().iter_mut().zip(val(*a).data()) {
                        *gv *= if x > 0.0 { 1.0 } else { 0.0 };
                    }
                    accum(&mut grads, *a, g);
                }
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    let dy = y.map(|s| s * (1.0 - s));
                    accum(&mut grads, *a, g.hadamard(&dy));
                }
                Op::Tanh(a) => {
                    let y = &node.value;
                    let dy = y.map(|t| 1.0 - t * t);
                    accum(&mut grads, *a, g.hadamard(&dy));
                }
                Op::RowSoftmax(a) => {
                    let y = &node.value;
                    let mut dx = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 =
                            y.row(r).iter().zip(g.row(r).iter()).map(|(s, gg)| s * gg).sum();
                        for c in 0..y.cols() {
                            dx.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    accum(&mut grads, *a, dx);
                }
                Op::ColMax(a) => {
                    let x = val(*a);
                    let mut dx = Tensor::zeros(x.rows(), x.cols());
                    for c in 0..x.cols() {
                        dx.set(node.memo_idx[c], c, g.get(0, c));
                    }
                    accum(&mut grads, *a, dx);
                }
                Op::ConcatCols(vars) => {
                    let mut off = 0;
                    for &v in vars {
                        let w = val(v).cols();
                        if wants(v) {
                            let mut dv = Tensor::zeros(g.rows(), w);
                            for r in 0..g.rows() {
                                dv.row_mut(r).copy_from_slice(&g.row(r)[off..off + w]);
                            }
                            accum(&mut grads, v, dv);
                        }
                        off += w;
                    }
                }
                Op::VStack(vars) => {
                    for (r, &v) in vars.iter().enumerate().filter(|&(_, &v)| wants(v)) {
                        accum(&mut grads, v, Tensor::row_vector(g.row(r).to_vec()));
                    }
                }
                Op::GatherRows(a, idx_list) => {
                    let x = val(*a);
                    let mut dx = Tensor::zeros(x.rows(), x.cols());
                    for (r, &i) in idx_list.iter().enumerate() {
                        for (c, &v) in g.row(r).iter().enumerate() {
                            dx.set(i, c, dx.get(i, c) + v);
                        }
                    }
                    accum(&mut grads, *a, dx);
                }
                Op::ConvReluMax(x, kernel) => {
                    // Max pooling passes gradient to one window per kernel
                    // and ReLU only where that maximum is positive: the
                    // dense `[K,P]` gradient is zero everywhere else, and
                    // adding its `±0` products changes no bit of a sum
                    // started at `+0.0`. What is left is added in the
                    // dense order: `dK` rows as one sum from `+0.0` each,
                    // `dx` columns ascending, kernels ascending within a
                    // column.
                    let xt = val(*x);
                    let (n, d) = xt.shape();
                    let (kern, dkern) = (&params.values[kernel.0], &mut params.grads[kernel.0]);
                    let wd = conv_window(kern, n, d);
                    let arg = &node.memo_idx;
                    let mut live: Vec<usize> =
                        (0..kern.rows()).filter(|&k| node.value.get(0, k) > 0.0).collect();
                    for &k in &live {
                        let window = &xt.data()[arg[k] * d..arg[k] * d + wd];
                        for (o, &xv) in dkern.row_mut(k)[..wd].iter_mut().zip(window) {
                            *o += 0.0 + g.get(0, k) * xv;
                        }
                    }
                    if !wants(*x) {
                        continue;
                    }
                    live.sort_by_key(|&k| arg[k]);
                    let mut dx = Tensor::zeros(n, d);
                    let mut col = vec![0.0f32; wd];
                    for same in live.chunk_by(|&a, &b| arg[a] == arg[b]) {
                        col.fill(0.0);
                        for &k in same {
                            let (gk, k_row) = (g.get(0, k), &kern.row(k)[..wd]);
                            if gk.is_finite() {
                                // A zero weight's term is `±0`, which leaves
                                // a sum started at `+0.0` as it is: adding it
                                // is skipping it, with no branch.
                                for (c, &a) in col.iter_mut().zip(k_row) {
                                    *c += a * gk;
                                }
                            } else {
                                for (c, &a) in col.iter_mut().zip(k_row) {
                                    if a != 0.0 {
                                        *c += a * gk;
                                    }
                                }
                            }
                        }
                        let at = arg[same[0]] * d;
                        for (o, &c) in dx.data_mut()[at..at + wd].iter_mut().zip(&col) {
                            *o += c;
                        }
                    }
                    accum(&mut grads, *x, dx);
                }
                Op::EmbeddingGather(table, ids) => {
                    let gt = params.grad_mut(*table);
                    for (r, &i) in ids.iter().enumerate() {
                        for (o, &v) in gt.row_mut(i).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                }
                Op::SliceRow(a, r) => {
                    let x = val(*a);
                    let mut dx = Tensor::zeros(x.rows(), x.cols());
                    dx.row_mut(*r).copy_from_slice(g.row(0));
                    accum(&mut grads, *a, dx);
                }
                Op::LayerNormRow(a, gain, bias) => {
                    let xhat = &node.memo_t[0];
                    let inv_std = &node.memo_t[1];
                    let (m, n) = xhat.shape();
                    let gvec = val(*gain).row(0).to_vec();
                    let mut dgain = Tensor::zeros(1, n);
                    let mut dbias = Tensor::zeros(1, n);
                    let mut dx = Tensor::zeros(m, n);
                    for r in 0..m {
                        let gy: Vec<f32> = (0..n).map(|c| g.get(r, c) * gvec[c]).collect();
                        let mean_gy = gy.iter().sum::<f32>() / n as f32;
                        let mean_gy_xhat =
                            (0..n).map(|c| gy[c] * xhat.get(r, c)).sum::<f32>() / n as f32;
                        for (c, &gyc) in gy.iter().enumerate() {
                            dgain.set(0, c, dgain.get(0, c) + g.get(r, c) * xhat.get(r, c));
                            dbias.set(0, c, dbias.get(0, c) + g.get(r, c));
                            let v =
                                (gyc - mean_gy - xhat.get(r, c) * mean_gy_xhat) * inv_std.get(r, 0);
                            dx.set(r, c, v);
                        }
                    }
                    for (v, delta) in [(*a, dx), (*gain, dgain), (*bias, dbias)] {
                        if wants(v) {
                            accum(&mut grads, v, delta);
                        }
                    }
                }
                Op::GradReverse(a, lambda) => accum(&mut grads, *a, g.scaled(-lambda)),
                Op::MseLoss(pred, target) => {
                    let p = val(*pred);
                    let scale = 2.0 * g.get(0, 0) / p.len() as f32;
                    let mut dp = Tensor::zeros(p.rows(), p.cols());
                    for (o, (&a, &b)) in
                        dp.data_mut().iter_mut().zip(p.data().iter().zip(target.data().iter()))
                    {
                        *o = scale * (a - b);
                    }
                    accum(&mut grads, *pred, dp);
                }
                Op::BceLogitsLoss(logits, labels) => {
                    let z = val(*logits);
                    let scale = g.get(0, 0) / z.len() as f32;
                    let mut dz = Tensor::zeros(z.rows(), z.cols());
                    for (o, (&x, &y)) in
                        dz.data_mut().iter_mut().zip(z.data().iter().zip(labels.data().iter()))
                    {
                        let s = 1.0 / (1.0 + (-x).exp());
                        *o = scale * (s - y);
                    }
                    accum(&mut grads, *logits, dz);
                }
                Op::Mean(a) => {
                    let x = val(*a);
                    let v = g.get(0, 0) / x.len() as f32;
                    accum(&mut grads, *a, Tensor::full(x.rows(), x.cols(), v));
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Products [`Tape::backward`] has run on this thread.
    static BACKWARD_PRODUCTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `product`, counted among [`BACKWARD_PRODUCTS`] in tests.
#[inline(always)]
fn counted(product: Tensor) -> Tensor {
    #[cfg(test)]
    BACKWARD_PRODUCTS.with(|n| n.set(n.get() + 1));
    product
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{GcnLayer, TowerMlp};
    use proptest::prelude::*;

    /// Finite-difference check of `d loss / d param` for every scalar in
    /// every parameter.
    fn grad_check(build: impl Fn(&mut Tape, &Params) -> Var, params: &mut Params, tol: f32) {
        // Analytic gradients.
        params.zero_grads();
        let mut tape = Tape::new();
        let loss = build(&mut tape, params);
        tape.backward(loss, params);
        let analytic: Vec<Tensor> =
            (0..params.len()).map(|i| params.grad(ParamId(i)).clone()).collect();

        let eps = 1e-3f32;
        for (pi, grads) in analytic.iter().enumerate() {
            for e in 0..params.value(ParamId(pi)).len() {
                let orig = params.value(ParamId(pi)).data()[e];
                params.value_mut(ParamId(pi)).data_mut()[e] = orig + eps;
                let mut t1 = Tape::new();
                let l1 = build(&mut t1, params);
                let f1 = t1.value(l1).get(0, 0);
                params.value_mut(ParamId(pi)).data_mut()[e] = orig - eps;
                let mut t2 = Tape::new();
                let l2 = build(&mut t2, params);
                let f2 = t2.value(l2).get(0, 0);
                params.value_mut(ParamId(pi)).data_mut()[e] = orig;
                let numeric = (f1 - f2) / (2.0 * eps);
                let got = grads.data()[e];
                assert!(
                    (numeric - got).abs() <= tol * (1.0 + numeric.abs().max(got.abs())),
                    "param {pi} elem {e}: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn grad_check_dense_relu_mse() {
        let mut params = Params::new();
        let w = params.add("w", t(3, 2, &[0.4, -0.3, 0.2, 0.7, -0.5, 0.1]));
        let b = params.add("b", t(1, 2, &[0.05, -0.02]));
        let x = t(2, 3, &[1.0, -0.5, 2.0, 0.3, 0.8, -1.2]);
        let target = t(2, 2, &[0.5, -0.5, 1.0, 0.0]);
        grad_check(
            |tape, p| {
                let xv = tape.leaf(x.clone());
                let wv = tape.param(p, w);
                let bv = tape.param(p, b);
                let h = tape.matmul(xv, wv);
                let h = tape.add_row_broadcast(h, bv);
                let h = tape.relu(h);
                tape.mse_loss(h, &target)
            },
            &mut params,
            2e-2,
        );
    }

    #[test]
    fn grad_check_sigmoid_tanh_hadamard() {
        let mut params = Params::new();
        let a = params.add("a", t(2, 2, &[0.3, -0.6, 0.9, 0.1]));
        let b = params.add("b", t(2, 2, &[-0.2, 0.5, 0.4, -0.8]));
        let target = t(2, 2, &[0.0, 0.3, 0.6, -0.1]);
        grad_check(
            |tape, p| {
                let av = tape.param(p, a);
                let bv = tape.param(p, b);
                let s = tape.sigmoid(av);
                let u = tape.tanh(bv);
                let h = tape.hadamard(s, u);
                tape.mse_loss(h, &target)
            },
            &mut params,
            2e-2,
        );
    }

    #[test]
    fn grad_check_softmax_and_mean() {
        let mut params = Params::new();
        let a = params.add("a", t(2, 3, &[0.3, -0.6, 0.9, 1.1, 0.2, -0.4]));
        let target = t(2, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        grad_check(
            |tape, p| {
                let av = tape.param(p, a);
                let s = tape.row_softmax(av);
                tape.mse_loss(s, &target)
            },
            &mut params,
            2e-2,
        );
    }

    #[test]
    fn grad_check_col_max() {
        let mut params = Params::new();
        // Values well separated so FD perturbation doesn't flip the argmax.
        let a = params.add("a", t(3, 2, &[1.0, -2.0, 4.0, 0.5, -1.0, 3.0]));
        let target_col = t(1, 2, &[0.0, 0.0]);
        grad_check(
            |tape, p| {
                let av = tape.param(p, a);
                let m = tape.col_max(av);
                tape.mse_loss(m, &target_col)
            },
            &mut params,
            2e-2,
        );
    }

    #[test]
    fn grad_check_conv_relu_max() {
        let mut params = Params::new();
        let emb = params.add("emb", t(4, 2, &[0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8]));
        let kern = params.add("k", t(2, 4, &[0.3, -0.1, 0.2, 0.4, -0.2, 0.5, 0.1, -0.3]));
        let target = t(1, 2, &[0.2, -0.2]);
        // Five tokens under a window of two; then one token, shorter than
        // the window: the kernel's leading columns score it and train.
        for ids in [vec![0usize, 2, 1, 3, 2], vec![3]] {
            grad_check(
                |tape, p| {
                    let e = tape.embedding_gather(p, emb, &ids); // [N,2]
                    let pooled = tape.conv_relu_max(p, e, kern); // [1,2]
                    tape.mse_loss(pooled, &target)
                },
                &mut params,
                2e-2,
            );
            let dk = params.grad(kern);
            assert!(dk.row(0)[..2].iter().all(|&v| v != 0.0), "{ids:?}: {dk:?}");
            assert_eq!(ids.len() == 1, dk.row(0)[2..] == [0.0, 0.0], "{ids:?}: {dk:?}");
        }
    }

    /// The convolution as the tape used to record it, op by op: unfold,
    /// `matmul`, ReLU, first strict maximum per row, and the dense
    /// backward of each, under an MSE loss against `target`. Returns
    /// `(y, arg-max, dK, dx)`.
    fn dense_conv(
        x: &Tensor,
        kern: &Tensor,
        target: &[f32],
    ) -> (Tensor, Vec<usize>, Tensor, Tensor) {
        let (n, d) = x.shape();
        let (k, wd) = (kern.rows(), (kern.cols() / d).min(n) * d);
        let p = n - wd / d + 1;
        let mut cols = Tensor::zeros(wd, p);
        let mut clipped = Tensor::zeros(k, wd);
        for q in 0..wd {
            (0..p).for_each(|j| cols.set(q, j, x.data()[j * d + q]));
            (0..k).for_each(|r| clipped.set(r, q, kern.get(r, q)));
        }
        let fm = clipped.matmul(&cols);
        let (mut y, mut arg, mut dfm) = (Tensor::zeros(1, k), vec![0; k], Tensor::zeros(k, p));
        for r in 0..k {
            let mut best = f32::NEG_INFINITY;
            for (c, &v) in fm.row(r).iter().enumerate() {
                if v.max(0.0) > best {
                    (best, arg[r]) = (v.max(0.0), c);
                }
            }
            y.set(0, r, best);
            let g = 0.0 + (2.0 * 1.0 / k as f32) * (best - target[r]) * 1.0;
            dfm.set(r, arg[r], g * if fm.get(r, arg[r]) > 0.0 { 1.0 } else { 0.0 });
        }
        let (mut dk, mut dx) = (Tensor::zeros(k, kern.cols()), Tensor::zeros(n, d));
        for r in 0..k {
            for q in 0..wd {
                let dot = (0..p).fold(0.0f32, |acc, j| acc + dfm.get(r, j) * cols.get(q, j));
                dk.set(r, q, 0.0 + 1.0 * dot);
            }
        }
        let dcols = clipped.transpose_a_matmul(&dfm);
        for j in 0..p {
            (0..wd).for_each(|q| dx.data_mut()[j * d + q] += dcols.get(q, j));
        }
        (y, arg, dk, dx)
    }

    /// `(N, D, w, K)`: inputs of 1–300 rows, shorter than the window
    /// (`N < w`), exactly the window (`N = w`) or longer; 1–40 kernels, so
    /// mostly not a multiple of 8 or 16.
    fn conv_shapes() -> impl Strategy<Value = (usize, usize, usize, usize)> {
        (1usize..=6, 1usize..=16, 1usize..=40, 0u8..4, 1usize..=300).prop_map(
            |(w, d, k, mode, raw)| {
                let n = match mode {
                    0 => w,
                    1 => 1 + raw % w,
                    _ => raw,
                };
                (n, d, w, k)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The fused op in each compilation against the dense chain it
        /// replaced: value, arg-max, `dK` and `dx`, bit for bit. Rows repeat
        /// with a period of 1–4 (so windows tie exactly) or not at all;
        /// values are a quarter exact zeros of either sign, and a fifth of
        /// the kernels are all zeros (every pre-activation is `+0.0`).
        #[test]
        fn conv_relu_max_equals_the_dense_ops_bit_for_bit(
            (n, d, w, k) in conv_shapes(),
            period in 0usize..=4,
            seed in any::<u64>(),
        ) {
            let rows = crate::tensor::tests::values(n * d, seed, false);
            let at = |i: usize| if period == 0 { rows[i] } else { rows[i % (period * d)] };
            let x = Tensor::from_vec(n, d, (0..n * d).map(at).collect());
            let mut kern = Tensor::from_vec(k, w * d, crate::tensor::tests::values(k * w * d, !seed, false));
            for r in (0..k).filter(|r| (seed >> (r % 64)).is_multiple_of(5)) {
                kern.row_mut(r).fill(0.0);
            }
            let target = crate::tensor::tests::values(k, seed ^ 0x5eed, false);
            let (want_y, want_arg, want_dk, want_dx) = dense_conv(&x, &kern, &target);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for kernels in Kernels::on_this_host() {
                let what = format!("{}: N {n}, D {d}, w {w}, K {k}, period {period}", kernels.name());
                let mut params = Params::new();
                let (xp, kp) = (params.add("x", x.clone()), params.add("k", kern.clone()));
                let mut tape = Tape::new();
                let xv = tape.param(&params, xp);
                let y = tape.conv_relu_max_on(kernels, &params, xv, kp);
                let loss = tape.mse_loss(y, &Tensor::row_vector(target.clone()));
                tape.backward(loss, &mut params);
                prop_assert_eq!(bits(tape.value(y)), bits(&want_y), "value, {}", what);
                prop_assert_eq!(&tape.nodes[y.0].memo_idx, &want_arg, "arg-max, {}", what);
                prop_assert_eq!(bits(params.grad(kp)), bits(&want_dk), "dK, {}", what);
                prop_assert_eq!(bits(params.grad(xp)), bits(&want_dx), "dx, {}", what);
            }
        }
    }

    #[test]
    fn grad_check_gather_vstack_concat() {
        let mut params = Params::new();
        let a = params.add("a", t(1, 2, &[0.3, -0.5]));
        let b = params.add("b", t(1, 2, &[0.8, 0.1]));
        let target = t(3, 4, &[0.0; 12]);
        grad_check(
            |tape, p| {
                let av = tape.param(p, a);
                let bv = tape.param(p, b);
                let stacked = tape.vstack(&[av, bv]); // [2,2]
                let gathered = tape.gather_rows(stacked, &[0, 1, 0]); // [3,2]
                let doubled = tape.concat_cols(&[gathered, gathered]); // [3,4]
                tape.mse_loss(doubled, &target)
            },
            &mut params,
            2e-2,
        );
    }

    #[test]
    fn grad_check_layer_norm() {
        let mut params = Params::new();
        let a = params.add("a", t(2, 3, &[0.5, -1.0, 2.0, 1.5, 0.0, -0.5]));
        let g = params.add("g", t(1, 3, &[1.0, 0.9, 1.1]));
        let b = params.add("b", t(1, 3, &[0.0, 0.1, -0.1]));
        let target = t(2, 3, &[0.0; 6]);
        grad_check(
            |tape, p| {
                let av = tape.param(p, a);
                let gv = tape.param(p, g);
                let bv = tape.param(p, b);
                let y = tape.layer_norm_row(av, gv, bv);
                tape.mse_loss(y, &target)
            },
            &mut params,
            3e-2,
        );
    }

    #[test]
    fn grad_check_bce_logits() {
        let mut params = Params::new();
        let a = params.add("a", t(3, 1, &[0.5, -1.2, 2.0]));
        let labels = t(3, 1, &[1.0, 0.0, 1.0]);
        grad_check(
            |tape, p| {
                let av = tape.param(p, a);
                tape.bce_logits_loss(av, &labels)
            },
            &mut params,
            2e-2,
        );
    }

    /// The constants of a NECS-shaped loss: `Â` and `H0` of a five-node
    /// DAG, a `[6, 7]` tabular input with exact zeros, and the targets.
    fn necs_shaped_inputs() -> [Tensor; 4] {
        let a_hat = crate::layers::normalized_adjacency(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        let h0 = Tensor::from_vec(5, 4, (0..20).map(|i| f32::from(i % 5 == i / 5)).collect());
        let mut tab = crate::init::normal(6, 7, 1.0, &mut crate::init::rng(31));
        tab.set(0, 2, 0.0);
        tab.set(3, 4, -0.0);
        let target = crate::init::normal(6, 1, 1.0, &mut crate::init::rng(32));
        [a_hat, h0, tab, target]
    }

    /// Two GCN layers over `Â` and `H0`, column max, the result gathered to
    /// every row and beside `tab`, a tower MLP, MSE: the NECS shape.
    fn necs_shaped_loss(
        tape: &mut Tape,
        params: &Params,
        (gcn1, gcn2, mlp): &(GcnLayer, GcnLayer, TowerMlp),
        [a_hat, h0, tab]: [Var; 3],
        target: &Tensor,
    ) -> Var {
        let h1 = gcn1.forward(tape, params, a_hat, h0);
        let h2 = gcn2.forward(tape, params, a_hat, h1);
        let pooled = tape.col_max(h2);
        let rows = tape.gather_rows(pooled, &[0; 6]);
        let x = tape.concat_cols(&[tab, rows]);
        let pred = mlp.forward(tape, params, x);
        tape.mse_loss(pred, target)
    }

    /// A GCN + MLP store and the loss's parameter gradients, with `Â`, `H0`
    /// and `tab` recorded as leaves or, `as_params`, as three more
    /// parameters; and the products `backward` ran.
    fn necs_shaped_gradients(as_params: bool) -> (Vec<Vec<u32>>, usize) {
        let [a_hat, h0, tab, target] = necs_shaped_inputs();
        let (mut params, r) = (Params::new(), &mut crate::init::rng(33));
        let layers = (
            GcnLayer::new(&mut params, "g1", 4, 8, r),
            GcnLayer::new(&mut params, "g2", 8, 8, r),
            TowerMlp::new(&mut params, "m", 15, 2, 1, r),
        );
        let real = params.len();
        let mut tape = Tape::new();
        let inputs = [a_hat, h0, tab].map(|t| match as_params {
            false => tape.leaf(t),
            true => {
                let id = params.add("constant", t);
                tape.param(&params, id)
            }
        });
        let loss = necs_shaped_loss(&mut tape, &params, &layers, inputs, &target);
        let before = BACKWARD_PRODUCTS.with(|n| n.get());
        tape.backward(loss, &mut params);
        let products = BACKWARD_PRODUCTS.with(|n| n.get()) - before;
        let bits = |i| params.grad(ParamId(i)).data().iter().map(|v| v.to_bits()).collect();
        ((0..real).map(bits).collect(), products)
    }

    #[test]
    fn constant_inputs_as_parameters_leave_every_real_gradient_bit_for_bit() {
        let (as_leaves, _) = necs_shaped_gradients(false);
        let (as_params, _) = necs_shaped_gradients(true);
        assert!(as_leaves.iter().flatten().any(|&v| v != 0), "no gradient reached the weights");
        assert_eq!(as_leaves, as_params);
    }

    #[test]
    fn backward_runs_no_product_for_a_gradient_nothing_reads() {
        // Leaves: `Â·H0` runs neither product, `(Â·H0)·W1` and `Â·h1` run
        // only the one whose operand has a parameter upstream: 0 + 1 + 1 + 2
        // for the GCN, and 2 for each of the tower's 3 layers. As
        // parameters: 2 for each of the 7 products.
        assert_eq!(necs_shaped_gradients(false).1, 10);
        assert_eq!(necs_shaped_gradients(true).1, 14);
        // A loss of leaves alone runs nothing and changes no gradient.
        let mut params = Params::new();
        let w = params.add("w", t(2, 2, &[0.5, -1.0, 2.0, 0.25]));
        let mut tape = Tape::new();
        let (a, b) = (tape.leaf(t(1, 2, &[1.0, 2.0])), tape.leaf(t(2, 1, &[3.0, 4.0])));
        let ab = tape.matmul(a, b);
        let loss = tape.mean(ab);
        let before = BACKWARD_PRODUCTS.with(|n| n.get());
        tape.backward(loss, &mut params);
        assert_eq!(BACKWARD_PRODUCTS.with(|n| n.get()), before);
        assert_eq!(params.grad(w).data(), &[0.0; 4]);
    }

    #[test]
    fn grad_reverse_flips_and_scales_gradient() {
        let mut params = Params::new();
        let a = params.add("a", t(1, 2, &[0.3, -0.4]));
        let target = t(1, 2, &[0.0, 0.0]);

        params.zero_grads();
        let mut tape = Tape::new();
        let av = tape.param(&params, a);
        let loss = tape.mse_loss(av, &target);
        tape.backward(loss, &mut params);
        let plain = params.grad(ParamId(0)).clone();

        params.zero_grads();
        let mut tape = Tape::new();
        let av = tape.param(&params, a);
        let rev = tape.grad_reverse(av, 0.5);
        let loss = tape.mse_loss(rev, &target);
        tape.backward(loss, &mut params);
        let reversed = params.grad(ParamId(0)).clone();

        for (p, r) in plain.data().iter().zip(reversed.data().iter()) {
            assert!((r + 0.5 * p).abs() < 1e-6, "expected -0.5x: {p} vs {r}");
        }
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut params = Params::new();
        let a = params.add("a", t(1, 1, &[2.0]));
        let target = t(1, 1, &[0.0]);
        for _ in 0..2 {
            let mut tape = Tape::new();
            let av = tape.param(&params, a);
            let loss = tape.mse_loss(av, &target);
            tape.backward(loss, &mut params);
        }
        // d/da (a^2) = 2a = 4, accumulated twice = 8.
        assert!((params.grad(ParamId(0)).get(0, 0) - 8.0).abs() < 1e-5);
        params.zero_grads();
        assert_eq!(params.grad(ParamId(0)).get(0, 0), 0.0);
    }

    #[test]
    fn truncate_drops_values_grads_and_names_together() {
        let mut params = Params::new();
        let a = params.add("a", t(1, 1, &[2.0]));
        params.add("tmp.w", t(2, 2, &[0.0; 4]));
        params.add("tmp.b", t(1, 2, &[0.0; 2]));
        params.truncate(1);
        assert_eq!((params.len(), params.grads.len(), params.names.len()), (1, 1, 1));
        assert_eq!(params.value(a).get(0, 0), 2.0);
        // The next registration reuses the freed slot.
        assert_eq!(params.add("b", t(1, 1, &[3.0])), ParamId(1));
    }

    #[test]
    fn embedding_grads_scatter_to_used_rows_only() {
        let mut params = Params::new();
        let emb = params.add("emb", t(3, 2, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
        let target = t(2, 2, &[0.0; 4]);
        let mut tape = Tape::new();
        let e = tape.embedding_gather(&params, emb, &[2, 2]);
        let loss = tape.mse_loss(e, &target);
        tape.backward(loss, &mut params);
        let g = params.grad(emb);
        assert_eq!(g.row(0), &[0.0, 0.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert!(g.row(2).iter().all(|&v| v != 0.0));
    }
}
