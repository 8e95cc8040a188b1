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

use crate::tensor::Tensor;

/// Handle to a parameter tensor in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// Persistent parameter store (values + gradient accumulators).
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: Vec<Tensor>,
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
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
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
const CONV_LANES: usize = 8;

/// Floats of one convolution window: the kernel's width clipped to an
/// input of `n` rows, times the embedding width `d`.
fn conv_window(kernel: &Tensor, n: usize, d: usize) -> usize {
    assert!(
        n >= 1 && d >= 1 && kernel.cols().is_multiple_of(d),
        "conv kernel does not fit [{n},{d}]"
    );
    (kernel.cols() / d).min(n) * d
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

struct Node {
    value: Tensor,
    op: Op,
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
        self.nodes.push(Node { value, op, memo_idx, memo_t });
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
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Param(id))
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
    /// `+0.0`, as `Tensor::matmul` over the unfolded windows would.
    pub fn conv_relu_max(&mut self, params: &Params, x: Var, kernel: ParamId) -> Var {
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
        for j in 0..=n - wd / d {
            let window = &xt.data()[j * d..j * d + wd];
            for c in (0..kp).step_by(CONV_LANES) {
                let mut acc = [0.0f32; CONV_LANES];
                for (&xv, k_row) in window.iter().zip(kt.chunks_exact(kp)) {
                    for (a, &kv) in acc.iter_mut().zip(&k_row[c..c + CONV_LANES]) {
                        *a += kv * xv;
                    }
                }
                for (l, a) in acc.into_iter().enumerate() {
                    let v = a.max(0.0);
                    if v > best[c + l] {
                        (best[c + l], arg[c + l]) = (v, j);
                    }
                }
            }
        }
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
    pub fn backward(&mut self, loss: Var, params: &mut Params) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::full(1, 1, 1.0));

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            // Split borrows: the node being processed vs earlier nodes.
            let (before, rest) = self.nodes.split_at_mut(idx);
            let node = &rest[0];
            let val = |v: Var| -> &Tensor {
                assert!(v.0 < idx, "op parent must precede node");
                &before[v.0].value
            };
            let accum =
                |grads: &mut Vec<Option<Tensor>>, v: Var, delta: Tensor| match &mut grads[v.0] {
                    Some(t) => t.axpy(1.0, &delta),
                    slot => *slot = Some(delta),
                };
            match &node.op {
                Op::Leaf => {}
                Op::Param(id) => params.grad_mut(*id).axpy(1.0, &g),
                Op::MatMul(a, b) => {
                    let da = g.matmul_transpose_b(val(*b));
                    let db = val(*a).transpose_a_matmul(&g);
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::Add(a, b) => {
                    accum(&mut grads, *a, g.clone());
                    accum(&mut grads, *b, g);
                }
                Op::AddRowBroadcast(a, bias) => {
                    let mut db = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (c, &v) in g.row(r).iter().enumerate() {
                            db.set(0, c, db.get(0, c) + v);
                        }
                    }
                    accum(&mut grads, *a, g);
                    accum(&mut grads, *bias, db);
                }
                Op::Scale(a, alpha) => accum(&mut grads, *a, g.scaled(*alpha)),
                Op::Hadamard(a, b) => {
                    let da = g.hadamard(val(*b));
                    let db = g.hadamard(val(*a));
                    accum(&mut grads, *a, da);
                    accum(&mut grads, *b, db);
                }
                Op::Relu(a) => {
                    let mask = val(*a).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                    accum(&mut grads, *a, g.hadamard(&mask));
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
                    let vars = vars.clone();
                    let mut off = 0;
                    for v in vars {
                        let w = val(v).cols();
                        let mut dv = Tensor::zeros(g.rows(), w);
                        for r in 0..g.rows() {
                            dv.row_mut(r).copy_from_slice(&g.row(r)[off..off + w]);
                        }
                        off += w;
                        accum(&mut grads, v, dv);
                    }
                }
                Op::VStack(vars) => {
                    for (r, v) in vars.clone().into_iter().enumerate() {
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
                    live.sort_by_key(|&k| arg[k]);
                    let mut dx = Tensor::zeros(n, d);
                    let mut col = vec![0.0f32; wd];
                    for same in live.chunk_by(|&a, &b| arg[a] == arg[b]) {
                        col.fill(0.0);
                        for &k in same {
                            for (c, &a) in col.iter_mut().zip(&kern.row(k)[..wd]) {
                                if a != 0.0 {
                                    *c += a * g.get(0, k);
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
                        for (c, &v) in g.row(r).iter().enumerate() {
                            gt.set(i, c, gt.get(i, c) + v);
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
                    accum(&mut grads, *a, dx);
                    accum(&mut grads, *gain, dgain);
                    accum(&mut grads, *bias, dbias);
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
mod tests {
    use super::*;

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

    #[test]
    fn conv_relu_max_equals_the_dense_ops_bit_for_bit() {
        // Values from a fixed recurrence, not from an rng stream.
        let noise = |i: usize| ((i * 37 + 11) % 101) as f32 * 0.02 - 1.0;
        let (d, w, k) = (3, 3, 10);
        // Rows repeat with period 4, so windows j and j+4 tie exactly;
        // column 0 is positive everywhere.
        let periodic = |n: usize| {
            let at = |i: usize| (noise(i % (4 * d)).abs() + 0.1) * [1.0, -1.0, 1.0][i % d];
            Tensor::from_vec(n, d, (0..n * d).map(at).collect())
        };
        let mut kern =
            Tensor::from_vec(k, w * d, (0..k * w * d).map(|i| noise(3 * i + 1)).collect());
        kern.row_mut(3).fill(0.0); // every pre-activation is 0
        for q in 0..w * d {
            // Kernel 4 sees only the positive column, negated; 5 has holes.
            kern.set(4, q, if q % d == 0 { -0.5 } else { 0.0 });
            kern.set(5, q, if q % 2 == 0 { 0.0 } else { kern.get(5, q) });
        }
        let plain = Tensor::from_vec(13, d, (0..13 * d).map(|i| noise(5 * i + 2)).collect());
        let target: Vec<f32> = (0..k).map(|i| noise(7 * i)).collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Ties; no ties; N = w; N < w.
        for x in [periodic(12), plain, periodic(3), periodic(2)] {
            let mut params = Params::new();
            let (xp, kp) = (params.add("x", x.clone()), params.add("k", kern.clone()));
            let mut tape = Tape::new();
            let xv = tape.param(&params, xp);
            let y = tape.conv_relu_max(&params, xv, kp);
            let loss = tape.mse_loss(y, &Tensor::row_vector(target.clone()));
            tape.backward(loss, &mut params);
            let (want_y, want_arg, want_dk, want_dx) = dense_conv(&x, &kern, &target);
            let n = x.rows();
            assert_eq!(bits(tape.value(y)), bits(&want_y), "N = {n}");
            assert_eq!(tape.nodes[y.0].memo_idx, want_arg, "N = {n}");
            assert_eq!(bits(params.grad(kp)), bits(&want_dk), "N = {n}");
            assert_eq!(bits(params.grad(xp)), bits(&want_dx), "N = {n}");
            // The inputs are what they were built to be: kernel 3 never
            // fires, nor does 4 where column 0 is positive.
            for r in if n == 13 { 3..4 } else { 3..5 } {
                assert_eq!((want_y.get(0, r), want_arg[r]), (0.0, 0), "N = {n}, kernel {r}");
                assert!(want_dk.row(r).iter().all(|&v| v == 0.0), "N = {n}, kernel {r}");
            }
            assert!(want_y.data().iter().any(|&v| v > 0.0), "N = {n}");
            assert!(n != 12 || want_arg.iter().all(|&j| j < 4), "ties go first: {want_arg:?}");
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
