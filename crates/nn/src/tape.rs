//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] is rebuilt for every training batch: calling an op method both
//! computes the forward value eagerly and records the op so
//! [`Tape::backward`] can replay the chain rule in reverse. Ops are a closed
//! enum — no boxed closures — so the backward pass is a branch-predictable
//! match loop and the tape is trivially inspectable in tests.
//!
//! Tapes recycle their storage: every forward op draws its output buffer
//! from an internal free-list ([`Tape::reset`] returns all node buffers to
//! it), so a tape reused across training batches or DNF branches reaches a
//! steady state where the hot loop performs no heap allocation. See
//! DESIGN.md §8 for the reuse invariants.
//!
//! Parameters live outside the tape in a [`ParamStore`]. On a recording
//! tape ([`Tape::new`]) `param`/`gather` snapshot their values at record
//! time and `backward` scatters gradients back, which makes
//! embedding-table lookups sparse (only touched rows receive gradient).
//!
//! Inference runs on a forward-only tape ([`Tape::forward_only`]): the same
//! op methods compute the same values, but no op is recorded, `gather`
//! keeps no index list, and [`Tape::affine`] (every dense layer) reads its
//! weight and bias straight from the store instead of copying them onto
//! the tape. `backward` on such a tape panics.

use crate::params::{GradSink, ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node (an intermediate tensor) on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Constant input; no gradient flows past it.
    Input,
    /// A whole parameter tensor.
    Param(ParamId),
    /// Selected rows of a parameter tensor (embedding lookup).
    Gather {
        param: ParamId,
        indices: Vec<u32>,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    /// `a + row` where `row` broadcasts across the rows of `a`.
    AddRow(Var, Var),
    /// `a * row` with the same broadcast.
    MulRow(Var, Var),
    MatMul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Sin(Var),
    Cos(Var),
    Tanh(Var),
    Sigmoid(Var),
    Relu(Var),
    Abs(Var),
    Exp(Var),
    /// `ln(1 + e^x)`, the numerically safe building block of the loss.
    Softplus(Var),
    /// `atan2(y, x)` elementwise — the `Reg`-regularized angle restore.
    Atan2(Var, Var),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize, usize),
    /// Row-wise sum: `B×d → B×1`.
    SumCols(Var),
    /// Mean of all elements: `→ 1×1`.
    MeanAll(Var),
    /// Sum of all elements: `→ 1×1`.
    SumAll(Var),
    Min(Var, Var),
    Max(Var, Var),
}

/// Free-list of `Vec<f32>` allocations recycled across [`Tape::reset`]
/// calls. Buffers come back dirty: every consumer must overwrite (or
/// zero-fill) the full length it claims before reading.
#[derive(Default)]
struct BufferPool {
    free: Vec<Vec<f32>>,
}

impl BufferPool {
    /// An empty buffer with at least `cap` capacity, recycled if possible.
    fn take(&mut self, cap: usize) -> Vec<f32> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v.reserve(cap);
        v
    }

    /// Returns a buffer's allocation to the free-list.
    fn put(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.free.push(v);
        }
    }
}

/// A reusable autodiff graph. Build it forward with the op methods, call
/// [`Tape::backward`] once on a scalar loss, then [`Tape::reset`] to reuse
/// the tape (and its buffer allocations) for the next batch or branch.
pub struct Tape {
    /// Forward value of every node, indexed by [`Var`].
    values: Vec<Tensor>,
    /// The op that produced each node; stays empty on a forward-only tape.
    ops: Vec<Op>,
    pool: BufferPool,
    recording: bool,
}

impl Tape {
    /// An empty recording tape: every op is kept for [`Tape::backward`].
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            ops: Vec::new(),
            pool: BufferPool::default(),
            recording: true,
        }
    }

    /// An empty forward-only tape for inference: values are bit-identical
    /// to a recording tape's, but no op is recorded and dense layers read
    /// their weights from the store in place ([`Tape::affine`]).
    /// [`Tape::backward`] panics on it.
    pub fn forward_only() -> Self {
        Self {
            recording: false,
            ..Self::new()
        }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the tape holds no node.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Clears all recorded nodes, returning their buffers to the internal
    /// pool so the next forward pass reuses the allocations. Any `Var`
    /// handles from before the reset are invalidated (using one afterwards
    /// panics or reads an unrelated node — the borrow checker already stops
    /// `value()` references from crossing a reset).
    ///
    /// The pool keeps at most as many buffers as nodes were drained: a
    /// pass that records the same graph again can take no more than that,
    /// while [`Tape::input`] adopts caller allocations every pass — without
    /// the cap those would pile up in the free list forever.
    pub fn reset(&mut self) {
        let drained = self.values.len();
        let pool = &mut self.pool;
        for t in self.values.drain(..) {
            pool.put(t.data);
        }
        pool.free.truncate(drained);
        self.ops.clear();
    }

    /// Number of free buffers currently pooled (diagnostics/tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.free.len()
    }

    /// Drops all pooled buffers, forcing subsequent ops to allocate fresh.
    /// Exists so tests can compare pooled against unpooled execution.
    pub fn clear_pool(&mut self) {
        self.pool.free.clear();
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Appends a node, recording `op` only on a recording tape.
    fn push(&mut self, data: Tensor, op: Op) -> Var {
        if self.recording {
            self.ops.push(op);
        }
        self.push_value(data)
    }

    /// Appends a node's value without touching the op list.
    fn push_value(&mut self, data: Tensor) -> Var {
        self.values.push(data);
        Var(self.values.len() - 1)
    }

    /// Elementwise unary op into a pooled buffer.
    fn pooled_map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let Tape { values, pool, .. } = self;
        let src = &values[a.0];
        let mut data = pool.take(src.len());
        data.extend(src.data.iter().map(|&x| f(x)));
        Tensor {
            rows: src.rows,
            cols: src.cols,
            data,
        }
    }

    /// Elementwise binary op (same shape) into a pooled buffer.
    fn pooled_zip(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let Tape { values, pool, .. } = self;
        let (x, y) = (&values[a.0], &values[b.0]);
        let mut data = pool.take(x.len());
        data.extend(x.data.iter().zip(&y.data).map(|(&x, &y)| f(x, y)));
        Tensor {
            rows: x.rows,
            cols: x.cols,
            data,
        }
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        (self.values[v.0].rows, self.values[v.0].cols)
    }

    fn assert_same(&self, a: Var, b: Var, what: &str) {
        assert_eq!(self.shape(a), self.shape(b), "{what}: shape mismatch");
    }

    // ---------------------------------------------------------------- leafs

    /// Records a constant tensor (gradient stops here).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Records a constant filled with `value`.
    pub fn constant(&mut self, rows: usize, cols: usize, value: f32) -> Var {
        let mut data = self.pool.take(rows * cols);
        data.resize(rows * cols, value);
        self.push(Tensor { rows, cols, data }, Op::Input)
    }

    /// Records a whole parameter tensor (snapshot of its current value;
    /// a forward-only tape copies it too — dense layers avoid the copy
    /// through [`Tape::affine`]).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let src = store.value(id);
        let mut data = self.pool.take(src.len());
        data.extend_from_slice(&src.data);
        let t = Tensor {
            rows: src.rows,
            cols: src.cols,
            data,
        };
        self.push(t, Op::Param(id))
    }

    /// Records an embedding lookup: row `indices[i]` of the parameter becomes
    /// row `i` of the node. Gradients scatter-add back sparsely; a
    /// forward-only tape keeps no copy of `indices`.
    pub fn gather(&mut self, store: &ParamStore, id: ParamId, indices: &[u32]) -> Var {
        let table = store.value(id);
        let mut data = self.pool.take(indices.len() * table.cols);
        for &ix in indices {
            data.extend_from_slice(table.row(ix as usize));
        }
        let out = Tensor {
            rows: indices.len(),
            cols: table.cols,
            data,
        };
        if self.recording {
            self.ops.push(Op::Gather {
                param: id,
                indices: indices.to_vec(),
            });
        }
        self.push_value(out)
    }

    // ------------------------------------------------------------ binary ops

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.assert_same(a, b, "add");
        let t = self.pooled_zip(a, b, |x, y| x + y);
        self.push(t, Op::Add(a, b))
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.assert_same(a, b, "sub");
        let t = self.pooled_zip(a, b, |x, y| x - y);
        self.push(t, Op::Sub(a, b))
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.assert_same(a, b, "mul");
        let t = self.pooled_zip(a, b, |x, y| x * y);
        self.push(t, Op::Mul(a, b))
    }

    /// Elementwise `a / b` (same shape). The caller must keep `b` away from
    /// zero (the models guarantee this with `exp`/`+ε` constructions).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.assert_same(a, b, "div");
        let t = self.pooled_zip(a, b, |x, y| x / y);
        self.push(t, Op::Div(a, b))
    }

    /// `a + row`, broadcasting a `1×d` row across the `B×d` tensor `a`.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (rr, rc) = self.shape(row);
        assert_eq!(
            (rr, rc),
            (1, ac),
            "add_row: row must be 1x{ac}, got {rr}x{rc}"
        );
        let Tape { values, pool, .. } = self;
        let (at, rowt) = (&values[a.0], &values[row.0]);
        let mut data = pool.take(at.len());
        for r in 0..ar {
            data.extend(at.row(r).iter().zip(&rowt.data).map(|(&x, &s)| x + s));
        }
        let out = Tensor {
            rows: ar,
            cols: ac,
            data,
        };
        self.push(out, Op::AddRow(a, row))
    }

    /// `a * row`, broadcasting a `1×d` row across the `B×d` tensor `a`.
    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (rr, rc) = self.shape(row);
        assert_eq!(
            (rr, rc),
            (1, ac),
            "mul_row: row must be 1x{ac}, got {rr}x{rc}"
        );
        let Tape { values, pool, .. } = self;
        let (at, rowt) = (&values[a.0], &values[row.0]);
        let mut data = pool.take(at.len());
        for r in 0..ar {
            data.extend(at.row(r).iter().zip(&rowt.data).map(|(&x, &s)| x * s));
        }
        let out = Tensor {
            rows: ar,
            cols: ac,
            data,
        };
        self.push(out, Op::MulRow(a, row))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let Tape { values, pool, .. } = self;
        let (at, bt) = (&values[a.0], &values[b.0]);
        let (m, n) = (at.rows, bt.cols);
        let mut data = pool.take(m * n);
        data.resize(m * n, 0.0); // matmul_into accumulates; start from zeros
        at.matmul_into(bt, &mut data);
        let t = Tensor {
            rows: m,
            cols: n,
            data,
        };
        self.push(t, Op::MatMul(a, b))
    }

    /// The dense layer `x·W + b` for a weight parameter `w` (`in × out`)
    /// and a bias parameter `b` (`1 × out`).
    ///
    /// A recording tape records it as `param`, `param`, `matmul`, `add_row`,
    /// so backward reaches both parameters. A forward-only tape reads `W`
    /// and `b` from the store in place and writes one pooled node, with the
    /// same zero-started `matmul_into` and the same single add per element
    /// as `add_row`, so its values are bit-identical.
    pub fn affine(&mut self, store: &ParamStore, x: Var, w: ParamId, b: ParamId) -> Var {
        if self.recording {
            let wv = self.param(store, w);
            let bv = self.param(store, b);
            let xw = self.matmul(x, wv);
            return self.add_row(xw, bv);
        }
        let (wt, bt) = (store.value(w), store.value(b));
        assert_eq!(
            (bt.rows, bt.cols),
            (1, wt.cols),
            "affine: bias must be 1x{}, got {}x{}",
            wt.cols,
            bt.rows,
            bt.cols
        );
        let Tape { values, pool, .. } = self;
        let xt = &values[x.0];
        let (m, n) = (xt.rows, wt.cols);
        let mut data = pool.take(m * n);
        data.resize(m * n, 0.0); // matmul_into accumulates; start from zeros
        xt.matmul_into(wt, &mut data);
        for r in 0..m {
            for (o, &s) in data[r * n..(r + 1) * n].iter_mut().zip(&bt.data) {
                *o += s;
            }
        }
        self.push_value(Tensor {
            rows: m,
            cols: n,
            data,
        })
    }

    /// Elementwise minimum.
    pub fn min(&mut self, a: Var, b: Var) -> Var {
        self.assert_same(a, b, "min");
        let t = self.pooled_zip(a, b, f32::min);
        self.push(t, Op::Min(a, b))
    }

    /// Elementwise maximum.
    pub fn max(&mut self, a: Var, b: Var) -> Var {
        self.assert_same(a, b, "max");
        let t = self.pooled_zip(a, b, f32::max);
        self.push(t, Op::Max(a, b))
    }

    /// `atan2(y, x)` elementwise (`y` first, like `f32::atan2`).
    pub fn atan2(&mut self, y: Var, x: Var) -> Var {
        self.assert_same(y, x, "atan2");
        let t = self.pooled_zip(y, x, f32::atan2);
        self.push(t, Op::Atan2(y, x))
    }

    // ------------------------------------------------------------- unary ops

    /// `c * a` for a compile-time scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let t = self.pooled_map(a, |x| c * x);
        self.push(t, Op::Scale(a, c))
    }

    /// `a + c` for a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let t = self.pooled_map(a, |x| x + c);
        self.push(t, Op::AddScalar(a))
    }

    /// Negation, `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Elementwise sine.
    pub fn sin(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, f32::sin);
        self.push(t, Op::Sin(a))
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, f32::cos);
        self.push(t, Op::Cos(a))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, f32::tanh);
        self.push(t, Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(t, Op::Sigmoid(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, |x| x.max(0.0));
        self.push(t, Op::Relu(a))
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, f32::abs);
        self.push(t, Op::Abs(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, f32::exp);
        self.push(t, Op::Exp(a))
    }

    /// Numerically stable `softplus(x) = ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let t = self.pooled_map(a, |x| {
            if x > 20.0 {
                x
            } else if x < -20.0 {
                x.exp()
            } else {
                (1.0 + x.exp()).ln()
            }
        });
        self.push(t, Op::Softplus(a))
    }

    /// `log σ(x) = −softplus(−x)` — the stable form of the loss's log-sigmoid
    /// terms (Eq. 17).
    pub fn log_sigmoid(&mut self, a: Var) -> Var {
        let n = self.neg(a);
        let sp = self.softplus(n);
        self.neg(sp)
    }

    // --------------------------------------------------------- shape-changing

    /// Concatenates tensors with equal row counts along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        for &p in parts {
            assert_eq!(self.shape(p).0, rows, "concat_cols: row mismatch");
        }
        let Tape { values, pool, .. } = self;
        let mut data = pool.take(rows * total);
        for r in 0..rows {
            for &p in parts {
                data.extend_from_slice(values[p.0].row(r));
            }
        }
        let out = Tensor {
            rows,
            cols: total,
            data,
        };
        if self.recording {
            self.ops.push(Op::ConcatCols(parts.to_vec()));
        }
        self.push_value(out)
    }

    /// Columns `start..end` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.shape(a);
        assert!(start <= end && end <= cols, "slice_cols out of range");
        let Tape { values, pool, .. } = self;
        let mut data = pool.take(rows * (end - start));
        for r in 0..rows {
            data.extend_from_slice(&values[a.0].row(r)[start..end]);
        }
        let out = Tensor {
            rows,
            cols: end - start,
            data,
        };
        self.push(out, Op::SliceCols(a, start, end))
    }

    /// Row-wise sum, `B×d → B×1`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let (rows, _) = self.shape(a);
        let Tape { values, pool, .. } = self;
        let mut data = pool.take(rows);
        data.extend((0..rows).map(|r| values[a.0].row(r).iter().sum::<f32>()));
        let out = Tensor {
            rows,
            cols: 1,
            data,
        };
        self.push(out, Op::SumCols(a))
    }

    /// Mean of all elements, `→ 1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.values[a.0].len() as f32;
        let v = self.values[a.0].sum() / n;
        let mut data = self.pool.take(1);
        data.push(v);
        let t = Tensor {
            rows: 1,
            cols: 1,
            data,
        };
        self.push(t, Op::MeanAll(a))
    }

    /// Sum of all elements, `→ 1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = self.values[a.0].sum();
        let mut data = self.pool.take(1);
        data.push(v);
        let t = Tensor {
            rows: 1,
            cols: 1,
            data,
        };
        self.push(t, Op::SumAll(a))
    }

    /// Row-wise L1 norm `‖a‖₁` as a `B×1` column (`Σ|aᵢ|`).
    pub fn l1_rows(&mut self, a: Var) -> Var {
        let ab = self.abs(a);
        self.sum_cols(ab)
    }

    // -------------------------------------------------------------- backward

    /// Runs the reverse pass from the scalar node `loss`, accumulating
    /// parameter gradients into `store`. Returns the per-node gradients for
    /// inspection (index = node id; `None` if the node received no gradient).
    ///
    /// # Panics
    /// If `loss` is not a `1×1` tensor, or the tape is forward-only.
    pub fn backward(&self, loss: Var, store: &mut ParamStore) -> Vec<Option<Tensor>> {
        self.backward_into(loss, store)
    }

    /// [`Tape::backward`] generalized over the gradient destination: `sink`
    /// may be the [`ParamStore`] itself or a worker-private
    /// [`crate::GradBuffer`] when several shards run backward concurrently.
    pub fn backward_into<S: GradSink>(&self, loss: Var, sink: &mut S) -> Vec<Option<Tensor>> {
        assert!(self.recording, "backward on a forward-only tape");
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.values.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        // Helper to accumulate into an Option<Tensor> slot.
        fn acc(slot: &mut Option<Tensor>, add: &Tensor) {
            match slot {
                Some(t) => t.add_assign(add),
                None => *slot = Some(add.clone()),
            }
        }

        for idx in (0..self.values.len()).rev() {
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            let value = &self.values[idx];
            match &self.ops[idx] {
                Op::Input => {}
                Op::Param(id) => sink.accumulate(*id, &g),
                Op::Gather { param, indices } => {
                    for (i, &ix) in indices.iter().enumerate() {
                        sink.accumulate_row(*param, ix as usize, g.row(i));
                    }
                }
                Op::Add(a, b) => {
                    acc(&mut grads[a.0], &g);
                    acc(&mut grads[b.0], &g);
                }
                Op::Sub(a, b) => {
                    acc(&mut grads[a.0], &g);
                    let neg = g.map(|x| -x);
                    acc(&mut grads[b.0], &neg);
                }
                Op::Mul(a, b) => {
                    let ga = g.zip_map(&self.values[b.0], |g, y| g * y);
                    let gb = g.zip_map(&self.values[a.0], |g, x| g * x);
                    acc(&mut grads[a.0], &ga);
                    acc(&mut grads[b.0], &gb);
                }
                Op::Div(a, b) => {
                    let bd = &self.values[b.0];
                    let ad = &self.values[a.0];
                    let ga = g.zip_map(bd, |g, y| g / y);
                    let mut gb = g.zip_map(ad, |g, x| g * x);
                    gb = gb.zip_map(bd, |t, y| -t / (y * y));
                    acc(&mut grads[a.0], &ga);
                    acc(&mut grads[b.0], &gb);
                }
                Op::AddRow(a, row) => {
                    acc(&mut grads[a.0], &g);
                    let mut gr = Tensor::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for (d, &s) in gr.data.iter_mut().zip(g.row(r)) {
                            *d += s;
                        }
                    }
                    acc(&mut grads[row.0], &gr);
                }
                Op::MulRow(a, row) => {
                    let rowd = &self.values[row.0];
                    let ad = &self.values[a.0];
                    let mut ga = g.clone();
                    for r in 0..ga.rows {
                        let dst = ga.row_mut(r);
                        for (d, &s) in dst.iter_mut().zip(&rowd.data) {
                            *d *= s;
                        }
                    }
                    acc(&mut grads[a.0], &ga);
                    let mut gr = Tensor::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            gr.data[c] += g.get(r, c) * ad.get(r, c);
                        }
                    }
                    acc(&mut grads[row.0], &gr);
                }
                Op::MatMul(a, b) => {
                    let ga = g.matmul_t(&self.values[b.0]); // g · bᵀ
                    let gb = self.values[a.0].t_matmul(&g); // aᵀ · g
                    acc(&mut grads[a.0], &ga);
                    acc(&mut grads[b.0], &gb);
                }
                Op::Scale(a, c) => {
                    let ga = g.map(|x| c * x);
                    acc(&mut grads[a.0], &ga);
                }
                Op::AddScalar(a) => acc(&mut grads[a.0], &g),
                Op::Sin(a) => {
                    let ga = g.zip_map(&self.values[a.0], |g, x| g * x.cos());
                    acc(&mut grads[a.0], &ga);
                }
                Op::Cos(a) => {
                    let ga = g.zip_map(&self.values[a.0], |g, x| -g * x.sin());
                    acc(&mut grads[a.0], &ga);
                }
                Op::Tanh(a) => {
                    let ga = g.zip_map(value, |g, y| g * (1.0 - y * y));
                    acc(&mut grads[a.0], &ga);
                }
                Op::Sigmoid(a) => {
                    let ga = g.zip_map(value, |g, y| g * y * (1.0 - y));
                    acc(&mut grads[a.0], &ga);
                }
                Op::Relu(a) => {
                    let ga = g.zip_map(&self.values[a.0], |g, x| if x > 0.0 { g } else { 0.0 });
                    acc(&mut grads[a.0], &ga);
                }
                Op::Abs(a) => {
                    let ga = g.zip_map(&self.values[a.0], |g, x| g * x.signum());
                    acc(&mut grads[a.0], &ga);
                }
                Op::Exp(a) => {
                    let ga = g.zip_map(value, |g, y| g * y);
                    acc(&mut grads[a.0], &ga);
                }
                Op::Softplus(a) => {
                    let ga = g.zip_map(&self.values[a.0], |g, x| g / (1.0 + (-x).exp()));
                    acc(&mut grads[a.0], &ga);
                }
                Op::Atan2(y, x) => {
                    let yd = &self.values[y.0];
                    let xd = &self.values[x.0];
                    // d/dy atan2 = x/(x²+y²); d/dx atan2 = −y/(x²+y²).
                    let mut gy = Tensor::zeros(g.rows, g.cols);
                    let mut gx = Tensor::zeros(g.rows, g.cols);
                    for i in 0..g.data.len() {
                        let denom = xd.data[i] * xd.data[i] + yd.data[i] * yd.data[i];
                        let denom = if denom < 1e-12 { 1e-12 } else { denom };
                        gy.data[i] = g.data[i] * xd.data[i] / denom;
                        gx.data[i] = -g.data[i] * yd.data[i] / denom;
                    }
                    acc(&mut grads[y.0], &gy);
                    acc(&mut grads[x.0], &gx);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let pc = self.values[p.0].cols;
                        let mut gp = Tensor::zeros(g.rows, pc);
                        for r in 0..g.rows {
                            gp.row_mut(r).copy_from_slice(&g.row(r)[off..off + pc]);
                        }
                        acc(&mut grads[p.0], &gp);
                        off += pc;
                    }
                }
                Op::SliceCols(a, start, _end) => {
                    let (ar, ac) = (self.values[a.0].rows, self.values[a.0].cols);
                    let mut ga = Tensor::zeros(ar, ac);
                    for r in 0..g.rows {
                        ga.row_mut(r)[*start..*start + g.cols].copy_from_slice(g.row(r));
                    }
                    acc(&mut grads[a.0], &ga);
                }
                Op::SumCols(a) => {
                    let (ar, ac) = (self.values[a.0].rows, self.values[a.0].cols);
                    let mut ga = Tensor::zeros(ar, ac);
                    for r in 0..ar {
                        let gr = g.data[r];
                        ga.row_mut(r).iter_mut().for_each(|x| *x = gr);
                    }
                    acc(&mut grads[a.0], &ga);
                }
                Op::MeanAll(a) => {
                    let n = self.values[a.0].len() as f32;
                    let ga =
                        Tensor::full(self.values[a.0].rows, self.values[a.0].cols, g.item() / n);
                    acc(&mut grads[a.0], &ga);
                }
                Op::SumAll(a) => {
                    let ga = Tensor::full(self.values[a.0].rows, self.values[a.0].cols, g.item());
                    acc(&mut grads[a.0], &ga);
                }
                Op::Min(a, b) => {
                    let ad = &self.values[a.0];
                    let bd = &self.values[b.0];
                    let mut ga = Tensor::zeros(g.rows, g.cols);
                    let mut gb = Tensor::zeros(g.rows, g.cols);
                    for i in 0..g.data.len() {
                        if ad.data[i] <= bd.data[i] {
                            ga.data[i] = g.data[i];
                        } else {
                            gb.data[i] = g.data[i];
                        }
                    }
                    acc(&mut grads[a.0], &ga);
                    acc(&mut grads[b.0], &gb);
                }
                Op::Max(a, b) => {
                    let ad = &self.values[a.0];
                    let bd = &self.values[b.0];
                    let mut ga = Tensor::zeros(g.rows, g.cols);
                    let mut gb = Tensor::zeros(g.rows, g.cols);
                    for i in 0..g.data.len() {
                        if ad.data[i] >= bd.data[i] {
                            ga.data[i] = g.data[i];
                        } else {
                            gb.data[i] = g.data[i];
                        }
                    }
                    acc(&mut grads[a.0], &ga);
                    acc(&mut grads[b.0], &gb);
                }
            }
            // Re-store the node's own gradient so callers can inspect it.
            grads[idx] = Some(g);
        }
        grads
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_store(vals: &[f32]) -> (ParamStore, Vec<ParamId>) {
        let mut s = ParamStore::new();
        let ids = vals.iter().map(|&v| s.add(Tensor::scalar(v))).collect();
        (s, ids)
    }

    #[test]
    fn add_mul_chain_gradients() {
        // f = (a + b) * a; df/da = 2a + b, df/db = a.
        let (mut s, ids) = scalar_store(&[2.0, 3.0]);
        let mut t = Tape::new();
        let a = t.param(&s, ids[0]);
        let b = t.param(&s, ids[1]);
        let sum = t.add(a, b);
        let f = t.mul(sum, a);
        assert_eq!(t.value(f).item(), 10.0);
        t.backward(f, &mut s);
        assert!((s.grad(ids[0]).item() - 7.0).abs() < 1e-5);
        assert!((s.grad(ids[1]).item() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // f = sum(x · w), x constant 1×2, w param 2×2.
        let mut s = ParamStore::new();
        let w = s.add(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(1, 2, vec![5., 7.]));
        let wv = t.param(&s, w);
        let y = t.matmul(x, wv);
        let f = t.sum_all(y);
        t.backward(f, &mut s);
        // d f / d w[i][j] = x[i]
        assert_eq!(s.grad(w).data, vec![5., 5., 7., 7.]);
    }

    #[test]
    fn gather_scatters_sparse_grads() {
        let mut s = ParamStore::new();
        let e = s.add(Tensor::from_vec(4, 2, vec![0.; 8]));
        let mut t = Tape::new();
        let rows = t.gather(&s, e, &[1, 3, 1]);
        let f = t.sum_all(rows);
        t.backward(f, &mut s);
        // Row 1 referenced twice, row 3 once, rows 0 and 2 untouched.
        assert_eq!(s.grad(e).row(0), &[0., 0.]);
        assert_eq!(s.grad(e).row(1), &[2., 2.]);
        assert_eq!(s.grad(e).row(2), &[0., 0.]);
        assert_eq!(s.grad(e).row(3), &[1., 1.]);
    }

    #[test]
    fn broadcast_row_ops() {
        let mut s = ParamStore::new();
        let b = s.add(Tensor::from_vec(1, 2, vec![1.0, -1.0]));
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let bv = t.param(&s, b);
        let y = t.add_row(x, bv);
        assert_eq!(t.value(y).row(0), &[2., 1.]);
        let f = t.sum_all(y);
        t.backward(f, &mut s);
        // Bias grad is the column sum of ones = number of rows.
        assert_eq!(s.grad(b).data, vec![3., 3.]);
    }

    #[test]
    fn mul_row_grads() {
        let mut s = ParamStore::new();
        let k = s.add(Tensor::from_vec(1, 2, vec![2.0, 0.5]));
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let kv = t.param(&s, k);
        let y = t.mul_row(x, kv);
        assert_eq!(t.value(y).data, vec![2., 1., 6., 2.]);
        let f = t.sum_all(y);
        t.backward(f, &mut s);
        // d/dk_c = Σ_r x[r][c]
        assert_eq!(s.grad(k).data, vec![4., 6.]);
    }

    #[test]
    fn trig_gradients() {
        let (mut s, ids) = scalar_store(&[0.7]);
        let mut t = Tape::new();
        let a = t.param(&s, ids[0]);
        let sv = t.sin(a);
        let cv = t.cos(a);
        let sum = t.add(sv, cv);
        let f = t.sum_all(sum);
        t.backward(f, &mut s);
        let expect = 0.7f32.cos() - 0.7f32.sin();
        assert!((s.grad(ids[0]).item() - expect).abs() < 1e-5);
    }

    #[test]
    fn atan2_recovers_angle_gradient() {
        // θ = atan2(sin t, cos t) has dθ/dt = 1.
        let (mut s, ids) = scalar_store(&[1.1]);
        let mut t = Tape::new();
        let a = t.param(&s, ids[0]);
        let y = t.sin(a);
        let x = t.cos(a);
        let theta = t.atan2(y, x);
        let f = t.sum_all(theta);
        t.backward(f, &mut s);
        assert!((s.grad(ids[0]).item() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn min_max_subgradients_route_to_winner() {
        let (mut s, ids) = scalar_store(&[1.0, 2.0]);
        let mut t = Tape::new();
        let a = t.param(&s, ids[0]);
        let b = t.param(&s, ids[1]);
        let mn = t.min(a, b);
        let mx = t.max(a, b);
        let both = t.add(mn, mx);
        let f = t.sum_all(both);
        t.backward(f, &mut s);
        // min picks a, max picks b: each gets gradient 1.
        assert_eq!(s.grad(ids[0]).item(), 1.0);
        assert_eq!(s.grad(ids[1]).item(), 1.0);
    }

    #[test]
    fn concat_slice_roundtrip_grads() {
        let mut s = ParamStore::new();
        let p = s.add(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let q = s.add(Tensor::from_vec(2, 1, vec![5., 6.]));
        let mut t = Tape::new();
        let pv = t.param(&s, p);
        let qv = t.param(&s, q);
        let cat = t.concat_cols(&[pv, qv]);
        assert_eq!(t.value(cat).row(0), &[1., 2., 5.]);
        // Only the q-part contributes to the loss.
        let sl = t.slice_cols(cat, 2, 3);
        let f = t.sum_all(sl);
        t.backward(f, &mut s);
        assert_eq!(s.grad(p).data, vec![0.; 4]);
        assert_eq!(s.grad(q).data, vec![1., 1.]);
    }

    #[test]
    fn log_sigmoid_matches_direct_computation() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(1, 3, vec![-2.0, 0.0, 2.0]));
        let ls = t.log_sigmoid(x);
        for (i, &xi) in [-2.0f32, 0.0, 2.0].iter().enumerate() {
            let direct = (1.0 / (1.0 + (-xi).exp())).ln();
            assert!((t.value(ls).data[i] - direct).abs() < 1e-5);
        }
    }

    #[test]
    fn softplus_stable_at_extremes() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(1, 2, vec![100.0, -100.0]));
        let sp = t.softplus(x);
        assert!((t.value(sp).data[0] - 100.0).abs() < 1e-4);
        assert!(t.value(sp).data[1].abs() < 1e-4);
        assert!(t.value(sp).data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mean_all_gradient_is_uniform() {
        let mut s = ParamStore::new();
        let p = s.add(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let mut t = Tape::new();
        let pv = t.param(&s, p);
        let m = t.mean_all(pv);
        t.backward(m, &mut s);
        assert_eq!(s.grad(p).data, vec![0.25; 4]);
    }

    #[test]
    fn sum_cols_shape_and_grad() {
        let mut s = ParamStore::new();
        let p = s.add(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let mut t = Tape::new();
        let pv = t.param(&s, p);
        let sc = t.sum_cols(pv);
        assert_eq!(t.value(sc).data, vec![6., 15.]);
        let f = t.sum_all(sc);
        t.backward(f, &mut s);
        assert_eq!(s.grad(p).data, vec![1.; 6]);
    }

    #[test]
    fn reused_variable_accumulates() {
        // f = a*a: gradient must be 2a, requiring accumulation through both
        // mul parents pointing at the same node.
        let (mut s, ids) = scalar_store(&[3.0]);
        let mut t = Tape::new();
        let a = t.param(&s, ids[0]);
        let f0 = t.mul(a, a);
        let f = t.sum_all(f0);
        t.backward(f, &mut s);
        assert!((s.grad(ids[0]).item() - 6.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut s = ParamStore::new();
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(2, 2));
        t.backward(x, &mut s);
    }

    #[test]
    fn l1_rows_helper() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(2, 2, vec![-1., 2., 3., -4.]));
        let l1 = t.l1_rows(x);
        assert_eq!(t.value(l1).data, vec![3., 7.]);
    }

    /// One forward+backward pass of a small MLP-like graph; returns the loss
    /// value and the two parameter gradients.
    fn run_graph(
        t: &mut Tape,
        s: &mut ParamStore,
        w: ParamId,
        b: ParamId,
    ) -> (f32, Tensor, Tensor) {
        s.zero_grads();
        let x = t.input(Tensor::from_vec(3, 2, vec![0.3, -1.2, 0.8, 0.5, -0.7, 2.0]));
        let wv = t.param(s, w);
        let bv = t.param(s, b);
        let h = t.matmul(x, wv);
        let hb = t.add_row(h, bv);
        let a = t.relu(hb);
        let sq = t.mul(a, a);
        let loss = t.mean_all(sq);
        let lv = t.value(loss).item();
        t.backward(loss, s);
        (lv, s.grad(w).clone(), s.grad(b).clone())
    }

    #[test]
    fn reset_reuse_is_bit_identical_to_fresh_tape() {
        let mut s = ParamStore::new();
        let w = s.add(Tensor::from_vec(2, 2, vec![0.6, -0.4, 0.1, 0.9]));
        let b = s.add(Tensor::from_vec(1, 2, vec![0.05, -0.02]));

        // Reference: a fresh tape per pass (no buffer reuse possible).
        let mut fresh_runs = Vec::new();
        for _ in 0..3 {
            let mut t = Tape::new();
            fresh_runs.push(run_graph(&mut t, &mut s, w, b));
        }

        // Pooled: one tape reset between passes, recycling buffers.
        let mut t = Tape::new();
        for fresh in &fresh_runs {
            t.reset();
            let pooled = run_graph(&mut t, &mut s, w, b);
            assert_eq!(pooled.0.to_bits(), fresh.0.to_bits(), "loss diverged");
            assert_eq!(pooled.1.data, fresh.1.data, "weight grad diverged");
            assert_eq!(pooled.2.data, fresh.2.data, "bias grad diverged");
        }
    }

    #[test]
    fn reset_recycles_buffers() {
        let mut t = Tape::new();
        let x = t.constant(1, 4, 2.0);
        let y = t.relu(x);
        let _ = t.sum_all(y);
        assert_eq!(t.pooled_buffers(), 0);
        let nodes = t.len();
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.pooled_buffers(), nodes, "every node buffer pooled");
        // A second identical pass must not grow the pool's total footprint.
        let x = t.constant(1, 4, 2.0);
        let y = t.relu(x);
        let _ = t.sum_all(y);
        assert_eq!(t.pooled_buffers(), 0, "pass reuses every pooled buffer");
        t.reset();
        assert_eq!(t.pooled_buffers(), nodes);
        t.clear_pool();
        assert_eq!(t.pooled_buffers(), 0);
    }

    #[test]
    fn pooled_buffers_come_back_dirty_but_ops_overwrite_fully() {
        // Fill the pool with garbage-laden buffers, then check each op class
        // produces exactly the values a fresh tape would.
        let mut t = Tape::new();
        let big = t.input(Tensor::full(8, 8, f32::NAN));
        let _ = t.relu(big);
        t.reset();

        let a = t.input(Tensor::from_vec(2, 2, vec![1., -2., 3., -4.]));
        let b = t.input(Tensor::from_vec(2, 2, vec![2., 2., 2., 2.]));
        let sum = t.add(a, b);
        assert_eq!(t.value(sum).data, vec![3., 0., 5., -2.]);
        let mm = t.matmul(a, b);
        assert_eq!(t.value(mm).data, vec![-2., -2., -2., -2.]);
        let c = t.constant(2, 2, 0.5);
        assert_eq!(t.value(c).data, vec![0.5; 4]);
        let sc = t.sum_cols(a);
        assert_eq!(t.value(sc).data, vec![-1., -1.]);
    }
}
