//! The row-major 2-D tensor underlying all PRISM kernels.

use crate::{Result, TensorError};

/// A dense, row-major 2-D `f32` tensor.
///
/// PRISM is a prefill-only transformer runtime; every intermediate it
/// manipulates is naturally a `[tokens, features]` or `[rows, cols]` matrix,
/// so a 2-D tensor with explicit shape checks is sufficient and keeps the
/// kernel code easy to audit. Batches are represented as vertically stacked
/// rows plus per-sequence row ranges maintained by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// Returns [`TensorError::DataLength`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::DataLength {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Builds a tensor by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (used by memory accounting).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Immutable view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the tensor to `rows x cols` in place, reusing the backing
    /// buffer (no reallocation while the new size fits its capacity).
    ///
    /// The retained prefix of the buffer keeps its old values and any
    /// grown region is zero-filled, so callers that do not overwrite every
    /// element must clear the tensor themselves. This is the primitive
    /// scratch workspaces use to re-dress one allocation for many shapes.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Element accessor with bounds checks folded into debug assertions.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Immutable view of row `r`.
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `r >= rows`.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: self.rows,
            });
        }
        Ok(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: self.rows,
            });
        }
        Ok(&mut self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Copies rows `[start, end)` into a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if start > end || end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: self.rows,
            });
        }
        Ok(Tensor {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    /// Gathers the given rows (in order, duplicates allowed) into a new tensor.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
            data.extend_from_slice(&self.data[i * self.cols..(i + 1) * self.cols]);
        }
        Ok(Tensor {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Vertically concatenates tensors that share a column count.
    pub fn vcat(parts: &[&Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(TensorError::Empty { op: "vcat" });
        }
        let cols = parts[0].cols;
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vcat",
                    lhs: (parts[0].rows, cols),
                    rhs: p.shape(),
                });
            }
            rows += p.rows;
        }
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Copies columns `[c0, c1)` of all rows into a new tensor.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Result<Tensor> {
        if c0 > c1 || c1 > self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: c1,
                bound: self.cols,
            });
        }
        let w = c1 - c0;
        let mut data = Vec::with_capacity(self.rows * w);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1]);
        }
        Ok(Tensor {
            rows: self.rows,
            cols: w,
            data,
        })
    }

    /// Writes `src` into columns starting at `c0` (row counts must match).
    pub fn set_cols(&mut self, c0: usize, src: &Tensor) -> Result<()> {
        if src.rows != self.rows || c0 + src.cols > self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "set_cols",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        for r in 0..self.rows {
            let dst = r * self.cols + c0;
            self.data[dst..dst + src.cols]
                .copy_from_slice(&src.data[r * src.cols..(r + 1) * src.cols]);
        }
        Ok(())
    }

    /// Returns the transpose as a new tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Maximum absolute difference to another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(3, 2, 1.5);
        assert!(f.data().iter().all(|&x| x == 1.5));
        assert_eq!(f.size_bytes(), 24);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::DataLength {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.at(1, 2), 12.0);
    }

    #[test]
    fn row_access_and_bounds() {
        let t = Tensor::from_fn(2, 2, |r, c| (r + c) as f32);
        assert_eq!(t.row(1).unwrap(), &[1.0, 2.0]);
        assert!(t.row(2).is_err());
        let mut t = t;
        t.row_mut(0).unwrap()[0] = 9.0;
        assert_eq!(t.at(0, 0), 9.0);
        assert!(t.row_mut(5).is_err());
    }

    #[test]
    fn slice_and_gather_rows() {
        let t = Tensor::from_fn(4, 2, |r, _| r as f32);
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.at(0, 0), 1.0);
        assert!(t.slice_rows(3, 5).is_err());
        assert!(t.slice_rows(3, 2).is_err());

        let g = t.gather_rows(&[3, 0, 3]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.at(0, 0), 3.0);
        assert_eq!(g.at(1, 0), 0.0);
        assert_eq!(g.at(2, 1), 3.0);
        assert!(t.gather_rows(&[4]).is_err());
    }

    #[test]
    fn vcat_concatenates_and_checks() {
        let a = Tensor::full(1, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        let c = Tensor::vcat(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.at(0, 0), 1.0);
        assert_eq!(c.at(2, 1), 2.0);

        let bad = Tensor::full(1, 3, 0.0);
        assert!(Tensor::vcat(&[&a, &bad]).is_err());
        assert!(Tensor::vcat(&[]).is_err());
    }

    #[test]
    fn slice_and_set_cols() {
        let t = Tensor::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let s = t.slice_cols(1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.data(), &[1.0, 2.0, 5.0, 6.0]);
        assert!(t.slice_cols(3, 5).is_err());
        assert!(t.slice_cols(3, 2).is_err());

        let mut t = t;
        let patch = Tensor::full(2, 2, 9.0);
        t.set_cols(2, &patch).unwrap();
        assert_eq!(t.row(0).unwrap(), &[0.0, 1.0, 9.0, 9.0]);
        assert_eq!(t.row(1).unwrap(), &[4.0, 5.0, 9.0, 9.0]);
        assert!(t.set_cols(3, &patch).is_err());
        let tall = Tensor::zeros(3, 1);
        assert!(t.set_cols(0, &tall).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let tt = t.transpose();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.at(2, 1), t.at(1, 2));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn max_abs_diff_reports_largest_gap() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.5, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        let c = Tensor::zeros(3, 1);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn empty_tensor_properties() {
        let t = Tensor::zeros(0, 4);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.rows(), 0);
    }
}
