#ifndef HOSR_TENSOR_OPS_H_
#define HOSR_TENSOR_OPS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/matrix.h"

namespace hosr::tensor {

// Dense kernels over Matrix. Shape mismatches are programming errors and
// abort via HOSR_CHECK (callers validate user input at API boundaries).
// GEMM and the larger element-wise kernels are threaded via util::ParallelFor.

// out = alpha * op(a) * op(b) + beta * out, where op transposes when the
// corresponding flag is set. `out` must be pre-sized to the result shape
// (and is overwritten entirely when beta == 0).
void Gemm(const Matrix& a, bool transpose_a, const Matrix& b, bool transpose_b,
          float alpha, float beta, Matrix* out);

// Convenience: returns a * b.
Matrix MatMul(const Matrix& a, const Matrix& b);

// Element-wise and row-wise operations write `out`, which must already
// have the result shape and may alias an input. Large ones run across the
// pool; every element is computed independently, so the split changes no
// bit.
void Add(const Matrix& a, const Matrix& b, Matrix* out);
void Sub(const Matrix& a, const Matrix& b, Matrix* out);
void Hadamard(const Matrix& a, const Matrix& b, Matrix* out);
void Scale(const Matrix& a, float s, Matrix* out);
void Tanh(const Matrix& a, Matrix* out);
void Relu(const Matrix& a, Matrix* out);
void Sigmoid(const Matrix& a, Matrix* out);

// x > 0 ? v : 0, as a bit mask rather than a branch: which units are dead
// is data-dependent, so a branch mispredicts about half the time.
inline float ReluSelect(float x, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits &= 0u - static_cast<uint32_t>(x > 0.0f);
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// a += alpha * b (BLAS axpy over the whole buffer).
void Axpy(float alpha, const Matrix& b, Matrix* a);

// Row-wise dot products of equally-shaped (n x d) matrices -> (n x 1).
void RowDot(const Matrix& a, const Matrix& b, Matrix* out);

// Sum over each column -> (1 x d); out must not alias a.
void ColSum(const Matrix& a, Matrix* out);

// Row-wise softmax of an (n x k) matrix (numerically stable).
void RowSoftmax(const Matrix& a, Matrix* out);

// Multiplies each row r of `a` (n x d) by scalar `scale(r, 0)` from (n x 1).
void BroadcastColMul(const Matrix& a, const Matrix& scale, Matrix* out);

// Gathers rows: out(i, :) = a(indices[i], :); out is (indices x a.cols).
void GatherRows(const Matrix& a, const std::vector<uint32_t>& indices,
                Matrix* out);
Matrix GatherRows(const Matrix& a, const std::vector<uint32_t>& indices);

// Scatter-add: out(indices[i], :) += a(i, :). `out` must be pre-sized.
void ScatterAddRows(const Matrix& a, const std::vector<uint32_t>& indices,
                    Matrix* out);

Matrix Transpose(const Matrix& a);

// Frobenius norm squared, sum, mean, max-abs over all elements.
double SquaredNorm(const Matrix& a);
double Sum(const Matrix& a);
double Mean(const Matrix& a);
double MaxAbs(const Matrix& a);

// Max-abs element difference; matrices must be equal shape.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

// True iff shapes match and all elements differ by at most `tol`.
bool AllClose(const Matrix& a, const Matrix& b, double tol = 1e-5);

}  // namespace hosr::tensor

#endif  // HOSR_TENSOR_OPS_H_
