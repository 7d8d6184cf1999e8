#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace hosr::tensor {

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  HOSR_CHECK(a.SameShape(b)) << a.rows() << "x" << a.cols() << " vs "
                             << b.rows() << "x" << b.cols();
}

// out[i] = fn(a[i]) and out[i] = fn(a[i], b[i]), split across the pool.
template <typename Fn>
void MapInto(const Matrix& a, Matrix* out, Fn fn,
             size_t grain = util::kGrainTargetWork) {
  CheckSameShape(a, *out);
  const float* ap = a.data();
  float* op = out->data();
  util::ParallelForEach(0, a.size(), [=](size_t i) { op[i] = fn(ap[i]); },
                        grain);
}

template <typename Fn>
void ZipInto(const Matrix& a, const Matrix& b, Matrix* out, Fn fn) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  util::ParallelForEach(0, a.size(),
                        [=](size_t i) { op[i] = fn(ap[i], bp[i]); });
}

}  // namespace

void Gemm(const Matrix& a, bool transpose_a, const Matrix& b, bool transpose_b,
          float alpha, float beta, Matrix* out) {
  const size_t m = transpose_a ? a.cols() : a.rows();
  const size_t k = transpose_a ? a.rows() : a.cols();
  const size_t k2 = transpose_b ? b.cols() : b.rows();
  const size_t n = transpose_b ? b.rows() : b.cols();
  HOSR_CHECK(k == k2) << "inner dims " << k << " vs " << k2;
  HOSR_CHECK(out->rows() == m && out->cols() == n)
      << "out " << out->rows() << "x" << out->cols() << " want " << m << "x"
      << n;
  HOSR_CHECK(out != &a && out != &b) << "Gemm does not support aliasing";

  HOSR_COUNTER("kernels/gemm_flops").Increment(2 * m * n * k);
  const kernels::KernelTable& kern = kernels::Active();

  // Parallel over blocks of out's rows. Un-transposed B: the gemm_rows
  // microkernel keeps the rows in registers across the pairs of rank-1 row
  // updates (the axpy2 sequence, element for element). Transposed B:
  // score_block reduces each (i, j) exactly as dot does, a chunk of B's
  // rows per call (k == 1 needs no reduction at all). Both transposed: B^T's
  // column walk is strided too, so a scalar accumulator.
  constexpr size_t kRowBlock = 4;
  constexpr size_t kScoreChunk = 256;
  util::ParallelFor(
      0, (m + kRowBlock - 1) / kRowBlock,
      [&](size_t block_begin, size_t block_end) {
        const size_t row_begin = block_begin * kRowBlock;
        const size_t row_end = std::min(m, block_end * kRowBlock);
        for (size_t i = row_begin; i < row_end; ++i) {
          float* out_row = out->row(i);
          if (beta == 0.0f) {
            std::fill(out_row, out_row + n, 0.0f);
          } else if (beta != 1.0f) {
            kern.scale(n, beta, out_row);
          }
        }
        if (!transpose_b) {
          const size_t lda = a.cols();
          if (k == 0) return;
          kern.gemm_rows(row_end - row_begin, n, k, alpha,
                         a.data() + (transpose_a ? row_begin
                                                 : row_begin * lda),
                         transpose_a ? 1 : lda, transpose_a ? lda : 1,
                         b.data(), n, out->row(row_begin), n);
          return;
        }
        float scores[kScoreChunk];
        for (size_t i = row_begin; i < row_end; ++i) {
          float* out_row = out->row(i);
          if (!transpose_a && k == 1) {
            // dot over one element is 0 + a * b in either table.
            const float a0 = a(i, 0);
            for (size_t j = 0; j < n; ++j) {
              out_row[j] += alpha * (0.0f + a0 * b(j, 0));
            }
          } else if (!transpose_a) {
            for (size_t j = 0; j < n; j += kScoreChunk) {
              const size_t len = std::min(kScoreChunk, n - j);
              kern.score_block(len, k, a.row(i), b.row(j), nullptr, scores);
              for (size_t c = 0; c < len; ++c) {
                out_row[j + c] += alpha * scores[c];
              }
            }
          } else {
            for (size_t j = 0; j < n; ++j) {
              const float* b_row = b.row(j);
              float acc = 0.0f;
              for (size_t kk = 0; kk < k; ++kk) {
                acc += a(kk, i) * b_row[kk];
              }
              out_row[j] += alpha * acc;
            }
          }
        }
      },
      util::GrainFor(kRowBlock * n * k));
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  Gemm(a, false, b, false, 1.0f, 0.0f, &out);
  return out;
}

void Add(const Matrix& a, const Matrix& b, Matrix* out) {
  ZipInto(a, b, out, [](float x, float y) { return x + y; });
}

void Sub(const Matrix& a, const Matrix& b, Matrix* out) {
  ZipInto(a, b, out, [](float x, float y) { return x - y; });
}

void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) {
  ZipInto(a, b, out, [](float x, float y) { return x * y; });
}

void Scale(const Matrix& a, float s, Matrix* out) {
  MapInto(a, out, [s](float x) { return x * s; });
}

void Axpy(float alpha, const Matrix& b, Matrix* a) {
  CheckSameShape(*a, b);
  HOSR_COUNTER("kernels/axpy_flops").Increment(2 * a->size());
  kernels::Active().axpy(a->size(), alpha, b.data(), a->data());
}

// The transcendental passes cost tens of cycles per element, so they split
// at a finer grain.
void Tanh(const Matrix& a, Matrix* out) {
  MapInto(a, out, [](float x) { return std::tanh(x); }, util::GrainFor(16));
}

void Relu(const Matrix& a, Matrix* out) {
  MapInto(a, out, [](float x) { return ReluSelect(x, x); });
}

void Sigmoid(const Matrix& a, Matrix* out) {
  MapInto(a, out, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
          util::GrainFor(16));
}

void RowDot(const Matrix& a, const Matrix& b, Matrix* out) {
  CheckSameShape(a, b);
  HOSR_CHECK(out->rows() == a.rows() && out->cols() == 1);
  HOSR_COUNTER("kernels/dot_flops").Increment(2 * a.size());
  const kernels::KernelTable& kern = kernels::Active();
  for (size_t r = 0; r < a.rows(); ++r) {
    (*out)(r, 0) = kern.dot(a.cols(), a.row(r), b.row(r));
  }
}

void ColSum(const Matrix& a, Matrix* out) {
  HOSR_CHECK(out->rows() == 1 && out->cols() == a.cols());
  out->SetZero();
  float* op = out->data();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) op[c] += ar[c];
  }
}

void RowSoftmax(const Matrix& a, Matrix* out) {
  CheckSameShape(a, *out);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    float* orow = out->row(r);
    float max_val = ar[0];
    for (size_t c = 1; c < a.cols(); ++c) max_val = std::max(max_val, ar[c]);
    float denom = 0.0f;
    for (size_t c = 0; c < a.cols(); ++c) {
      orow[c] = std::exp(ar[c] - max_val);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    for (size_t c = 0; c < a.cols(); ++c) orow[c] *= inv;
  }
}

void BroadcastColMul(const Matrix& a, const Matrix& scale, Matrix* out) {
  HOSR_CHECK(scale.rows() == a.rows() && scale.cols() == 1)
      << "scale must be (" << a.rows() << " x 1), got " << scale.rows() << "x"
      << scale.cols();
  CheckSameShape(a, *out);
  const size_t cols = a.cols();
  util::ParallelFor(
      0, a.rows(),
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const float s = scale(r, 0);
          const float* ar = a.row(r);
          float* orow = out->row(r);
          for (size_t c = 0; c < cols; ++c) orow[c] = ar[c] * s;
        }
      },
      util::GrainFor(cols));
}

void GatherRows(const Matrix& a, const std::vector<uint32_t>& indices,
                Matrix* out) {
  HOSR_CHECK(out->rows() == indices.size() && out->cols() == a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    HOSR_CHECK(indices[i] < a.rows()) << indices[i] << " >= " << a.rows();
    std::copy(a.row(indices[i]), a.row(indices[i]) + a.cols(), out->row(i));
  }
}

Matrix GatherRows(const Matrix& a, const std::vector<uint32_t>& indices) {
  Matrix out(indices.size(), a.cols());
  GatherRows(a, indices, &out);
  return out;
}

void ScatterAddRows(const Matrix& a, const std::vector<uint32_t>& indices,
                    Matrix* out) {
  HOSR_CHECK(indices.size() == a.rows());
  HOSR_CHECK(out->cols() == a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    HOSR_CHECK(indices[i] < out->rows());
    const float* src = a.row(i);
    float* dst = out->row(indices[i]);
    for (size_t c = 0; c < a.cols(); ++c) dst[c] += src[c];
  }
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) out(c, r) = ar[c];
  }
  return out;
}

double SquaredNorm(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) acc += static_cast<double>(p[i]) * p[i];
  return acc;
}

double Sum(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) acc += p[i];
  return acc;
}

double Mean(const Matrix& a) {
  HOSR_CHECK(a.size() > 0);
  return Sum(a) / static_cast<double>(a.size());
}

double MaxAbs(const Matrix& a) {
  double best = 0.0;
  const float* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, static_cast<double>(std::fabs(p[i])));
  }
  return best;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  double best = 0.0;
  const float* ap = a.data();
  const float* bp = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, static_cast<double>(std::fabs(ap[i] - bp[i])));
  }
  return best;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (!a.SameShape(b)) return false;
  return MaxAbsDiff(a, b) <= tol;
}

}  // namespace hosr::tensor
