// Portable scalar reference kernels. Every loop accumulates strictly
// left-to-right with a single accumulator, so results are bit-identical on
// any platform and any compiler that honors IEEE float semantics — this is
// the table HOSR_FORCE_SCALAR pins and the baseline the SIMD tables are
// tested against.
#include <cfloat>

#include "kernels/kernels.h"

namespace hosr::kernels {
namespace {

void AxpyScalar(size_t n, float alpha, const float* x, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Axpy2Scalar(size_t n, float a0, const float* x0, float a1,
                 const float* x1, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += a0 * x0[i] + a1 * x1[i];
}

void GemmRowsScalar(size_t rows, size_t n, size_t k, float alpha,
                    const float* a, size_t a_row, size_t a_k, const float* b,
                    size_t ldb, float* out, size_t ldo) {
  for (size_t r = 0; r < rows; ++r) {
    const float* ar = a + r * a_row;
    size_t kk = 0;
    for (; kk + 2 <= k; kk += 2) {
      Axpy2Scalar(n, alpha * ar[kk * a_k], b + kk * ldb,
                  alpha * ar[(kk + 1) * a_k], b + (kk + 1) * ldb,
                  out + r * ldo);
    }
    if (kk < k) {
      AxpyScalar(n, alpha * ar[kk * a_k], b + kk * ldb, out + r * ldo);
    }
  }
}

float DotScalar(size_t n, const float* a, const float* b) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void ScaleScalar(size_t n, float alpha, float* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float ReduceMaxScalar(size_t n, const float* x) {
  float best = x[0];
  for (size_t i = 1; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

float ScoreBlockScalar(size_t items, size_t d, const float* u,
                       const float* item_rows, const float* bias, float* out) {
  float best = -FLT_MAX;
  for (size_t j = 0; j < items; ++j) {
    float score = DotScalar(d, u, item_rows + j * d);
    if (bias != nullptr) score += bias[j];
    out[j] = score;
    if (score > best) best = score;
  }
  return best;
}

constexpr KernelTable kScalarTable = {
    "scalar",        kLevelScalar,  AxpyScalar,
    Axpy2Scalar,     GemmRowsScalar, DotScalar,
    ScaleScalar,     ReduceMaxScalar, ScoreBlockScalar,
};

}  // namespace

const KernelTable& Scalar() { return kScalarTable; }

}  // namespace hosr::kernels
