// AVX2+FMA microkernels. This translation unit is the only one compiled
// with -mavx2 -mfma (see CMakeLists.txt) so the rest of the build stays
// baseline-portable; nothing here is reachable unless dispatch.cc probed
// CPUID and selected this table at process start.
//
// Reduction orders are fixed per kernel (8-lane partial sums combined in a
// fixed tree, scalar remainder folded in last), so results are
// bit-reproducible run-to-run within this dispatch level — they differ from
// the scalar table only by float reassociation (~1e-7 relative; the
// equivalence tests in tests/kernels_test.cc bound it at 1e-5).
#include <cfloat>
#include <immintrin.h>

#include "kernels/kernels.h"

namespace hosr::kernels {
namespace {

// Horizontal sum of an 8-lane register with a fixed combination tree:
// (l0+l4)+(l2+l6) + (l1+l5)+(l3+l7).
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
  __m128 sum1 = _mm_add_ss(sum2, _mm_movehdup_ps(sum2));
  return _mm_cvtss_f32(sum1);
}

inline float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 max4 = _mm_max_ps(lo, hi);
  __m128 max2 = _mm_max_ps(max4, _mm_movehl_ps(max4, max4));
  __m128 max1 = _mm_max_ss(max2, _mm_movehdup_ps(max2));
  return _mm_cvtss_f32(max1);
}

void AxpyAvx2(size_t n, float alpha, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(
        y + i + 8, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i + 8),
                                   _mm256_loadu_ps(y + i + 8)));
  }
  if (i + 8 <= n) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    i += 8;
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Axpy2Avx2(size_t n, float a0, const float* x0, float a1, const float* x1,
               float* y) {
  const __m256 va0 = _mm256_set1_ps(a0);
  const __m256 va1 = _mm256_set1_ps(a1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_fmadd_ps(va0, _mm256_loadu_ps(x0 + i),
                                 _mm256_loadu_ps(y + i));
    acc = _mm256_fmadd_ps(va1, _mm256_loadu_ps(x1 + i), acc);
    _mm256_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i) y[i] += a0 * x0[i] + a1 * x1[i];
}

// kRows rows x kRegs * 8 columns of Gemm output, held in registers across
// the whole k loop (the pragmas unroll the block loops, which keeps the
// accumulators out of memory). Per element: the FMA pair of Axpy2Avx2's
// vector body, then AxpyAvx2's single FMA for an odd last kk. Each load of
// b feeds all kRows rows. With kUnitAlpha (alpha == 1, every autograd
// Gemm) a is broadcast straight from memory: 1 * x == x, so skipping the
// multiply changes no bit.
template <int kRows, int kRegs, bool kUnitAlpha>
void GemmBlockAvx2(size_t k, float alpha, const float* a, size_t a_row,
                   size_t a_k, const float* b, size_t ldb, float* out,
                   size_t ldo) {
  __m256 acc[kRows][kRegs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int c = 0; c < kRegs; ++c) {
      acc[r][c] = _mm256_loadu_ps(out + r * ldo + 8 * c);
    }
  }
  size_t kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const float* b0 = b + kk * ldb;
    const float* b1 = b0 + ldb;
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const float* ar = a + r * a_row + kk * a_k;
      const __m256 va0 = kUnitAlpha ? _mm256_broadcast_ss(ar)
                                    : _mm256_set1_ps(alpha * ar[0]);
      const __m256 va1 = kUnitAlpha ? _mm256_broadcast_ss(ar + a_k)
                                    : _mm256_set1_ps(alpha * ar[a_k]);
#pragma GCC unroll 2
      for (int c = 0; c < kRegs; ++c) {
        acc[r][c] =
            _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + 8 * c), acc[r][c]);
        acc[r][c] =
            _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + 8 * c), acc[r][c]);
      }
    }
  }
  if (kk < k) {
    const float* b0 = b + kk * ldb;
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const __m256 va = _mm256_set1_ps(alpha * a[r * a_row + kk * a_k]);
#pragma GCC unroll 2
      for (int c = 0; c < kRegs; ++c) {
        acc[r][c] =
            _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + 8 * c), acc[r][c]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int c = 0; c < kRegs; ++c) {
      _mm256_storeu_ps(out + r * ldo + 8 * c, acc[r][c]);
    }
  }
}

// kRows rows, 16 columns then 8 at a time, then the scalar tail columns
// with the same expressions as the axpy2/axpy tails, so the compiler
// contracts them identically.
template <int kRows, bool kUnitAlpha>
void GemmRowBlockAvx2(size_t n, size_t k, float alpha, const float* a,
                      size_t a_row, size_t a_k, const float* b, size_t ldb,
                      float* out, size_t ldo) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    GemmBlockAvx2<kRows, 2, kUnitAlpha>(k, alpha, a, a_row, a_k, b + j, ldb,
                                        out + j, ldo);
  }
  for (; j + 8 <= n; j += 8) {
    GemmBlockAvx2<kRows, 1, kUnitAlpha>(k, alpha, a, a_row, a_k, b + j, ldb,
                                        out + j, ldo);
  }
  for (; j < n; ++j) {
    for (int r = 0; r < kRows; ++r) {
      const float* ar = a + r * a_row;
      float y = out[r * ldo + j];
      size_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const float a0 = alpha * ar[kk * a_k];
        const float a1 = alpha * ar[(kk + 1) * a_k];
        y += a0 * b[kk * ldb + j] + a1 * b[(kk + 1) * ldb + j];
      }
      if (kk < k) {
        const float a0 = alpha * ar[kk * a_k];
        y += a0 * b[kk * ldb + j];
      }
      out[r * ldo + j] = y;
    }
  }
}

template <bool kUnitAlpha>
void GemmRowsImpl(size_t rows, size_t n, size_t k, float alpha,
                  const float* a, size_t a_row, size_t a_k, const float* b,
                  size_t ldb, float* out, size_t ldo) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    GemmRowBlockAvx2<4, kUnitAlpha>(n, k, alpha, a + r * a_row, a_row, a_k,
                                    b, ldb, out + r * ldo, ldo);
  }
  for (; r < rows; ++r) {
    GemmRowBlockAvx2<1, kUnitAlpha>(n, k, alpha, a + r * a_row, a_row, a_k,
                                    b, ldb, out + r * ldo, ldo);
  }
}

void GemmRowsAvx2(size_t rows, size_t n, size_t k, float alpha,
                  const float* a, size_t a_row, size_t a_k, const float* b,
                  size_t ldb, float* out, size_t ldo) {
  (alpha == 1.0f ? GemmRowsImpl<true> : GemmRowsImpl<false>)(
      rows, n, k, alpha, a, a_row, a_k, b, ldb, out, ldo);
}

float DotAvx2(size_t n, const float* a, const float* b) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return HorizontalSum(_mm256_add_ps(acc0, acc1)) + tail;
}

void ScaleAvx2(size_t n, float alpha, float* x) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float ReduceMaxAvx2(size_t n, const float* x) {
  size_t i = 0;
  float best = x[0];
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
    }
    best = HorizontalMax(vmax);
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

float ScoreBlockAvx2(size_t items, size_t d, const float* u,
                     const float* item_rows, const float* bias, float* out) {
  float best = -FLT_MAX;
  size_t j = 0;
  // Two items per pass share each load of u, halving its bandwidth cost.
  // Each item's reduction replays DotAvx2's order exactly (two 8-lane
  // partials over 16-wide steps, 8-wide epilogue into the first partial,
  // scalar tail folded in last), so a blocked serving scan is bit-identical
  // to the Gemm/RowDot paths that score the same pair of vectors.
  for (; j + 2 <= items; j += 2) {
    const float* r0 = item_rows + j * d;
    const float* r1 = r0 + d;
    __m256 acc0a = _mm256_setzero_ps();
    __m256 acc0b = _mm256_setzero_ps();
    __m256 acc1a = _mm256_setzero_ps();
    __m256 acc1b = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= d; i += 16) {
      const __m256 vu0 = _mm256_loadu_ps(u + i);
      const __m256 vu1 = _mm256_loadu_ps(u + i + 8);
      acc0a = _mm256_fmadd_ps(vu0, _mm256_loadu_ps(r0 + i), acc0a);
      acc0b = _mm256_fmadd_ps(vu1, _mm256_loadu_ps(r0 + i + 8), acc0b);
      acc1a = _mm256_fmadd_ps(vu0, _mm256_loadu_ps(r1 + i), acc1a);
      acc1b = _mm256_fmadd_ps(vu1, _mm256_loadu_ps(r1 + i + 8), acc1b);
    }
    if (i + 8 <= d) {
      const __m256 vu = _mm256_loadu_ps(u + i);
      acc0a = _mm256_fmadd_ps(vu, _mm256_loadu_ps(r0 + i), acc0a);
      acc1a = _mm256_fmadd_ps(vu, _mm256_loadu_ps(r1 + i), acc1a);
      i += 8;
    }
    float t0 = 0.0f, t1 = 0.0f;
    for (; i < d; ++i) {
      t0 += u[i] * r0[i];
      t1 += u[i] * r1[i];
    }
    float s0 = HorizontalSum(_mm256_add_ps(acc0a, acc0b)) + t0;
    float s1 = HorizontalSum(_mm256_add_ps(acc1a, acc1b)) + t1;
    if (bias != nullptr) {
      s0 += bias[j];
      s1 += bias[j + 1];
    }
    out[j] = s0;
    out[j + 1] = s1;
    if (s0 > best) best = s0;
    if (s1 > best) best = s1;
  }
  if (j < items) {
    float score = DotAvx2(d, u, item_rows + j * d);
    if (bias != nullptr) score += bias[j];
    out[j] = score;
    if (score > best) best = score;
  }
  return best;
}

constexpr KernelTable kAvx2Table = {
    "avx2",      kLevelAvx2,  AxpyAvx2,
    Axpy2Avx2,   GemmRowsAvx2, DotAvx2,
    ScaleAvx2,   ReduceMaxAvx2, ScoreBlockAvx2,
};

}  // namespace

// Referenced by dispatch.cc behind the HOSR_KERNELS_HAVE_AVX2 define.
const KernelTable& Avx2Table() { return kAvx2Table; }

}  // namespace hosr::kernels
