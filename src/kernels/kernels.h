#ifndef HOSR_KERNELS_KERNELS_H_
#define HOSR_KERNELS_KERNELS_H_

#include <cstddef>

namespace hosr::kernels {

// Runtime-dispatched dense microkernels backing every dense hot path in the
// library (tensor::Gemm/Axpy/RowDot, graph::Spmm, the serving GEMV, the
// evaluator's top-K scan). The instruction set is probed once per process
// (CPUID) and every call site reads the same resolved table, so a process
// never mixes ISA levels: each kernel has a fixed reduction order within a
// level, which preserves the train-resume and snapshot bit-identity
// contracts (docs/ROBUSTNESS.md) for any fixed dispatch mode.
//
// Setting the environment variable HOSR_FORCE_SCALAR (to anything but "0")
// before the first kernel call pins dispatch to the portable scalar table —
// the knob the forced-scalar ctest matrix and cross-ISA debugging use.
// docs/PERFORMANCE.md documents the dispatch table and measured speedups.

// Dispatch levels, exported through the kernels/dispatch_level gauge.
inline constexpr int kLevelScalar = 0;
inline constexpr int kLevelAvx2 = 2;  // AVX2 + FMA

// One ISA level's implementation of every microkernel. All pointers are
// non-null in every table. Buffers may be unaligned; x/y/out must not alias
// unless a kernel says otherwise.
struct KernelTable {
  const char* name;  // "scalar" or "avx2"
  int level;         // kLevelScalar / kLevelAvx2

  // y[i] += alpha * x[i] for i in [0, n).
  void (*axpy)(size_t n, float alpha, const float* x, float* y);

  // y[i] += a0 * x0[i] + a1 * x1[i] — one pass over y; the 2-way unrolled
  // rank-1 update used by the SpMM gather and GEMM inner loops to halve the
  // y load/store traffic.
  void (*axpy2)(size_t n, float a0, const float* x0, float a1,
                const float* x1, float* y);

  // Gemm's NN and TN modes over `rows` consecutive output rows:
  //   out[r * ldo + j] += sum_kk (alpha * a[r * a_row + kk * a_k]) *
  //                       b[kk * ldb + j]                (r < rows, j < n)
  // Every output element goes through exactly the float operations of the
  // call sequence axpy2(n, alpha * a_kk, b_kk, alpha * a_kk+1, b_kk+1,
  // out_row) for kk = 0, 2, ..., then axpy for an odd last kk. The rows
  // just stay in registers across k, where those calls make a memory round
  // trip (and an indirect call) per pair, and a block of rows shares each
  // load of b.
  void (*gemm_rows)(size_t rows, size_t n, size_t k, float alpha,
                    const float* a, size_t a_row, size_t a_k, const float* b,
                    size_t ldb, float* out, size_t ldo);

  // Returns sum_i a[i] * b[i].
  float (*dot)(size_t n, const float* a, const float* b);

  // x[i] *= alpha.
  void (*scale)(size_t n, float alpha, float* x);

  // Returns max_i x[i]; n must be >= 1. Feeds the top-K block fast-reject.
  float (*reduce_max)(size_t n, const float* x);

  // Fused scoring GEMV over `items` consecutive d-dim rows starting at
  // `item_rows` (row-major, stride d):
  //   out[j] = dot(u, item_rows + j*d) + (bias != nullptr ? bias[j] : 0)
  // Returns the maximum score of the block (-FLT_MAX when items == 0) so
  // serving can reject a whole block against the current top-K threshold
  // without a second pass.
  float (*score_block)(size_t items, size_t d, const float* u,
                       const float* item_rows, const float* bias, float* out);
};

// The table every hot path uses. Resolved exactly once per process from
// CPUID + HOSR_FORCE_SCALAR; afterwards this is a single atomic load.
// Publishes the chosen level through the kernels/dispatch_level gauge.
const KernelTable& Active();

// The portable scalar table; always available, bit-reproducible anywhere.
const KernelTable& Scalar();

// The best table this CPU supports, ignoring HOSR_FORCE_SCALAR. Tests
// compare Best() against Scalar() for numerical agreement.
const KernelTable& Best();

// True when HOSR_FORCE_SCALAR pinned dispatch to the scalar table.
bool ForcedScalar();

// Test-only: overrides Active() (nullptr restores normal resolution).
// Production dispatch stays fixed for the process lifetime; this hook exists
// so one test process can run a workload under both tables and compare.
void SetActiveForTesting(const KernelTable* table);

}  // namespace hosr::kernels

#endif  // HOSR_KERNELS_KERNELS_H_
