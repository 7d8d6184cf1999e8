// Tests for hosr::kernels: dispatch resolution, SIMD-vs-scalar numerical
// agreement across shapes that exercise every remainder lane, and
// end-to-end ranking agreement between dispatch modes (one training epoch +
// ScoreAllItems). The whole file also runs under HOSR_FORCE_SCALAR=1 via
// the kernels_test_forced_scalar ctest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/hosr.h"
#include "data/synthetic.h"
#include "eval/topk.h"
#include "kernels/kernels.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "util/logging.h"
#include "util/random.h"

namespace hosr::kernels {
namespace {

// Dimensions that hit: sub-lane (1, 3, 7), exact one lane (8), one lane +
// remainder (9), odd multi-lane (31), the d=64 serving sweet spot, and a
// 16-unrolled + 8-lane + scalar-tail mix (100).
const size_t kDims[] = {1, 3, 7, 8, 9, 31, 64, 100};

std::vector<float> RandomVec(size_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

void ExpectRelClose(float expected, float actual, const char* what, size_t d) {
  const double mag =
      std::max(std::fabs(static_cast<double>(expected)),
               std::fabs(static_cast<double>(actual)));
  EXPECT_NEAR(expected, actual, 1e-5 * std::max(1.0, mag))
      << what << " at d=" << d;
}

bool SimdAvailable() { return Best().level != kLevelScalar; }

TEST(KernelDispatchTest, TablesAreComplete) {
  for (const KernelTable* t : {&Scalar(), &Best(), &Active()}) {
    EXPECT_NE(t->name, nullptr);
    EXPECT_NE(t->axpy, nullptr);
    EXPECT_NE(t->axpy2, nullptr);
    EXPECT_NE(t->gemm_rows, nullptr);
    EXPECT_NE(t->dot, nullptr);
    EXPECT_NE(t->scale, nullptr);
    EXPECT_NE(t->reduce_max, nullptr);
    EXPECT_NE(t->score_block, nullptr);
  }
  EXPECT_EQ(Scalar().level, kLevelScalar);
  EXPECT_STREQ(Scalar().name, "scalar");
}

TEST(KernelDispatchTest, ActiveHonorsForceScalar) {
  if (ForcedScalar()) {
    EXPECT_EQ(Active().level, kLevelScalar)
        << "HOSR_FORCE_SCALAR set but Active() is " << Active().name;
  } else {
    EXPECT_EQ(Active().level, Best().level);
  }
}

TEST(KernelDispatchTest, DispatchLevelGaugeMatchesActive) {
  const KernelTable& active = Active();
  EXPECT_EQ(HOSR_GAUGE("kernels/dispatch_level").Get(),
            static_cast<double>(active.level));
}

TEST(KernelDispatchTest, SetActiveForTestingOverridesAndRestores) {
  const int normal_level = Active().level;
  SetActiveForTesting(&Scalar());
  EXPECT_EQ(Active().level, kLevelScalar);
  EXPECT_EQ(HOSR_GAUGE("kernels/dispatch_level").Get(), 0.0);
  SetActiveForTesting(nullptr);
  EXPECT_EQ(Active().level, normal_level);
}

// --- SIMD vs scalar agreement ------------------------------------------------

TEST(KernelEquivalenceTest, Axpy) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(101);
  for (const size_t d : kDims) {
    const auto x = RandomVec(d, &rng);
    const auto y0 = RandomVec(d, &rng);
    auto ys = y0, yb = y0;
    Scalar().axpy(d, 0.37f, x.data(), ys.data());
    Best().axpy(d, 0.37f, x.data(), yb.data());
    for (size_t i = 0; i < d; ++i) ExpectRelClose(ys[i], yb[i], "axpy", d);
  }
}

TEST(KernelEquivalenceTest, Axpy2) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(102);
  for (const size_t d : kDims) {
    const auto x0 = RandomVec(d, &rng);
    const auto x1 = RandomVec(d, &rng);
    const auto y0 = RandomVec(d, &rng);
    auto ys = y0, yb = y0;
    Scalar().axpy2(d, -1.1f, x0.data(), 0.63f, x1.data(), ys.data());
    Best().axpy2(d, -1.1f, x0.data(), 0.63f, x1.data(), yb.data());
    for (size_t i = 0; i < d; ++i) ExpectRelClose(ys[i], yb[i], "axpy2", d);
  }
}

TEST(KernelEquivalenceTest, Dot) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(103);
  for (const size_t d : kDims) {
    const auto a = RandomVec(d, &rng);
    const auto b = RandomVec(d, &rng);
    ExpectRelClose(Scalar().dot(d, a.data(), b.data()),
                   Best().dot(d, a.data(), b.data()), "dot", d);
  }
}

TEST(KernelEquivalenceTest, Scale) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(104);
  for (const size_t d : kDims) {
    const auto x0 = RandomVec(d, &rng);
    auto xs = x0, xb = x0;
    Scalar().scale(d, -2.5f, xs.data());
    Best().scale(d, -2.5f, xb.data());
    // Element-wise multiply has no reduction: exact equality.
    EXPECT_EQ(xs, xb) << "scale at d=" << d;
  }
}

TEST(KernelEquivalenceTest, ReduceMax) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(105);
  for (const size_t d : kDims) {
    const auto x = RandomVec(d, &rng);
    // Max selects an existing element: exact equality.
    EXPECT_EQ(Scalar().reduce_max(d, x.data()), Best().reduce_max(d, x.data()))
        << "reduce_max at d=" << d;
  }
}

TEST(KernelEquivalenceTest, ScoreBlock) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(106);
  for (const size_t d : kDims) {
    // Odd and even item counts exercise the paired loop and its remainder.
    for (const size_t items : {1u, 2u, 3u, 8u}) {
      const auto u = RandomVec(d, &rng);
      const auto rows = RandomVec(items * d, &rng);
      const auto bias = RandomVec(items, &rng);
      for (const bool with_bias : {false, true}) {
        std::vector<float> out_s(items), out_b(items);
        const float* bias_ptr = with_bias ? bias.data() : nullptr;
        const float max_s = Scalar().score_block(items, d, u.data(),
                                                 rows.data(), bias_ptr,
                                                 out_s.data());
        const float max_b = Best().score_block(items, d, u.data(), rows.data(),
                                               bias_ptr, out_b.data());
        for (size_t j = 0; j < items; ++j) {
          ExpectRelClose(out_s[j], out_b[j], "score_block", d);
        }
        ExpectRelClose(max_s, max_b, "score_block max", d);
        EXPECT_EQ(max_s, *std::max_element(out_s.begin(), out_s.end()));
        EXPECT_EQ(max_b, *std::max_element(out_b.begin(), out_b.end()));
      }
    }
  }
}

TEST(KernelEquivalenceTest, ScoreBlockMatchesDotExactly) {
  // Within one table, the blocked scoring path must replay the dot
  // kernel's reduction order bit-for-bit — the serving bit-identity
  // contract (ModelSnapshot::Score and tensor::Gemm use dot; the engine
  // scan uses score_block).
  util::Rng rng(107);
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    for (const size_t d : kDims) {
      const size_t items = 5;
      const auto u = RandomVec(d, &rng);
      const auto rows = RandomVec(items * d, &rng);
      std::vector<float> out(items);
      t->score_block(items, d, u.data(), rows.data(), nullptr, out.data());
      for (size_t j = 0; j < items; ++j) {
        EXPECT_EQ(out[j], t->dot(d, u.data(), rows.data() + j * d))
            << t->name << " d=" << d << " item " << j;
      }
    }
  }
}

TEST(KernelEquivalenceTest, GemmRowsReplaysAxpy2ChainExactly) {
  // Within one table, gemm_rows must be byte-equal to the axpy2/axpy call
  // sequence it replaces: row counts with and without a leftover after the
  // 4-row blocks, widths that reach every register block and scalar tail,
  // depths odd and even, and a stored both row-major (NN) and transposed
  // (TN).
  util::Rng rng(113);
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    for (const size_t rows : {1, 4, 7}) {
      for (const size_t n : {1, 6, 8, 27, 64, 100, 200}) {
        for (const size_t k : {1, 6, 8, 27, 64}) {
          for (const bool transposed : {false, true}) {
            const size_t a_row = transposed ? 1 : k;
            const size_t a_k = transposed ? rows : 1;
            const float alpha = transposed ? -0.75f : 1.0f;
            const auto a = RandomVec(rows * k, &rng);
            const auto b = RandomVec(k * n, &rng);
            const auto init = RandomVec(rows * n, &rng);
            std::vector<float> expected = init;
            for (size_t r = 0; r < rows; ++r) {
              const float* ar = a.data() + r * a_row;
              float* out = expected.data() + r * n;
              size_t kk = 0;
              for (; kk + 2 <= k; kk += 2) {
                t->axpy2(n, alpha * ar[kk * a_k], b.data() + kk * n,
                         alpha * ar[(kk + 1) * a_k], b.data() + (kk + 1) * n,
                         out);
              }
              if (kk < k) {
                t->axpy(n, alpha * ar[kk * a_k], b.data() + kk * n, out);
              }
            }
            std::vector<float> actual = init;
            t->gemm_rows(rows, n, k, alpha, a.data(), a_row, a_k, b.data(),
                         n, actual.data(), n);
            EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                                     rows * n * sizeof(float)))
                << t->name << " rows=" << rows << " n=" << n << " k=" << k
                << " transposed=" << transposed;
          }
        }
      }
    }
  }
}

// --- End-to-end: both dispatch modes rank identically ------------------------

class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelTable* table) {
    SetActiveForTesting(table);
  }
  ~ScopedKernelOverride() { SetActiveForTesting(nullptr); }
};

const data::Dataset& E2eDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "kernels-e2e";
    config.num_users = 80;
    config.num_items = 120;
    config.avg_interactions_per_user = 8;
    config.avg_relations_per_user = 5;
    config.seed = 1234;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

tensor::Matrix TrainOneEpochAndScore(const KernelTable* table) {
  ScopedKernelOverride override_guard(table);
  const data::Dataset& dataset = E2eDataset();
  core::Hosr::Config config;
  config.embedding_dim = 16;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 31;
  core::Hosr model(dataset, config);
  models::TrainConfig train_config;
  train_config.epochs = 1;
  train_config.batch_size = 64;
  train_config.learning_rate = 0.01f;
  train_config.seed = 7;
  models::BprTrainer trainer(&model, &dataset.interactions, train_config);
  trainer.Train();
  std::vector<uint32_t> users(dataset.num_users());
  std::iota(users.begin(), users.end(), 0);
  return model.ScoreAllItems(users);
}

TEST(KernelEndToEndTest, EpochAndScoreAllItemsRankIdenticallyBothModes) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  const tensor::Matrix scalar_scores = TrainOneEpochAndScore(&Scalar());
  const tensor::Matrix simd_scores = TrainOneEpochAndScore(&Best());
  ASSERT_TRUE(scalar_scores.SameShape(simd_scores));

  const data::Dataset& dataset = E2eDataset();
  for (uint32_t u = 0; u < dataset.num_users(); ++u) {
    const auto& seen = dataset.interactions.ItemsOf(u);
    EXPECT_EQ(eval::TopK(scalar_scores.row(u), dataset.num_items(), 10, seen),
              eval::TopK(simd_scores.row(u), dataset.num_items(), 10, seen))
        << "user " << u;
    for (uint32_t j = 0; j < dataset.num_items(); ++j) {
      const float a = scalar_scores(u, j);
      const float b = simd_scores(u, j);
      const double mag = std::max(std::fabs(static_cast<double>(a)),
                                  std::fabs(static_cast<double>(b)));
      ASSERT_NEAR(a, b, 1e-3 * std::max(1.0, mag))
          << "user " << u << " item " << j;
    }
  }
}

}  // namespace
}  // namespace hosr::kernels
