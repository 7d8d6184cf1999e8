// Training engine suite (docs/PERFORMANCE.md "Parallel training"): every
// model's trajectory must be BIT-identical for every worker count and
// slice size, and equal to the golden digests recorded from the original
// sequential loop — proven by byte-comparing full training states (params
// + optimizer state + RNG streams) after multi-epoch runs — plus the
// row-sparse optimizer path, prefetcher shutdown/sequence contracts,
// kill-and-resume across differing thread counts, and the config bounds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/hosr_gat.h"
#include "core/hosr_joint.h"
#include "core/model_zoo.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "models/trainer.h"
#include "optim/optimizer.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace hosr {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

const data::Dataset& TestDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "trainer-parallel-test";
    config.num_users = 60;
    config.num_items = 80;
    config.avg_interactions_per_user = 8;
    config.avg_relations_per_user = 5;
    config.seed = 91;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

using ModelFactory = std::function<std::unique_ptr<models::RankingModel>()>;

ModelFactory ZooFactory(const std::string& name, float hosr_dropout = 0.2f) {
  return [name, hosr_dropout] {
    core::ZooConfig zoo;
    zoo.embedding_dim = 6;
    zoo.hosr_layers = 2;
    zoo.hosr_graph_dropout = hosr_dropout;
    auto model = core::MakeModel(name, TestDataset(), zoo);
    HOSR_CHECK(model.ok()) << model.status();
    return std::move(model).value();
  };
}

// HOSR-GAT / HOSR-Joint at the zoo test sizes.
template <typename Model>
ModelFactory ExtensionFactory() {
  return [] {
    typename Model::Config c;
    c.embedding_dim = 6;
    c.num_layers = 2;
    c.graph_dropout = 0.2f;
    return std::make_unique<Model>(TestDataset(), c);
  };
}

models::TrainConfig BaseConfig() {
  models::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 48;
  config.learning_rate = 0.01f;
  config.weight_decay = 0.001f;
  config.seed = 5;
  return config;
}

// Trains a freshly built model to config.epochs and returns the raw bytes
// of its saved training state — the strongest equality oracle the trainer
// has (parameters, optimizer state, and both RNG streams).
std::string TrainedStateBytes(const ModelFactory& factory,
                              const models::TrainConfig& config,
                              const std::string& tag) {
  auto model = factory();
  models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                             config);
  trainer.Train();
  const std::string path = TempPath("hosr_ptrain_" + tag);
  HOSR_CHECK(trainer.SaveTrainingState(path).ok());
  std::string bytes = ReadRaw(path);
  std::remove(path.c_str());
  HOSR_CHECK(!bytes.empty());
  return bytes;
}

// --- bit-identity across worker counts ---------------------------------------

// Every trainable model — the zoo, HOSR with heavier graph dropout, and
// the two HOSR extensions — with the CRC-32 of its training state after
// BaseConfig() training, recorded from the original sequential loop (one
// single-tape loss per batch) before the engine became the only trainer
// path. Keyed by kernel dispatch level: AVX2 and scalar kernels reduce in
// different orders.
struct GoldenModel {
  std::string name;
  ModelFactory factory;
  uint32_t avx2_digest;
  uint32_t scalar_digest;
};

std::vector<GoldenModel> GoldenModels() {
  return {
      {"BPR", ZooFactory("BPR"), 0xc976a310u, 0x582dd1f8u},
      {"NCF", ZooFactory("NCF"), 0x4e3375b8u, 0xb887e699u},
      {"TrustSVD", ZooFactory("TrustSVD"), 0xef7f6418u, 0x4d78220fu},
      {"NSCR", ZooFactory("NSCR"), 0x32e6dcc1u, 0x6cdd9414u},
      {"IF-BPR+", ZooFactory("IF-BPR+"), 0x4c60a6c1u, 0xa11f1f02u},
      {"DeepInf", ZooFactory("DeepInf"), 0xb9f92f23u, 0xc0b56be7u},
      {"HOSR", ZooFactory("HOSR"), 0x750392eeu, 0x9d0858e2u},
      {"HOSR/graph_dropout=0.3", ZooFactory("HOSR", 0.3f), 0x3e199db6u,
       0xd058d082u},
      {"HOSR-GAT", ExtensionFactory<core::HosrGat>(), 0xa031e085u,
       0x9e35fefbu},
      {"HOSR-Joint", ExtensionFactory<core::HosrJoint>(), 0xba1f9464u,
       0x5f57a32du},
  };
}

std::string Hex(uint32_t v) { return util::StrFormat("0x%08xu", v); }

// CRC-32 of a training-state file's body: the value its own footer holds
// (a CRC over body + footer would be the constant CRC residue).
uint32_t StateDigest(const std::string& state_bytes) {
  return util::Crc32(
      std::string_view(state_bytes.data(), state_bytes.size() - 4));
}

// Number of body bytes (CRC footer excluded) at which two equally long
// training states differ.
size_t DifferingBodyBytes(const std::string& a, const std::string& b) {
  HOSR_CHECK(a.size() == b.size() && a.size() > 4);
  size_t differing = 0;
  for (size_t i = 0; i + 4 < a.size(); ++i) differing += a[i] != b[i];
  return differing;
}

TEST(ParallelTrainerTest, EverySlicedModelBitIdenticalAcrossThreads) {
  const bool avx2 = kernels::Active().level == kernels::kLevelAvx2;
  for (const auto& [name, factory, avx2_digest, scalar_digest] :
       GoldenModels()) {
    models::TrainConfig config = BaseConfig();
    const std::string one_worker = TrainedStateBytes(factory, config, "m_t1");
    EXPECT_EQ(Hex(avx2 ? avx2_digest : scalar_digest),
              Hex(StateDigest(one_worker)))
        << name << " moved off its recorded training trajectory";
    config.train_threads = 3;
    config.slice_size = 7;  // ragged slices
    EXPECT_EQ(one_worker, TrainedStateBytes(factory, config, "m_t3"))
        << name << " diverged at 3 workers with ragged slices";
    config.slice_size = 1024;  // one slice spanning the whole batch
    EXPECT_EQ(one_worker, TrainedStateBytes(factory, config, "m_t3wide"))
        << name << " diverged at 3 workers with one slice";
  }
}

// --- sparse optimizer steps --------------------------------------------------

TEST(ParallelTrainerTest, SparseStepsThreadInvariantAcrossModels) {
  // BPR's sparse plan skips untouched rows, so with weight_decay > 0 lazy
  // decay makes a genuinely different (and legitimate) run. NCF and NSCR
  // build their whole loss on the shared tape: every parameter is a dense
  // leaf there, the plan steps each one densely, and the state differs
  // from the dense-step one only in the config block's sparse_steps byte.
  for (const auto& [name, lazy_decay] :
       {std::pair{"BPR", true}, {"NCF", false}, {"NSCR", false}}) {
    const ModelFactory factory = ZooFactory(name);
    models::TrainConfig config = BaseConfig();
    const std::string dense = TrainedStateBytes(factory, config, "dense");
    config.sparse_steps = true;
    const std::string sparse1 = TrainedStateBytes(factory, config, "sp1");
    config.train_threads = 4;
    config.slice_size = 9;
    EXPECT_EQ(sparse1, TrainedStateBytes(factory, config, "sp4"))
        << name << " sparse-step trajectory depends on worker count";
    if (lazy_decay) {
      EXPECT_GT(DifferingBodyBytes(dense, sparse1), 1u)
          << name << " sparse steps with nonzero decay matched dense steps";
    } else {
      EXPECT_EQ(DifferingBodyBytes(dense, sparse1), 1u)
          << name << " sparse steps moved off the dense-step trajectory";
    }
  }
}

TEST(SparseOptimizerTest, DenseRowPlanMatchesStepBitwise) {
  for (const std::string name : {"sgd", "rmsprop", "adam", "adagrad"}) {
    util::Rng rng(77);
    autograd::ParamStore store_a;
    autograd::ParamStore store_b;
    autograd::Param* a = store_a.CreateGaussian("p", 5, 3, 1.0f, &rng);
    autograd::Param* b = store_b.Create("p", 5, 3);
    b->value = a->value;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      a->grad.data()[i] = 0.25f * static_cast<float>(i) - 1.5f;
    }
    b->grad = a->grad;

    auto opt_a = optim::MakeOptimizer(name, 0.05f, 0.01f);
    auto opt_b = optim::MakeOptimizer(name, 0.05f, 0.01f);
    std::vector<optim::RowSet> plan(1);
    plan[0].dense = true;
    for (int step = 0; step < 3; ++step) {
      opt_a->Step(&store_a);
      opt_b->StepRows(&store_b, plan);
    }
    for (size_t i = 0; i < a->value.size(); ++i) {
      ASSERT_EQ(a->value.data()[i], b->value.data()[i])
          << name << " dense StepRows != Step at element " << i;
    }
  }
}

TEST(SparseOptimizerTest, PartialPlanUpdatesOnlySelectedRows) {
  for (const std::string name : {"sgd", "rmsprop", "adam", "adagrad"}) {
    util::Rng rng(78);
    autograd::ParamStore store_a;
    autograd::ParamStore store_b;
    autograd::Param* a = store_a.CreateGaussian("p", 6, 2, 1.0f, &rng);
    autograd::Param* b = store_b.Create("p", 6, 2);
    b->value = a->value;
    const tensor::Matrix original = a->value;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      a->grad.data()[i] = 0.1f * static_cast<float>(i + 1);
    }
    b->grad = a->grad;

    auto opt_a = optim::MakeOptimizer(name, 0.05f, 0.01f);
    auto opt_b = optim::MakeOptimizer(name, 0.05f, 0.01f);
    opt_a->Step(&store_a);
    std::vector<optim::RowSet> plan(1);
    plan[0].rows = {1, 4};
    opt_b->StepRows(&store_b, plan);

    for (size_t r = 0; r < 6; ++r) {
      for (size_t c = 0; c < 2; ++c) {
        if (r == 1 || r == 4) {
          // A planned row steps exactly as the dense step would (the
          // per-row arithmetic is shared).
          ASSERT_EQ(b->value(r, c), a->value(r, c))
              << name << " touched row " << r << " differs from dense step";
        } else {
          // An unplanned row is untouched: no update, no (lazy) decay.
          ASSERT_EQ(b->value(r, c), original(r, c))
              << name << " untouched row " << r << " moved";
        }
      }
    }

    // An empty-rows plan must be a no-op for the parameter.
    std::vector<optim::RowSet> empty_plan(1);
    const tensor::Matrix before = b->value;
    opt_b->StepRows(&store_b, empty_plan);
    for (size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(b->value.data()[i], before.data()[i])
          << name << " empty plan changed values";
    }
  }
}

// --- batch prefetcher --------------------------------------------------------

TEST(BatchPrefetcherTest, DeliversTheSynchronousSequence) {
  const auto& interactions = TestDataset().interactions;
  data::BprSampler plain(&interactions, 1234);
  data::BprSampler prefetched(&interactions, 1234);
  const size_t kBatches = 7;
  data::BatchPrefetcher prefetcher(&prefetched, 32, kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    const data::BprBatch expected = plain.SampleBatch(32);
    const data::BprBatch got = prefetcher.Next();
    ASSERT_EQ(expected.users, got.users) << "batch " << b;
    ASSERT_EQ(expected.pos_items, got.pos_items) << "batch " << b;
    ASSERT_EQ(expected.neg_items, got.neg_items) << "batch " << b;
  }
  // Having drawn exactly the epoch's batches, the RNG states agree — the
  // property that keeps checkpoints bit-identical under prefetch.
  EXPECT_EQ(plain.rng_state().s[0], prefetched.rng_state().s[0]);
  EXPECT_EQ(plain.rng_state().s[3], prefetched.rng_state().s[3]);
}

TEST(BatchPrefetcherTest, DestructionWithUnconsumedBatchesDoesNotDeadlock) {
  const auto& interactions = TestDataset().interactions;
  data::BprSampler sampler(&interactions, 99);
  {
    data::BatchPrefetcher prefetcher(&sampler, 16, 100);
    (void)prefetcher.Next();  // consume 1 of 100, then destroy
  }
  {
    data::BatchPrefetcher untouched(&sampler, 16, 100);
  }  // consume none at all
  SUCCEED();
}

// --- resume across thread counts ---------------------------------------------

TEST(ParallelTrainerTest, ResumeSwitchingThreadCountsStaysBitIdentical) {
  const ModelFactory factory = ZooFactory("BPR");
  models::TrainConfig config = BaseConfig();
  config.epochs = 3;

  config.train_threads = 2;
  config.slice_size = 16;
  const std::string straight =
      TrainedStateBytes(factory, config, "straight");

  // Interrupted run: one epoch on one worker, checkpoint, then resume on a
  // different thread count (train_threads is deliberately outside the
  // checkpoint's config identity).
  const std::string state_path = TempPath("hosr_ptrain_resume_state");
  {
    models::TrainConfig first = config;
    first.train_threads = 1;
    auto model = factory();
    models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                               first);
    trainer.RunEpoch();
    ASSERT_TRUE(trainer.SaveTrainingState(state_path).ok());
  }
  {
    models::TrainConfig rest = config;
    rest.train_threads = 4;
    rest.slice_size = 9;
    auto model = factory();
    models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                               rest);
    ASSERT_TRUE(trainer.RestoreTrainingState(state_path).ok());
    EXPECT_EQ(trainer.epoch(), 1u);
    trainer.Train();
    ASSERT_TRUE(trainer.SaveTrainingState(state_path).ok());
  }
  EXPECT_EQ(straight, ReadRaw(state_path))
      << "kill-and-resume across thread counts diverged";
  std::remove(state_path.c_str());
}

TEST(ParallelTrainerTest, SparseStepsIsPartOfCheckpointIdentity) {
  const ModelFactory factory = ZooFactory("BPR");
  models::TrainConfig config = BaseConfig();
  config.sparse_steps = true;

  const std::string state_path = TempPath("hosr_ptrain_sparse_state");
  {
    auto model = factory();
    models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                               config);
    trainer.RunEpoch();
    ASSERT_TRUE(trainer.SaveTrainingState(state_path).ok());
  }
  // Restoring a sparse-step checkpoint into a dense-step trainer must be
  // refused: lazy decay makes them different trajectories.
  models::TrainConfig dense = config;
  dense.sparse_steps = false;
  auto model = factory();
  models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                             dense);
  const util::Status status = trainer.RestoreTrainingState(state_path);
  EXPECT_FALSE(status.ok());
  std::remove(state_path.c_str());
}

// --- config bounds + stats ---------------------------------------------------

TEST(ParallelTrainerTest, ValidateBoundsTrainThreads) {
  models::TrainConfig config = BaseConfig();
  config.train_threads = 0;  // hardware
  EXPECT_TRUE(config.Validate().ok());
  config.train_threads = models::kMaxTrainThreads;
  EXPECT_TRUE(config.Validate().ok());
  config.train_threads = models::kMaxTrainThreads + 1;
  EXPECT_FALSE(config.Validate().ok());
  // What a negative flag value used to wrap to.
  config.train_threads = static_cast<uint32_t>(-1);
  EXPECT_EQ(config.Validate().code(), util::StatusCode::kInvalidArgument);
}

TEST(ParallelTrainerTest, EpochStatsCountActuallySampledTriples) {
  const ModelFactory factory = ZooFactory("BPR");
  models::TrainConfig config = BaseConfig();
  config.epochs = 1;
  config.train_threads = 2;
  auto model = factory();
  models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                             config);
  const models::EpochStats stats = trainer.RunEpoch();
  EXPECT_EQ(stats.samples, stats.batches * config.batch_size)
      << "samples must sum the actual batch sizes";
  EXPECT_GT(stats.batches, 0u);
  if (stats.seconds > 0.0) {
    EXPECT_NEAR(stats.samples_per_sec,
                static_cast<double>(stats.samples) / stats.seconds,
                1e-9 * stats.samples_per_sec + 1e-9);
  }
}

}  // namespace
}  // namespace hosr
