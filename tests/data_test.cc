#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "data/dataset.h"
#include "data/interactions.h"
#include "data/io.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "graph/stats.h"
#include "temp_path_test_util.h"

namespace hosr::data {
namespace {

InteractionMatrix MakeMatrix(uint32_t users, uint32_t items,
                             std::vector<Interaction> list) {
  auto result = InteractionMatrix::FromInteractions(users, items,
                                                    std::move(list));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// --- InteractionMatrix -------------------------------------------------------

TEST(InteractionMatrixTest, BasicProperties) {
  const auto m =
      MakeMatrix(3, 5, {{0, 1}, {0, 3}, {2, 4}, {2, 4}});  // dup collapses
  EXPECT_EQ(m.num_users(), 3u);
  EXPECT_EQ(m.num_items(), 5u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.ItemsOf(0), (std::vector<uint32_t>{1, 3}));
  EXPECT_TRUE(m.ItemsOf(1).empty());
  EXPECT_TRUE(m.Contains(2, 4));
  EXPECT_FALSE(m.Contains(2, 3));
}

TEST(InteractionMatrixTest, RejectsOutOfRange) {
  EXPECT_FALSE(
      InteractionMatrix::FromInteractions(2, 2, {{0, 5}}).ok());
  EXPECT_FALSE(
      InteractionMatrix::FromInteractions(2, 2, {{3, 0}}).ok());
}

TEST(InteractionMatrixTest, DensityAndAverages) {
  const auto m = MakeMatrix(2, 10, {{0, 0}, {0, 1}, {1, 2}, {1, 3}});
  EXPECT_DOUBLE_EQ(m.Density(), 4.0 / 20.0);
  EXPECT_DOUBLE_EQ(m.AvgInteractionsPerUser(), 2.0);
}

TEST(InteractionMatrixTest, ItemIndexInverts) {
  const auto m = MakeMatrix(3, 3, {{0, 1}, {1, 1}, {2, 0}});
  const auto index = m.BuildItemIndex();
  EXPECT_EQ(index[1], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index[0], (std::vector<uint32_t>{2}));
  EXPECT_TRUE(index[2].empty());
}

TEST(InteractionMatrixTest, ToListUserMajor) {
  const auto m = MakeMatrix(2, 3, {{1, 0}, {0, 2}, {0, 1}});
  const auto list = m.ToList();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], (Interaction{0, 1}));
  EXPECT_EQ(list[1], (Interaction{0, 2}));
  EXPECT_EQ(list[2], (Interaction{1, 0}));
}

// --- Dataset / Split ----------------------------------------------------------

Dataset SmallDataset() {
  Dataset d;
  d.name = "small";
  d.interactions = MakeMatrix(
      4, 6, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4},
             {1, 1}, {1, 2}, {1, 3}, {2, 0}, {2, 5}, {3, 4}});
  auto social = graph::SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(social.ok());
  d.social = std::move(social).value();
  return d;
}

TEST(DatasetTest, SummaryMatchesTable2Fields) {
  const Dataset d = SmallDataset();
  const auto s = d.Summarize();
  EXPECT_EQ(s.num_users, 4u);
  EXPECT_EQ(s.num_items, 6u);
  EXPECT_EQ(s.num_interactions, 11u);
  EXPECT_EQ(s.num_social_edges, 3u);
  EXPECT_DOUBLE_EQ(s.interaction_density, 11.0 / 24.0);
  EXPECT_DOUBLE_EQ(s.avg_interactions, 11.0 / 4.0);
  EXPECT_DOUBLE_EQ(s.avg_relations, 6.0 / 4.0);
}

TEST(SplitTest, PartitionsWithoutOverlapOrLoss) {
  const Dataset d = SmallDataset();
  util::Rng rng(1);
  const auto split = SplitDataset(d, 0.2, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.interactions.nnz() + split->test.nnz(),
            d.interactions.nnz());
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    for (const uint32_t item : split->test.ItemsOf(u)) {
      EXPECT_FALSE(split->train.interactions.Contains(u, item));
      EXPECT_TRUE(d.interactions.Contains(u, item));
    }
  }
}

TEST(SplitTest, EveryUserKeepsATrainInteraction) {
  const Dataset d = SmallDataset();
  util::Rng rng(2);
  const auto split = SplitDataset(d, 0.5, &rng);
  ASSERT_TRUE(split.ok());
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    if (!d.interactions.ItemsOf(u).empty()) {
      EXPECT_FALSE(split->train.interactions.ItemsOf(u).empty()) << u;
    }
  }
}

TEST(SplitTest, FractionApproximatelyRespected) {
  data::SyntheticConfig config;
  config.num_users = 300;
  config.num_items = 400;
  config.avg_interactions_per_user = 20;
  config.avg_relations_per_user = 8;
  const auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  util::Rng rng(3);
  const auto split = SplitDataset(*dataset, 0.2, &rng);
  ASSERT_TRUE(split.ok());
  const double test_fraction = static_cast<double>(split->test.nnz()) /
                               dataset->interactions.nnz();
  EXPECT_NEAR(test_fraction, 0.2, 0.05);
}

TEST(SplitTest, RejectsBadFraction) {
  const Dataset d = SmallDataset();
  util::Rng rng(4);
  EXPECT_FALSE(SplitDataset(d, 0.0, &rng).ok());
  EXPECT_FALSE(SplitDataset(d, 1.0, &rng).ok());
  EXPECT_FALSE(SplitDataset(d, -0.3, &rng).ok());
}

TEST(SplitTest, SocialGraphPreserved) {
  const Dataset d = SmallDataset();
  util::Rng rng(5);
  const auto split = SplitDataset(d, 0.2, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.social.num_edges(), d.social.num_edges());
}

// --- BprSampler ---------------------------------------------------------------

TEST(BprSamplerTest, TriplesAreValid) {
  const Dataset d = SmallDataset();
  BprSampler sampler(&d.interactions, 7);
  const BprBatch batch = sampler.SampleBatch(200);
  ASSERT_EQ(batch.size(), 200u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(d.interactions.Contains(batch.users[i], batch.pos_items[i]));
    EXPECT_FALSE(d.interactions.Contains(batch.users[i], batch.neg_items[i]));
  }
}

TEST(BprSamplerTest, CoversAllPositives) {
  const Dataset d = SmallDataset();
  BprSampler sampler(&d.interactions, 8);
  EXPECT_EQ(sampler.num_positives(), d.interactions.nnz());
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (int i = 0; i < 50; ++i) {
    const BprBatch batch = sampler.SampleBatch(32);
    for (size_t b = 0; b < batch.size(); ++b) {
      seen.emplace(batch.users[b], batch.pos_items[b]);
    }
  }
  EXPECT_EQ(seen.size(), d.interactions.nnz());
}

TEST(BprSamplerTest, DeterministicForSeed) {
  const Dataset d = SmallDataset();
  BprSampler a(&d.interactions, 9);
  BprSampler b(&d.interactions, 9);
  const BprBatch ba = a.SampleBatch(64);
  const BprBatch bb = b.SampleBatch(64);
  EXPECT_EQ(ba.users, bb.users);
  EXPECT_EQ(ba.pos_items, bb.pos_items);
  EXPECT_EQ(ba.neg_items, bb.neg_items);
}

// --- Synthetic generator ---------------------------------------------------------

TEST(SyntheticTest, ValidatesConfig) {
  SyntheticConfig config;
  config.num_users = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = SyntheticConfig();
  config.avg_interactions_per_user = 1e9;
  EXPECT_FALSE(config.Validate().ok());
  config = SyntheticConfig();
  config.social_blend = 1.5f;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(SyntheticConfig().Validate().ok());
}

TEST(SyntheticTest, EveryUserHasInteractionAndRelation) {
  SyntheticConfig config;
  config.num_users = 400;
  config.num_items = 500;
  config.avg_interactions_per_user = 10;
  config.avg_relations_per_user = 6;
  const auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  for (uint32_t u = 0; u < dataset->num_users(); ++u) {
    EXPECT_FALSE(dataset->interactions.ItemsOf(u).empty()) << u;
    EXPECT_GE(dataset->social.Degree(u), 1u) << u;
  }
}

TEST(SyntheticTest, HitsTargetAverages) {
  SyntheticConfig config;
  config.num_users = 1000;
  config.num_items = 1500;
  config.avg_interactions_per_user = 16;
  config.avg_relations_per_user = 12;
  const auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  const auto s = dataset->Summarize();
  EXPECT_NEAR(s.avg_interactions, 16.0, 4.0);
  EXPECT_NEAR(s.avg_relations, 12.0, 3.0);
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.num_users = 200;
  config.num_items = 300;
  config.avg_interactions_per_user = 8;
  config.avg_relations_per_user = 6;
  const auto a = GenerateSynthetic(config);
  const auto b = GenerateSynthetic(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->interactions.nnz(), b->interactions.nnz());
  EXPECT_EQ(a->social.EdgeList(), b->social.EdgeList());
  for (uint32_t u = 0; u < a->num_users(); ++u) {
    EXPECT_EQ(a->interactions.ItemsOf(u), b->interactions.ItemsOf(u));
  }
}

TEST(SyntheticTest, LongTailDegreeDistribution) {
  const auto dataset = GenerateSynthetic(SyntheticConfig::YelpLike(0.1));
  ASSERT_TRUE(dataset.ok());
  // Fig. 5's long tail: high degree inequality.
  EXPECT_GT(graph::DegreeGini(dataset->social), 0.25);
  // And hubs exist: max degree far above the mean.
  uint32_t max_degree = 0;
  for (uint32_t u = 0; u < dataset->num_users(); ++u) {
    max_degree = std::max(max_degree, dataset->social.Degree(u));
  }
  EXPECT_GT(max_degree, 4 * dataset->Summarize().avg_relations);
}

TEST(SyntheticTest, YelpAndDoubanShapesDiffer) {
  const auto yelp = GenerateSynthetic(SyntheticConfig::YelpLike(0.05));
  const auto douban = GenerateSynthetic(SyntheticConfig::DoubanLike(0.05));
  ASSERT_TRUE(yelp.ok() && douban.ok());
  // Douban-like has several times denser interactions per user.
  EXPECT_GT(douban->Summarize().avg_interactions,
            2.0 * yelp->Summarize().avg_interactions);
}

TEST(SyntheticTest, SocialBlendPlantsCorrelation) {
  // With social_blend > 0, connected users must overlap in consumed items
  // substantially more than random user pairs — the planted "word of
  // mouth" signal that social recommenders exploit.
  SyntheticConfig config;
  config.num_users = 500;
  config.num_items = 600;
  config.avg_interactions_per_user = 20;
  config.avg_relations_per_user = 8;
  config.social_blend = 0.45f;
  const auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = *dataset;

  auto pair_overlap = [&](uint32_t a, uint32_t b) {
    const auto& ia = d.interactions.ItemsOf(a);
    const auto& ib = d.interactions.ItemsOf(b);
    if (ia.empty() || ib.empty()) return -1.0;
    size_t common = 0;
    for (const uint32_t item : ia) {
      if (d.interactions.Contains(b, item)) ++common;
    }
    return static_cast<double>(common) / std::min(ia.size(), ib.size());
  };

  double neighbor_total = 0;
  size_t neighbor_pairs = 0;
  for (const auto& [a, b] : d.social.EdgeList()) {
    const double o = pair_overlap(a, b);
    if (o >= 0) {
      neighbor_total += o;
      ++neighbor_pairs;
    }
  }
  util::Rng rng(5);
  double random_total = 0;
  size_t random_pairs = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto a = static_cast<uint32_t>(rng.UniformInt(d.num_users()));
    const auto b = static_cast<uint32_t>(rng.UniformInt(d.num_users()));
    if (a == b || d.social.HasEdge(a, b)) continue;
    const double o = pair_overlap(a, b);
    if (o >= 0) {
      random_total += o;
      ++random_pairs;
    }
  }
  ASSERT_GT(neighbor_pairs, 0u);
  ASSERT_GT(random_pairs, 0u);
  EXPECT_GT(neighbor_total / neighbor_pairs,
            1.3 * (random_total / random_pairs));
}

// --- IO --------------------------------------------------------------------------

TEST(IoTest, SaveLoadRoundTrip) {
  SyntheticConfig config;
  config.num_users = 120;
  config.num_items = 150;
  config.avg_interactions_per_user = 6;
  config.avg_relations_per_user = 4;
  config.name = "roundtrip";
  const auto original = GenerateSynthetic(config);
  ASSERT_TRUE(original.ok());

  const std::string dir = test_util::TempPath("hosr_io_test");
  ASSERT_TRUE(SaveDataset(*original, dir).ok());
  const auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->name, "roundtrip");
  EXPECT_EQ(loaded->num_users(), original->num_users());
  EXPECT_EQ(loaded->num_items(), original->num_items());
  EXPECT_EQ(loaded->interactions.nnz(), original->interactions.nnz());
  EXPECT_EQ(loaded->social.EdgeList(), original->social.EdgeList());
  for (uint32_t u = 0; u < original->num_users(); ++u) {
    EXPECT_EQ(loaded->interactions.ItemsOf(u),
              original->interactions.ItemsOf(u));
  }
}

TEST(IoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadDataset("/nonexistent/hosr/dir").ok());
}

TEST(IoTest, LoadRejectsMalformedMeta) {
  const std::string dir = test_util::TempPath("hosr_io_bad");
  std::filesystem::create_directories(dir);
  {
    std::ofstream meta(dir + "/meta.tsv");
    meta << "name\tx\n";  // missing counts
  }
  {
    std::ofstream f(dir + "/interactions.tsv");
  }
  {
    std::ofstream f(dir + "/social.tsv");
  }
  EXPECT_FALSE(LoadDataset(dir).ok());
}

}  // namespace
}  // namespace hosr::data
