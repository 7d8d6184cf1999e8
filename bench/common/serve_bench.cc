#include "common/serve_bench.h"

#include <utility>

#include "data/synthetic.h"
#include "models/bpr_mf.h"

namespace hosr::bench {

namespace {

data::Dataset FixtureDataset() {
  auto generated =
      data::GenerateSynthetic(data::SyntheticConfig::YelpLike(0.05));
  HOSR_CHECK(generated.ok());
  return std::move(generated).value();
}

serve::ModelSnapshot FixtureSnapshot(const data::Dataset& dataset) {
  models::BprMf::Config config;
  config.embedding_dim = 10;
  models::BprMf model(dataset.num_users(), dataset.num_items(), config);
  auto built = serve::BuildSnapshot(model);
  HOSR_CHECK(built.ok());
  return std::move(built).value();
}

}  // namespace

ServeFixture::ServeFixture()
    : dataset(FixtureDataset()),
      snapshot(FixtureSnapshot(dataset)),
      engine(snapshot, &dataset.interactions),
      executor(&engine, serve::HardenedOptions{}),
      requests(net::SyntheticStream(engine.num_users(), 4096, 10, 0.9, 17)) {
}

size_t NumReplayClients() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw));
}

double ReplayQps(const ServeFixture& fixture) {
  return ReplayQps(fixture.requests,
                   [&](const net::StreamRequest& r, uint64_t token) {
                     return fixture.executor.Execute(r.user, r.k, token);
                   });
}

AbbaMedians RunAbbaPairs(const std::function<double()>& off_replay,
                         const std::function<double()>& on_replay) {
  std::vector<double> off, on;
  for (int pair = 0; pair < kAbbaPairs; ++pair) {
    if (pair % 2 == 0) {
      off.push_back(off_replay());
      on.push_back(on_replay());
    } else {
      on.push_back(on_replay());
      off.push_back(off_replay());
    }
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {median(std::move(off)), median(std::move(on))};
}

}  // namespace hosr::bench
