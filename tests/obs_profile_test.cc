// Tests for the continuous-profiling + time-series telemetry layer
// (docs/OBSERVABILITY.md "Continuous profiling" / "Time-series telemetry"):
// the shared bucket-quantile helper and the /metricsz p50/p95/p99 summary
// fields, the SIGPROF sampling profiler (including the no-allocation
// contract of the signal handler, asserted through a global operator-new
// guard), the timeseries recorder's windowed counter/gauge/histogram
// points, the recorder's metrics-file snapshots racing concurrent metric
// registration, and the /profilez + /timeseriez admin endpoints.
//
// This suite is part of the TSan build matrix (DESIGN.md "Build matrix"):
// the recorder races run fully instrumented there, while the
// SIGPROF-driven tests skip themselves (sanitizer runtimes flag `backtrace`
// in a signal handler as signal-unsafe even though glibc's is fine after
// the warm-up call).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "json_validator_test_util.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "temp_path_test_util.h"
#include "util/fileio.h"

#if defined(__SANITIZE_THREAD__)
#define HOSR_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HOSR_TSAN_BUILD 1
#endif
#endif

#ifdef HOSR_TSAN_BUILD
#define HOSR_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "SIGPROF handler paths are not TSan-instrumentable"
#else
#define HOSR_SKIP_UNDER_TSAN() (void)0
#endif

namespace {

// Counts every allocation attempted while the calling thread is inside the
// SIGPROF handler. The handler's async-signal-safety contract says this
// must stay zero no matter how hard the sampler and the allocator race.
std::atomic<uint64_t> g_handler_allocations{0};

}  // namespace

// GCC's flow analysis pairs the replaced operator new with the library
// default and flags the free() below as mismatched; both sides funnel
// through malloc/free here, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (hosr::obs::Profiler::InHandlerForTesting()) {
    g_handler_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { operator delete(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  operator delete(ptr);
}

#pragma GCC diagnostic pop

namespace hosr {

// External linkage on purpose (see the comment at the use sites): noinline
// so the frame stays visible to backtrace() rather than folding into the
// caller.
__attribute__((noinline)) double BurnCpu(double seconds) {
  const int64_t begin = obs::NowNanos();
  double acc = 0.0;
  while (obs::NowNanos() - begin < static_cast<int64_t>(seconds * 1e9)) {
    for (int i = 1; i < 1000; ++i) acc += std::sqrt(static_cast<double>(i));
  }
  return acc;
}

namespace {

using test_util::IsValidJson;

// --- QuantileFromBuckets --------------------------------------------------

std::vector<uint64_t> EmptyBuckets() {
  return std::vector<uint64_t>(obs::Histogram::kNumBuckets, 0);
}

TEST(QuantileFromBucketsTest, ZeroTotalReturnsZero) {
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(EmptyBuckets(), 0.5), 0.0);
}

TEST(QuantileFromBucketsTest, InterpolatesWithinSingleBucket) {
  auto buckets = EmptyBuckets();
  const int index = obs::Histogram::BucketFor(8.0);  // [8, 16)
  buckets[index] = 2;
  // rank(0.5) = 1 of 2 -> halfway through [8, 16).
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(buckets, 0.5), 12.0);
  // rank(1.0) = 2 of 2 -> the bucket's upper bound.
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(buckets, 1.0), 16.0);
}

TEST(QuantileFromBucketsTest, WalksAcrossBuckets) {
  auto buckets = EmptyBuckets();
  buckets[obs::Histogram::BucketFor(1.5)] = 90;    // [1, 2)
  buckets[obs::Histogram::BucketFor(1536.0)] = 10;  // [1024, 2048)
  // rank(0.5) = 50 of 100 -> fraction 50/90 through [1, 2).
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(buckets, 0.50),
                   1.0 + 50.0 / 90.0);
  // rank(0.95) = 95 -> fraction 5/10 through [1024, 2048).
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(buckets, 0.95), 1536.0);
  // rank(0.99) = 99 -> fraction 9/10 through [1024, 2048).
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(buckets, 0.99), 1945.6);
}

TEST(QuantileFromBucketsTest, BucketZeroFloorsAtZero) {
  auto buckets = EmptyBuckets();
  buckets[0] = 2;  // bucket 0 absorbs non-positive values and underflow
  const double p50 = obs::QuantileFromBuckets(buckets, 0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, obs::Histogram::BucketUpperBound(0));
}

// --- /metricsz p50/p95/p99 round trip -------------------------------------

// Pulls the first number after `"key": ` following `anchor` in `json`.
double NumberAfter(const std::string& json, const std::string& anchor,
                   const std::string& key) {
  const size_t at = json.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor << " not in " << json;
  const std::string marker = "\"" + key + "\": ";
  const size_t pos = json.find(marker, at);
  EXPECT_NE(pos, std::string::npos) << key << " not found after " << anchor;
  return std::strtod(json.c_str() + pos + marker.size(), nullptr);
}

TEST(MetricsQuantileTest, HistogramJsonCarriesQuantileSummaries) {
  obs::Registry::Global().ResetForTesting();
  auto& histogram = *obs::Registry::Global().GetHistogram("quantz/probe_ms");
  for (int i = 0; i < 90; ++i) histogram.Observe(1.5);
  for (int i = 0; i < 10; ++i) histogram.Observe(1536.0);

  const std::string json = obs::Registry::Global().ToJson();
  ASSERT_TRUE(IsValidJson(json)) << json;
  EXPECT_DOUBLE_EQ(NumberAfter(json, "quantz/probe_ms", "p50"),
                   1.0 + 50.0 / 90.0);
  EXPECT_DOUBLE_EQ(NumberAfter(json, "quantz/probe_ms", "p95"), 1536.0);
  EXPECT_DOUBLE_EQ(NumberAfter(json, "quantz/probe_ms", "p99"), 1945.6);
}

TEST(MetricsQuantileTest, EmptyHistogramOmitsQuantiles) {
  obs::Registry::Global().ResetForTesting();
  (void)obs::Registry::Global().GetHistogram("quantz/empty_ms");
  const std::string json = obs::Registry::Global().ToJson();
  ASSERT_TRUE(IsValidJson(json));
  const size_t at = json.find("quantz/empty_ms");
  ASSERT_NE(at, std::string::npos);
  const size_t entry_end = json.find("]}", at);
  EXPECT_EQ(json.substr(at, entry_end - at).find("\"p50\""),
            std::string::npos);
}

// --- Sampling profiler ----------------------------------------------------

// CPU-burning helpers the sampler should catch: BurnCpu (above) has
// external linkage, so dladdr names it through the dynamic symbol table;
// BurnCpuInternal has internal linkage, as every lambda and
// anonymous-namespace function does, so only the executable's .symtab
// names it.
__attribute__((noinline)) double BurnCpuInternal(double seconds) {
  return BurnCpu(seconds / 2) + BurnCpu(seconds / 2);
}

TEST(ProfilerTest, ContinuousSessionCapturesStacks) {
  HOSR_SKIP_UNDER_TSAN();
  auto& profiler = obs::Profiler::Global();
  ASSERT_FALSE(profiler.running());
  obs::Profiler::Options options;
  options.hz = 499;
  ASSERT_TRUE(profiler.Start(options).ok());
  EXPECT_TRUE(profiler.running());
  // Double-start must refuse: ITIMER_PROF is a process-wide resource.
  EXPECT_FALSE(profiler.Start(options).ok());

  (void)BurnCpu(0.3);
  const auto snapshot = profiler.SnapshotNow();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(profiler.running()) << "snapshot must not stop the session";

  const obs::Profile profile = profiler.StopAndCollect();
  EXPECT_FALSE(profiler.running());
  EXPECT_GT(profile.samples, 0u);
  EXPECT_GT(profile.distinct_stacks, 0u);
  EXPECT_EQ(profile.hz, 499);
  ASSERT_FALSE(profile.collapsed.empty());
  // Collapsed format: every line is "frame;frame;...;leaf count".
  size_t line_begin = 0;
  while (line_begin < profile.collapsed.size()) {
    size_t line_end = profile.collapsed.find('\n', line_begin);
    ASSERT_NE(line_end, std::string::npos) << "unterminated collapsed line";
    const std::string line =
        profile.collapsed.substr(line_begin, line_end - line_begin);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u)
        << line;
    line_begin = line_end + 1;
  }
  EXPECT_TRUE(IsValidJson(profile.SummaryJson())) << profile.SummaryJson();
  // The CPU burner above must be attributable by symbol (requires the
  // -rdynamic link the build adds for dladdr).
  EXPECT_NE(profile.collapsed.find("BurnCpu"), std::string::npos)
      << profile.collapsed;
}

TEST(ProfilerTest, NamesInternalLinkageFunctionsOnOtherThreads) {
  HOSR_SKIP_UNDER_TSAN();
  auto& profiler = obs::Profiler::Global();
  obs::Profiler::Options options;
  options.hz = 499;
  ASSERT_TRUE(profiler.Start(options).ok());
  double acc = 0.0;
  std::thread burner([&acc] { acc = BurnCpuInternal(0.3); });
  burner.join();
  const obs::Profile profile = profiler.StopAndCollect();
  EXPECT_GT(acc, 0.0);
  EXPECT_NE(profile.collapsed.find("BurnCpuInternal"), std::string::npos)
      << profile.collapsed;
}

TEST(ProfilerTest, StopWithoutStartReturnsEmptyProfile) {
  HOSR_SKIP_UNDER_TSAN();
  auto& profiler = obs::Profiler::Global();
  ASSERT_FALSE(profiler.running());
  const obs::Profile profile = profiler.StopAndCollect();
  EXPECT_EQ(profile.samples, 0u);
  EXPECT_FALSE(profiler.SnapshotNow().ok());
}

TEST(ProfilerTest, ConcurrentWindowsShareOneSession) {
  HOSR_SKIP_UNDER_TSAN();
  auto& profiler = obs::Profiler::Global();
  ASSERT_FALSE(profiler.running());
  std::atomic<bool> stop_burning{false};
  std::thread burner([&] {
    while (!stop_burning.load(std::memory_order_relaxed)) (void)BurnCpu(0.05);
  });
  constexpr int kWindows = 4;
  std::vector<std::thread> windows;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kWindows; ++i) {
    windows.emplace_back([&] {
      obs::Profiler::Options options;
      options.hz = 499;
      const auto profile =
          obs::Profiler::Global().CollectWindow(0.3, options);
      if (profile.ok() && profile.value().samples > 0) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : windows) t.join();
  stop_burning.store(true);
  burner.join();
  // Every concurrent request must come back with a real profile — joiners
  // receive the leader's window rather than failing on "already running".
  EXPECT_EQ(ok_count.load(), kWindows);
  EXPECT_FALSE(profiler.running());
}

TEST(ProfilerTest, HandlerPathNeverAllocates) {
  HOSR_SKIP_UNDER_TSAN();
  auto& profiler = obs::Profiler::Global();
  ASSERT_FALSE(profiler.running());
  g_handler_allocations.store(0);
  obs::Profiler::Options options;
  options.hz = 997;  // as hot as Start() allows, to maximize interleavings
  ASSERT_TRUE(profiler.Start(options).ok());
  // Allocator-heavy worker threads: every sample lands either inside
  // malloc/free or between them, so an allocating handler would both trip
  // the guard counter and (likely) deadlock on the allocator's own lock.
  constexpr int kWorkers = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      std::vector<std::string> junk;
      while (!stop.load(std::memory_order_relaxed)) {
        junk.emplace_back(64, 'x');
        if (junk.size() > 512) junk.clear();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true);
  for (auto& t : workers) t.join();
  const obs::Profile profile = profiler.StopAndCollect();
  EXPECT_GT(profile.samples, 0u);
  EXPECT_EQ(g_handler_allocations.load(), 0u)
      << "SIGPROF handler allocated memory";
}

// --- Timeseries recorder --------------------------------------------------

TEST(TimeseriesTest, CounterWindowReconstructsRate) {
  obs::Registry::Global().ResetForTesting();
  auto& recorder = obs::TimeseriesRecorder::Global();
  recorder.ResetForTesting();
  auto& counter = *obs::Registry::Global().GetCounter("tsq/events");
  counter.Increment(7);
  recorder.SnapshotOnceForTesting();  // baseline: absorbs pre-history
  counter.Increment(50);
  // Real elapsed time between snapshots: the JSON renders interval_s at
  // millisecond precision, so a zero-width window would round to 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  recorder.SnapshotOnceForTesting();

  const std::string json = recorder.ToJson("tsq/events");
  ASSERT_TRUE(IsValidJson(json)) << json;
  // Two points; the last one's delta is exactly the increments since the
  // baseline, and value (rate/s) times the measured interval reconstructs
  // that delta — the acceptance contract for /timeseriez windows.
  const size_t last = json.rfind("{\"age_s\"");
  ASSERT_NE(last, std::string::npos);
  const std::string point = json.substr(last);
  EXPECT_NE(point.find("\"delta\": 50"), std::string::npos) << point;
  const double rate = NumberAfter(json.substr(last), "age_s", "value");
  const double interval =
      NumberAfter(json.substr(last), "age_s", "interval_s");
  EXPECT_GT(interval, 0.0);
  // 5% slack covers the millisecond rounding of the rendered interval.
  EXPECT_NEAR(rate * interval, 50.0, 2.5);
}

TEST(TimeseriesTest, HistogramWindowsCarryQuantilesAndResetTolerance) {
  obs::Registry::Global().ResetForTesting();
  auto& recorder = obs::TimeseriesRecorder::Global();
  recorder.ResetForTesting();
  auto& histogram =
      *obs::Registry::Global().GetHistogram("tsq/probe_latency_ms");
  recorder.SnapshotOnceForTesting();  // baseline
  for (int i = 0; i < 90; ++i) histogram.Observe(1.5);
  for (int i = 0; i < 10; ++i) histogram.Observe(1536.0);
  recorder.SnapshotOnceForTesting();

  std::string json = recorder.ToJson("tsq/probe_latency_ms");
  ASSERT_TRUE(IsValidJson(json)) << json;
  size_t last = json.rfind("{\"age_s\"");
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(json.find("\"delta\": 100", last), std::string::npos);
  // Windowed quantiles come from the bucket-count deltas of this window
  // only, so they match the shared helper's direct answer.
  EXPECT_DOUBLE_EQ(NumberAfter(json.substr(last), "age_s", "p50"),
                   1.0 + 50.0 / 90.0);
  EXPECT_DOUBLE_EQ(NumberAfter(json.substr(last), "age_s", "p95"), 1536.0);

  // A Reset() between snapshots starts a new epoch instead of emitting a
  // garbage wraparound window.
  histogram.Reset();
  histogram.Observe(1.5);
  recorder.SnapshotOnceForTesting();
  json = recorder.ToJson("tsq/probe_latency_ms");
  last = json.rfind("{\"age_s\"");
  EXPECT_NE(json.find("\"delta\": 0", last), std::string::npos) << json;
}

TEST(TimeseriesTest, FiltersAndWindowCapApply) {
  obs::Registry::Global().ResetForTesting();
  auto& recorder = obs::TimeseriesRecorder::Global();
  recorder.ResetForTesting();
  obs::Registry::Global().GetCounter("tsq/keep_me")->Increment();
  obs::Registry::Global().GetCounter("other/drop_me")->Increment();
  recorder.SnapshotOnceForTesting();
  recorder.SnapshotOnceForTesting();
  recorder.SnapshotOnceForTesting();

  const std::string filtered = recorder.ToJson("tsq/");
  EXPECT_NE(filtered.find("tsq/keep_me"), std::string::npos);
  EXPECT_EQ(filtered.find("other/drop_me"), std::string::npos);

  // windows=1 keeps only the newest point per series.
  const std::string capped = recorder.ToJson("tsq/keep_me", 1);
  ASSERT_TRUE(IsValidJson(capped));
  size_t points = 0;
  for (size_t pos = capped.find("{\"age_s\""); pos != std::string::npos;
       pos = capped.find("{\"age_s\"", pos + 1)) {
    ++points;
  }
  EXPECT_EQ(points, 1u);
}

TEST(TimeseriesTest, StartStopCycleDumpsCrcArtifact) {
  obs::Registry::Global().ResetForTesting();
  auto& recorder = obs::TimeseriesRecorder::Global();
  recorder.ResetForTesting();
  ASSERT_FALSE(recorder.running());
  obs::TimeseriesRecorder::Options options;
  options.snapshot_interval_s = 0.05;
  ASSERT_TRUE(recorder.Start(options).ok());
  EXPECT_FALSE(recorder.Start(options).ok()) << "double start must refuse";
  obs::Registry::Global().GetCounter("tsq/cycle")->Increment(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  recorder.Stop();
  recorder.Stop();  // idempotent

  const std::string path = test_util::TempPath("timeseries_dump.json");
  ASSERT_TRUE(recorder.DumpToFile(path).ok());
  const auto contents = util::ReadFileVerifyCrc(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(IsValidJson(contents.value()));
  EXPECT_NE(contents.value().find("tsq/cycle"), std::string::npos);

  // The recorder must rearm cleanly (the serve_profile bench cycles it).
  ASSERT_TRUE(recorder.Start(options).ok());
  recorder.Stop();
}

// --- Recorder snapshots vs concurrent registration --------------------------

TEST(TimeseriesRaceTest, MetricsFileSnapshotsRaceRegistration) {
  obs::Registry::Global().ResetForTesting();
  obs::TimeseriesRecorder::Global().ResetForTesting();
  const std::string path = test_util::TempPath("recorder_race.json");
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  obs::TimeseriesRecorder::Options options;
  options.snapshot_interval_s = 0.005;  // snapshot as hot as possible
  options.metrics_path = path;
  ASSERT_TRUE(recorder.Start(options).ok());
  // Registration storm: new names force map inserts under the registry
  // mutex while the recorder thread iterates it for every snapshot. TSan
  // (DESIGN.md build matrix) verifies the locking discipline here.
  constexpr int kWorkers = 4;
  constexpr int kNamesPerWorker = 64;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([w] {
      for (int i = 0; i < kNamesPerWorker; ++i) {
        char name[64];
        std::snprintf(name, sizeof(name), "race/w%d/m%d", w, i);
        obs::Registry::Global().GetCounter(name)->Increment();
        obs::Registry::Global()
            .GetHistogram(std::string("raceh/w") + std::to_string(w) +
                          "/m" + std::to_string(i))
            ->Observe(1.0 + i);
      }
    });
  }
  for (auto& t : workers) t.join();
  recorder.Stop();
  // Post-Stop artifact must hold every registration (shutdown-flush
  // guarantee) and still be well-formed JSON.
  const auto contents = util::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(IsValidJson(contents.value()));
  char last_name[64];
  std::snprintf(last_name, sizeof(last_name), "race/w%d/m%d", kWorkers - 1,
                kNamesPerWorker - 1);
  EXPECT_NE(contents.value().find(last_name), std::string::npos);
}

// --- Admin endpoints ------------------------------------------------------

TEST(AdminProfileEndpointsTest, TimeseriezServesFilteredJson) {
  obs::Registry::Global().ResetForTesting();
  obs::TimeseriesRecorder::Global().ResetForTesting();
  obs::Registry::Global().GetCounter("tsq/admin_probe")->Increment(3);
  obs::TimeseriesRecorder::Global().SnapshotOnceForTesting();
  obs::AdminServer admin(obs::AdminServer::Options{});
  ASSERT_TRUE(admin.Start().ok());
  const auto all = obs::AdminHttpGet(admin.port(), "/timeseriez");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().status_code, 200);
  EXPECT_TRUE(IsValidJson(all.value().body));
  EXPECT_NE(all.value().body.find("tsq/admin_probe"), std::string::npos);
  const auto filtered = obs::AdminHttpGet(
      admin.port(), "/timeseriez?metric=no_such_metric&windows=1");
  ASSERT_TRUE(filtered.ok());
  EXPECT_TRUE(IsValidJson(filtered.value().body));
  EXPECT_EQ(filtered.value().body.find("tsq/admin_probe"),
            std::string::npos);
  admin.Stop();
}

TEST(AdminProfileEndpointsTest, ProfilezServesCollapsedStacksAndSummary) {
  HOSR_SKIP_UNDER_TSAN();
  ASSERT_FALSE(obs::Profiler::Global().running());
  obs::AdminServer admin(obs::AdminServer::Options{});
  ASSERT_TRUE(admin.Start().ok());
  std::atomic<bool> stop_burning{false};
  std::thread burner([&] {
    while (!stop_burning.load(std::memory_order_relaxed)) (void)BurnCpu(0.05);
  });
  // HandlePath is the transport-independent handler core — the socket
  // client doesn't echo response headers back, so content_type is asserted
  // here.
  const obs::HttpResponse collapsed =
      admin.HandlePath("/profilez?seconds=0.3");
  const auto summary = obs::AdminHttpGet(
      admin.port(), "/profilez?seconds=0.3&format=summary");
  stop_burning.store(true);
  burner.join();
  EXPECT_EQ(collapsed.status_code, 200);
  EXPECT_EQ(collapsed.content_type, "text/plain");
  EXPECT_NE(collapsed.body.find(' '), std::string::npos);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().status_code, 200);
  EXPECT_TRUE(IsValidJson(summary.value().body)) << summary.value().body;
  EXPECT_NE(summary.value().body.find("\"samples\""), std::string::npos);
  EXPECT_FALSE(obs::Profiler::Global().running());
  admin.Stop();
}

}  // namespace
}  // namespace hosr
