// hosr::obs v2 surfaces: metric-name validation, histogram exemplars,
// request contexts, the live admin endpoint (transport-free and over real
// loopback sockets), the flight recorder's CRC-verified dumps, and the
// timeseries recorder's shutdown-flush guarantee for its metrics file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "json_validator_test_util.h"
#include "obs/admin_server.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "temp_path_test_util.h"
#include "util/fileio.h"
#include "util/string_util.h"

namespace hosr::obs {
namespace {

using hosr::test_util::IsValidJson;

class ObsAdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().ResetForTesting();
    HealthTracker::Global().ResetForTesting();
    FlightRecorder::Global().ResetForTesting();
    ClearTrace();
    SetEnabled(false);
  }
  void TearDown() override {
    SetEnabled(false);
    ClearTrace();
    FlightRecorder::Global().ResetForTesting();
    HealthTracker::Global().ResetForTesting();
    Registry::Global().ResetForTesting();
  }

  std::string TempPath(const std::string& name) {
    return test_util::TempPath("hosr_obs_admin_" + name);
  }
};

// --- Metric-name validation --------------------------------------------------

TEST_F(ObsAdminTest, MetricNameConventionIsEnforced) {
  // subsystem/verb_unit: 2-3 segments, each [a-z][a-z0-9_]*.
  EXPECT_TRUE(IsValidMetricName("serve/request_latency_ms"));
  EXPECT_TRUE(IsValidMetricName("bench/serve_admin/replay_top10_qps"));
  EXPECT_TRUE(IsValidMetricName("a/b"));
  EXPECT_TRUE(IsValidMetricName("fault/injected"));

  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("noslash"));
  EXPECT_FALSE(IsValidMetricName("too/many/seg/ments"));
  EXPECT_FALSE(IsValidMetricName("Upper/case"));
  EXPECT_FALSE(IsValidMetricName("serve/Case"));
  EXPECT_FALSE(IsValidMetricName("serve/_leading_underscore"));
  EXPECT_FALSE(IsValidMetricName("serve/1leading_digit"));
  EXPECT_FALSE(IsValidMetricName("serve//empty_segment"));
  EXPECT_FALSE(IsValidMetricName("serve/bad-dash"));
  EXPECT_FALSE(IsValidMetricName("serve/trailing/"));
  // The counter type already means "total"; the suffix is redundant.
  EXPECT_FALSE(IsValidMetricName("serve/queries_total"));
}

// --- Request context ---------------------------------------------------------

TEST_F(ObsAdminTest, ScopedContextInstallsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    ScopedRequestContext outer(RequestContext{42, 7, 10});
    EXPECT_EQ(CurrentTraceId(), 42u);
    EXPECT_EQ(CurrentContext().user, 7u);
    {
      ScopedRequestContext inner(RequestContext{43, 8, 20});
      EXPECT_EQ(CurrentTraceId(), 43u);
    }
    EXPECT_EQ(CurrentTraceId(), 42u);  // nested scope unwound
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST_F(ObsAdminTest, ContextIsThreadLocalNotProcessWide) {
  ScopedRequestContext scope(RequestContext{42, 0, 0});
  uint64_t seen_on_other_thread = 99;
  std::thread other([&] { seen_on_other_thread = CurrentTraceId(); });
  other.join();
  EXPECT_EQ(seen_on_other_thread, 0u);
  EXPECT_EQ(CurrentTraceId(), 42u);
}

TEST_F(ObsAdminTest, SpansRecordedInScopeCarryTraceId) {
  SetEnabled(true);
  {
    ScopedRequestContext scope(RequestContext{77, 0, 0});
    HOSR_TRACE_SPAN("test/in_scope");
  }
  {
    HOSR_TRACE_SPAN("test/out_of_scope");
  }
  const auto spans = SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, span.name == "test/in_scope" ? 77u : 0u);
  }
  // The trace JSON surfaces the id as an args entry.
  const std::string json = TraceToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"trace_id\": 77"), std::string::npos);
}

// --- Histogram exemplars -----------------------------------------------------

TEST_F(ObsAdminTest, ExemplarRecordsInScopeObservation) {
  Histogram* h = Registry::Global().GetHistogram("test/exemplar_hist");
  h->Observe(4.0);  // out of scope: leaves no exemplar
  EXPECT_EQ(h->ExemplarFor(Histogram::BucketFor(4.0)).trace_id, 0u);
  {
    ScopedRequestContext scope(RequestContext{123, 0, 0});
    h->Observe(1000.0);  // a tail-bucket outlier
  }
  const Exemplar exemplar = h->ExemplarFor(Histogram::BucketFor(1000.0));
  EXPECT_EQ(exemplar.trace_id, 123u);
  EXPECT_DOUBLE_EQ(exemplar.value, 1000.0);
  // Untouched buckets stay empty.
  EXPECT_EQ(h->ExemplarFor(Histogram::BucketFor(1e-6)).trace_id, 0u);

  const std::string json = Registry::Global().ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"exemplar\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": 123"), std::string::npos);
}

TEST_F(ObsAdminTest, ExemplarLastWriterWinsIsOneOfTheWriters) {
  // 8 threads, each with its own trace id, hammer the same bucket. The slot
  // must end holding one of the real writers (any interleave of id/value is
  // still two real same-bucket requests).
  constexpr size_t kThreads = 8;
  constexpr size_t kObservationsPerThread = 5000;
  Histogram* h = Registry::Global().GetHistogram("test/contended_hist");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      ScopedRequestContext scope(
          RequestContext{static_cast<uint64_t>(t) + 1, 0, 0});
      for (size_t i = 0; i < kObservationsPerThread; ++i) {
        h->Observe(3.0);  // same bucket for every thread
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h->Count(), kThreads * kObservationsPerThread);
  const Exemplar exemplar = h->ExemplarFor(Histogram::BucketFor(3.0));
  EXPECT_GE(exemplar.trace_id, 1u);
  EXPECT_LE(exemplar.trace_id, kThreads);
  EXPECT_DOUBLE_EQ(exemplar.value, 3.0);
}

// --- HealthTracker -----------------------------------------------------------

TEST_F(ObsAdminTest, HealthDegradesOnSustainedFailuresAndRecovers) {
  HealthTracker& health = HealthTracker::Global();
  EXPECT_TRUE(health.healthy());  // no signal yet
  // Below the sample floor nothing flips, even at 100% failures.
  for (uint64_t i = 0; i < HealthTracker::kMinSamples - 1; ++i) {
    health.ReportOutcome(true);
  }
  EXPECT_TRUE(health.healthy());
  health.ReportOutcome(true);
  EXPECT_FALSE(health.healthy());
  EXPECT_DOUBLE_EQ(health.FailureRate(), 1.0);
  // A run of successes dilutes the windowed rate back under the threshold.
  for (int i = 0; i < 200; ++i) health.ReportOutcome(false);
  EXPECT_TRUE(health.healthy());
  EXPECT_LT(health.FailureRate(), HealthTracker::kDegradedThreshold);
}

TEST_F(ObsAdminTest, HealthWindowDecaysOldTraffic) {
  HealthTracker& health = HealthTracker::Global();
  // A long-past failure burst must not pin health degraded forever.
  for (uint64_t i = 0; i < HealthTracker::kWindow; ++i) {
    health.ReportOutcome(true);
  }
  EXPECT_FALSE(health.healthy());
  for (uint64_t i = 0; i < 4 * HealthTracker::kWindow; ++i) {
    health.ReportOutcome(false);
  }
  EXPECT_TRUE(health.healthy());
}

// --- Admin endpoint, transport-free ------------------------------------------

TEST_F(ObsAdminTest, HandlePathServesAllEndpoints) {
  AdminServer server(AdminServer::Options{});
  server.SetVar("binary", "obs_admin_test");
  server.SetVar("weird \"key\"", "value\nwith\tescapes");

  Registry::Global().GetCounter("test/admin_counter")->Increment(5);
  const HttpResponse metricsz = server.HandlePath("/metricsz");
  EXPECT_EQ(metricsz.status_code, 200);
  EXPECT_TRUE(IsValidJson(metricsz.body)) << metricsz.body;
  EXPECT_NE(metricsz.body.find("test/admin_counter"), std::string::npos);

  const HttpResponse varz = server.HandlePath("/varz");
  EXPECT_EQ(varz.status_code, 200);
  EXPECT_TRUE(IsValidJson(varz.body)) << varz.body;
  EXPECT_NE(varz.body.find("obs_admin_test"), std::string::npos);

  // Not ready, not degraded: readyz 503, healthz 200.
  EXPECT_EQ(server.HandlePath("/readyz").status_code, 503);
  EXPECT_EQ(server.HandlePath("/healthz").status_code, 200);
  HealthTracker::Global().SetReady(true);
  EXPECT_EQ(server.HandlePath("/readyz").status_code, 200);
  for (uint64_t i = 0; i < 2 * HealthTracker::kMinSamples; ++i) {
    HealthTracker::Global().ReportOutcome(true);
  }
  const HttpResponse degraded = server.HandlePath("/healthz");
  EXPECT_EQ(degraded.status_code, 503);
  EXPECT_NE(degraded.body.find("degraded"), std::string::npos);

  const HttpResponse tracez = server.HandlePath("/tracez");
  EXPECT_EQ(tracez.status_code, 200);
  EXPECT_TRUE(IsValidJson(tracez.body)) << tracez.body;

  // Query strings are split off; 404 lists the endpoints.
  EXPECT_EQ(server.HandlePath("/metricsz?pretty").status_code, 200);
  const HttpResponse missing = server.HandlePath("/nonesuch");
  EXPECT_EQ(missing.status_code, 404);
  EXPECT_TRUE(IsValidJson(missing.body)) << missing.body;
  EXPECT_NE(missing.body.find("/metricsz"), std::string::npos);
}

TEST_F(ObsAdminTest, TracezLimitBoundsTheSpanCount) {
  SetEnabled(true);
  for (int i = 0; i < 64; ++i) {
    HOSR_TRACE_SPAN("test/tracez_span");
  }
  AdminServer server(AdminServer::Options{});
  const HttpResponse all = server.HandlePath("/tracez");
  const HttpResponse limited = server.HandlePath("/tracez?limit=8");
  EXPECT_TRUE(IsValidJson(limited.body)) << limited.body;
  auto count_spans = [](const std::string& body) {
    size_t n = 0;
    for (size_t pos = body.find("\"ph\""); pos != std::string::npos;
         pos = body.find("\"ph\"", pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_spans(all.body), 64u);
  EXPECT_EQ(count_spans(limited.body), 8u);
}

// --- Admin endpoint over real sockets ----------------------------------------

TEST_F(ObsAdminTest, LiveServerRoundTripsOnEphemeralPort) {
  SetEnabled(true);
  AdminServer server(AdminServer::Options{.port = 0});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  server.SetVar("binary", "obs_admin_test");
  {
    ScopedRequestContext scope(RequestContext{555, 1, 10});
    HOSR_TRACE_SPAN("test/live_span");
  }

  auto metricsz = AdminHttpGet(server.port(), "/metricsz");
  ASSERT_TRUE(metricsz.ok()) << metricsz.status();
  EXPECT_EQ(metricsz->status_code, 200);
  EXPECT_TRUE(IsValidJson(metricsz->body)) << metricsz->body;

  auto tracez = AdminHttpGet(server.port(), "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status();
  EXPECT_NE(tracez->body.find("\"trace_id\": 555"), std::string::npos);

  // Readiness flip is visible through the socket path too.
  auto not_ready = AdminHttpGet(server.port(), "/readyz");
  ASSERT_TRUE(not_ready.ok());
  EXPECT_EQ(not_ready->status_code, 503);
  HealthTracker::Global().SetReady(true);
  auto ready = AdminHttpGet(server.port(), "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status_code, 200);

  auto varz = AdminHttpGet(server.port(), "/varz");
  ASSERT_TRUE(varz.ok());
  EXPECT_NE(varz->body.find("obs_admin_test"), std::string::npos);
  auto healthz = AdminHttpGet(server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 200);

  auto missing = AdminHttpGet(server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);

  const int port = server.port();
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(AdminHttpGet(port, "/healthz").ok());
}

TEST_F(ObsAdminTest, LiveServerHandlesConcurrentClients) {
  AdminServer server(AdminServer::Options{.port = 0});
  ASSERT_TRUE(server.Start().ok());
  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 25;
  std::atomic<size_t> ok_responses{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &ok_responses] {
      const char* paths[] = {"/metricsz", "/healthz", "/varz", "/tracez"};
      for (size_t i = 0; i < kRequestsPerThread; ++i) {
        auto response = AdminHttpGet(server.port(), paths[i % 4]);
        if (response.ok() && response->status_code == 200) {
          ++ok_responses;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_responses.load(), kThreads * kRequestsPerThread);
}

// --- Flight recorder ---------------------------------------------------------

TEST_F(ObsAdminTest, DumpNowWritesCrcVerifiedJson) {
  FlightRecorder& recorder = FlightRecorder::Global();
  EXPECT_FALSE(recorder.armed());
  EXPECT_FALSE(recorder.DumpNow("disarmed").ok());

  SetEnabled(true);
  {
    ScopedRequestContext scope(RequestContext{31337, 2, 10});
    HOSR_TRACE_SPAN("test/flight_span");
  }
  Registry::Global().GetCounter("test/flight_counter")->Increment(9);

  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  recorder.Arm(options);
  recorder.Note("unit test armed");
  ASSERT_TRUE(recorder.DumpNow("unit_test").ok());
  EXPECT_EQ(recorder.dump_count(), 1u);
  ASSERT_FALSE(recorder.last_dump_path().empty());

  // The dump must survive the CRC check and carry reason, notes, metrics,
  // and the traced span with its request's id.
  auto body = util::ReadFileVerifyCrc(recorder.last_dump_path());
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_TRUE(IsValidJson(*body)) << *body;
  EXPECT_NE(body->find("\"unit_test\""), std::string::npos);
  EXPECT_NE(body->find("unit test armed"), std::string::npos);
  EXPECT_NE(body->find("test/flight_counter"), std::string::npos);
  EXPECT_NE(body->find("test/flight_span"), std::string::npos);
  EXPECT_NE(body->find("\"trace_id\": 31337"), std::string::npos);
  std::remove(recorder.last_dump_path().c_str());
}

TEST_F(ObsAdminTest, DumpsAreRateLimitedAndCapped) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  options.max_dumps = 2;
  options.min_interval_seconds = 3600.0;  // nothing inside the test fits
  recorder.Arm(options);

  ASSERT_TRUE(recorder.DumpNow("first").ok());
  const std::string first_path = recorder.last_dump_path();
  // Second dump inside the interval: refused unless forced.
  EXPECT_FALSE(recorder.DumpNow("second").ok());
  EXPECT_TRUE(recorder.DumpNow("second", /*force=*/true).ok());
  const std::string second_path = recorder.last_dump_path();
  EXPECT_NE(first_path, second_path);
  // Lifetime cap: even force cannot exceed max_dumps.
  EXPECT_FALSE(recorder.DumpNow("third", /*force=*/true).ok());
  EXPECT_EQ(recorder.dump_count(), 2u);
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

TEST_F(ObsAdminTest, FaultHookDumpsOncePerInterval) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  options.min_interval_seconds = 3600.0;
  recorder.Arm(options);
  recorder.OnFault("engine.score");
  EXPECT_EQ(recorder.dump_count(), 1u);
  // A fault storm must not write a dump per fire.
  for (int i = 0; i < 100; ++i) recorder.OnFault("engine.score");
  EXPECT_EQ(recorder.dump_count(), 1u);
  auto body = util::ReadFileVerifyCrc(recorder.last_dump_path());
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_NE(body->find("engine.score"), std::string::npos);
  std::remove(recorder.last_dump_path().c_str());
}

TEST_F(ObsAdminTest, DeadlineBurstTriggersExactlyOneDump) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  options.burst_threshold = 8;
  options.burst_window_seconds = 3600.0;  // everything lands in one window
  options.min_interval_seconds = 0.0;
  recorder.Arm(options);
  for (int i = 0; i < 7; ++i) recorder.OnDeadlineExceeded();
  EXPECT_EQ(recorder.dump_count(), 0u);  // below the burst threshold
  recorder.OnDeadlineExceeded();
  EXPECT_EQ(recorder.dump_count(), 1u);
  // Continuing the same burst does not re-dump.
  for (int i = 0; i < 50; ++i) recorder.OnDeadlineExceeded();
  EXPECT_EQ(recorder.dump_count(), 1u);
  std::remove(recorder.last_dump_path().c_str());
}

// --- Recorder shutdown flush ------------------------------------------------

TEST_F(ObsAdminTest, ConcurrentStopsAllObserveTheFinalFlush) {
  // The documented guarantee: updates made before Stop() is invoked are in
  // the recorder's metrics file once ANY Stop() call returns — even when
  // several race.
  const std::string path = TempPath("recorder_metrics.json");
  Gauge* gauge = Registry::Global().GetGauge("test/recorder_gauge");
  TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
  TimeseriesRecorder::Options options;
  options.snapshot_interval_s = 3600.0;  // thread parked; shutdown flushes
  options.metrics_path = path;
  ASSERT_TRUE(recorder.Start(options).ok());
  gauge->Set(424242.0);
  std::vector<std::thread> stoppers;
  std::atomic<int> returned{0};
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] {
      recorder.Stop();
      // The artifact must already hold the final value the moment any
      // Stop() returns.
      auto content = util::ReadFileToString(path);
      if (content.ok() && content->find("424242") != std::string::npos) {
        ++returned;
      }
    });
  }
  for (auto& thread : stoppers) thread.join();
  EXPECT_EQ(returned.load(), 4);
  auto content = util::ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(IsValidJson(*content)) << *content;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hosr::obs
