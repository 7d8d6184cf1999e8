#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "json_validator_test_util.h"
#include "util/thread_pool.h"

namespace hosr::obs {
namespace {

using hosr::test_util::IsValidJson;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Global().ResetForTesting();
    ClearTrace();
    SetEnabled(false);
  }
  void TearDown() override {
    SetEnabled(false);
    ClearTrace();
    Registry::Global().ResetForTesting();
  }
};

// --- Validator sanity --------------------------------------------------------

TEST_F(ObsTest, JsonValidatorAcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, -2.5e-3, "x", null, true]})"));
  EXPECT_FALSE(IsValidJson(R"({"a": })"));
  EXPECT_FALSE(IsValidJson(R"({"a": 1} trailing)"));
  EXPECT_FALSE(IsValidJson(R"({"a": inf})"));
  EXPECT_FALSE(IsValidJson(R"([1, 2,])"));
}

// --- Counter / Gauge ---------------------------------------------------------

TEST_F(ObsTest, CounterIncrements) {
  Counter* counter = Registry::Global().GetCounter("test/counter");
  EXPECT_EQ(counter->Get(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Get(), 42u);
}

TEST_F(ObsTest, RegistryReturnsSamePointerForSameName) {
  EXPECT_EQ(Registry::Global().GetCounter("test/same"),
            Registry::Global().GetCounter("test/same"));
  EXPECT_EQ(Registry::Global().GetHistogram("test/same_h"),
            Registry::Global().GetHistogram("test/same_h"));
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  Gauge* gauge = Registry::Global().GetGauge("test/gauge");
  gauge->Set(1.5);
  gauge->Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge->Get(), -2.25);
}

// --- Histogram ---------------------------------------------------------------

TEST_F(ObsTest, HistogramCountSumMinMax) {
  Histogram* h = Registry::Global().GetHistogram("test/hist");
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(1000.0);
  EXPECT_EQ(h->Count(), 3u);
  EXPECT_DOUBLE_EQ(h->Sum(), 1002.5);
  EXPECT_DOUBLE_EQ(h->Min(), 0.5);
  EXPECT_DOUBLE_EQ(h->Max(), 1000.0);
}

TEST_F(ObsTest, HistogramLogScaleBucketing) {
  // Bucket i covers [2^(kMinExp+i), 2^(kMinExp+i+1)).
  EXPECT_EQ(Histogram::BucketFor(1.0), -Histogram::kMinExp);
  EXPECT_EQ(Histogram::BucketFor(1.5), -Histogram::kMinExp);
  EXPECT_EQ(Histogram::BucketFor(2.0), -Histogram::kMinExp + 1);
  EXPECT_EQ(Histogram::BucketFor(0.5), -Histogram::kMinExp - 1);
  // Boundary condition: the bucket's upper bound is exclusive.
  EXPECT_LT(1.99, Histogram::BucketUpperBound(Histogram::BucketFor(1.99)));
  // Degenerate inputs land in the extreme buckets instead of crashing.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0);
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0);
  EXPECT_EQ(Histogram::BucketFor(1e300), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(1e-300), 0);

  Histogram* h = Registry::Global().GetHistogram("test/buckets");
  h->Observe(1.0);
  h->Observe(1.25);
  h->Observe(4.0);
  const auto buckets = h->BucketSnapshot();
  EXPECT_EQ(buckets[static_cast<size_t>(-Histogram::kMinExp)], 2u);
  EXPECT_EQ(buckets[static_cast<size_t>(-Histogram::kMinExp + 2)], 1u);
}

// --- Concurrency -------------------------------------------------------------

TEST_F(ObsTest, ConcurrentCounterIncrementsSumExactly) {
  constexpr size_t kThreads = 8;
  constexpr size_t kIncrementsPerThread = 10000;
  Counter* counter = Registry::Global().GetCounter("test/concurrent");
  util::ThreadPool pool(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([counter] {
      for (size_t i = 0; i < kIncrementsPerThread; ++i) {
        counter->Increment();
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter->Get(), kThreads * kIncrementsPerThread);
}

TEST_F(ObsTest, ConcurrentHistogramObservationsAllCounted) {
  constexpr size_t kThreads = 8;
  constexpr size_t kObservationsPerThread = 10000;
  Histogram* h = Registry::Global().GetHistogram("test/concurrent_hist");
  util::ThreadPool pool(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([h] {
      for (size_t i = 0; i < kObservationsPerThread; ++i) {
        h->Observe(1.0);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(h->Count(), kThreads * kObservationsPerThread);
  EXPECT_DOUBLE_EQ(h->Sum(),
                   static_cast<double>(kThreads * kObservationsPerThread));
  const auto buckets = h->BucketSnapshot();
  EXPECT_EQ(buckets[static_cast<size_t>(-Histogram::kMinExp)],
            kThreads * kObservationsPerThread);
}

TEST_F(ObsTest, ConcurrentSpansFromPoolWorkersAllRecorded) {
  SetEnabled(true);
  constexpr size_t kThreads = 4;
  constexpr size_t kSpansPerThread = 100;
  util::ThreadPool pool(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([] {
      for (size_t i = 0; i < kSpansPerThread; ++i) {
        HOSR_TRACE_SPAN("test/worker_span");
      }
    });
  }
  pool.Wait();
  const auto spans = SnapshotSpans();
  const size_t matching = static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
        return s.name == "test/worker_span";
      }));
  EXPECT_EQ(matching, kThreads * kSpansPerThread);
}

// --- Trace spans -------------------------------------------------------------

TEST_F(ObsTest, NestedSpansRecordContainedIntervals) {
  SetEnabled(true);
  {
    HOSR_TRACE_SPAN("test/outer");
    {
      HOSR_TRACE_SPAN("test/inner");
    }
  }
  const auto spans = SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span closes (and records) first.
  EXPECT_EQ(spans[0].name, "test/inner");
  EXPECT_EQ(spans[1].name, "test/outer");
  EXPECT_GE(spans[0].begin_ns, spans[1].begin_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
}

TEST_F(ObsTest, TraceJsonIsWellFormedChromeTrace) {
  SetEnabled(true);
  {
    HOSR_TRACE_SPAN("test/outer");
    HOSR_TRACE_SPAN("test/inner");
  }
  const std::string json = TraceToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("test/outer"), std::string::npos);
  EXPECT_NE(json.find("test/inner"), std::string::npos);
}

TEST_F(ObsTest, EmptyTraceStillValidJson) {
  EXPECT_TRUE(IsValidJson(TraceToJson()));
}

TEST_F(ObsTest, DisabledCaptureIsNoOp) {
  ASSERT_FALSE(Enabled());
  {
    HOSR_TRACE_SPAN("test/should_not_record");
  }
  EXPECT_TRUE(SnapshotSpans().empty());
  EXPECT_EQ(DroppedSpanCount(), 0u);
}

TEST_F(ObsTest, IndexedSpanNameInternsWhenEnabled) {
  SetEnabled(true);
  const char* a = IndexedSpanName("test/layer_", 3);
  EXPECT_STREQ(a, "test/layer_3");
  // Interning is stable: the same name yields the same pointer.
  EXPECT_EQ(a, IndexedSpanName("test/layer_", 3));
  SetEnabled(false);
  // Disabled: no allocation, the prefix is passed through.
  EXPECT_STREQ(IndexedSpanName("test/layer_", 3), "test/layer_");
}

// --- Registry JSON export ----------------------------------------------------

TEST_F(ObsTest, MetricsJsonIsWellFormedAndComplete) {
  Registry::Global().GetCounter("test/a_counter")->Increment(7);
  Registry::Global().GetGauge("test/a_gauge")->Set(-1.5e-3);
  Histogram* h = Registry::Global().GetHistogram("test/a_hist");
  h->Observe(0.25);
  h->Observe(300.0);
  const std::string json = Registry::Global().ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test/a_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test/a_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test/a_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST_F(ObsTest, EmptyRegistryJsonIsValid) {
  // Fresh names only exist after first use; a reset registry must still
  // serialize to valid JSON.
  EXPECT_TRUE(IsValidJson(Registry::Global().ToJson()));
}

}  // namespace
}  // namespace hosr::obs
