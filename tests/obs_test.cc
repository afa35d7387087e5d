// Tests for the observability layer (src/obs/): metrics registry
// correctness under concurrency, histogram bucket semantics, snapshot
// deltas, the steady-clock helpers, and the span tracer (ring wraparound,
// Chrome JSON export/parse round trip, and a threaded hot path that gives
// TSan something to chew on).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "temp_dir.h"

namespace rtgcn::obs {
namespace {

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

TEST(CounterTest, ExactTotalsUnderConcurrency) {
  Registry registry;
  Counter* counter = registry.GetCounter("test.hits");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByN) {
  Registry registry;
  Counter& c = *registry.GetCounter("test.by_n");
  c.Increment(3);
  c.Increment(4);
  c.Increment();
  EXPECT_EQ(c.Value(), 8u);
}

TEST(RegistryTest, SameNameSameMetric) {
  Registry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
  Histogram* h = registry.GetHistogram("h", BucketSpec::Exponential2(8));
  // A different spec on re-lookup returns the existing histogram unchanged.
  EXPECT_EQ(registry.GetHistogram("h", BucketSpec::LinearUnit(4)), h);
  EXPECT_EQ(h->num_buckets(), 8);
}

TEST(GaugeTest, LastWriteWins) {
  Registry registry;
  Gauge* g = registry.GetGauge("test.lr");
  g->Set(0.001);
  g->Set(0.0005);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0005);
}

TEST(BucketSpecTest, Exponential2Boundaries) {
  const BucketSpec spec = BucketSpec::Exponential2(5);
  EXPECT_EQ(spec.lower_bounds, (std::vector<uint64_t>{0, 1, 2, 4, 8}));
  Histogram h(spec);
  // bucket 0 = {0}, bucket b = [2^(b-1), 2^b), last unbounded above.
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  h.Record(7);
  h.Record(8);
  h.Record(1u << 30);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.BucketCount(4), 2u);
  EXPECT_EQ(h.Count(), 8u);
}

TEST(BucketSpecTest, LinearUnitBoundaries) {
  const BucketSpec spec = BucketSpec::LinearUnit(3);
  EXPECT_EQ(spec.lower_bounds, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  Histogram h(spec);
  h.Record(0);
  h.Record(3);
  h.Record(3);
  h.Record(9);  // overflow bucket
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.BucketCount(4), 1u);
}

TEST(HistogramTest, ExactCountAndSumUnderConcurrency) {
  Histogram h(BucketSpec::Exponential2(20));
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(i % 128);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) per_thread_sum += i % 128;
  EXPECT_EQ(h.Sum(), kThreads * per_thread_sum);
}

TEST(HistogramTest, PercentileWithinBucketResolution) {
  Histogram h(BucketSpec::Exponential2(20));
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<uint64_t>(i));
  const double p50 = h.Percentile(0.50);
  // True median is 500; bucket [512, 1024) neighbors bound the error.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_GE(h.Percentile(0.99), h.Percentile(0.50));
  EXPECT_NEAR(h.Mean(), 500.5, 1e-6);
}

TEST(RegistryTest, DumpTextRendersEveryKind) {
  Registry registry;
  registry.GetCounter("req.total")->Increment(3);
  registry.GetGauge("lr")->Set(0.5);
  registry.GetHistogram("lat", BucketSpec::Exponential2(8))->Record(5);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("req.total 3"), std::string::npos);
  EXPECT_NE(text.find("lr 0.5"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 5"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket"), std::string::npos);
}

TEST(SnapshotTest, DeltaSinceIsolatesInterval) {
  Registry registry;
  Counter* c = registry.GetCounter("steps");
  Histogram* h = registry.GetHistogram("us", BucketSpec::Exponential2(20));
  c->Increment(10);
  h->Record(100);
  const RegistrySnapshot base = registry.Snapshot();
  c->Increment(7);
  h->Record(200);
  h->Record(300);
  const RegistrySnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.CounterValue("steps"), 7u);
  const HistogramSnapshot* hs = delta.FindHistogram("us");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->sum, 500u);
  // Percentiles still work on the delta's buckets.
  EXPECT_GT(hs->Percentile(0.5), 100.0);
}

TEST(SnapshotTest, MetricsAbsentFromBasePassThrough) {
  Registry registry;
  const RegistrySnapshot base = registry.Snapshot();
  registry.GetCounter("born.later")->Increment(4);
  const RegistrySnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.CounterValue("born.later"), 4u);
  EXPECT_EQ(delta.CounterValue("never.existed", 42), 42u);
}

// --------------------------------------------------------------------------
// Clock
// --------------------------------------------------------------------------

std::atomic<uint64_t> g_fake_now{0};
uint64_t FakeClock() { return g_fake_now.load(std::memory_order_relaxed); }

class FakeClockScope {
 public:
  explicit FakeClockScope(uint64_t now) {
    g_fake_now.store(now);
    SetClockForTesting(&FakeClock);
  }
  ~FakeClockScope() { SetClockForTesting(nullptr); }
};

TEST(ClockTest, ElapsedClampsBackwardMovement) {
  FakeClockScope clock(1000);
  const uint64_t start = NowMicros();
  g_fake_now.store(1500);
  EXPECT_EQ(ElapsedMicrosSince(start), 500u);
  // A skewed/overridden clock moving backwards must clamp to zero, not
  // wrap to ~2^64: latencies derived from it stay non-negative.
  g_fake_now.store(200);
  EXPECT_EQ(ElapsedMicrosSince(start), 0u);
}

TEST(ClockTest, SkewedLatenciesStayFiniteInHistogram) {
  FakeClockScope clock(5000);
  Histogram h(BucketSpec::Exponential2(40));
  const uint64_t start = NowMicros();
  for (uint64_t now : {6000ull, 400ull, 7000ull}) {  // forward, back, forward
    g_fake_now.store(now);
    h.Record(ElapsedMicrosSince(start));
  }
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 1000u + 0u + 2000u);
  EXPECT_GE(h.Percentile(0.99), 0.0);
}

TEST(ClockTest, RealClockIsMonotoneNonNegative) {
  uint64_t prev = NowMicros();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = NowMicros();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// --------------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------------

// Every tracer test owns the global tracer state for its duration.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::SetEnabled(false);
    Tracer::Clear();
  }
  void TearDown() override {
    Tracer::SetEnabled(false);
    Tracer::Clear();
  }
};

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  { Span span("obs_test.noop", "test"); }
  EXPECT_EQ(Tracer::EventCount(), 0u);
}

TEST_F(TracerTest, EnabledSpansAreRecorded) {
  Tracer::SetEnabled(true);
  { Span span("obs_test.alpha", "test"); }
  { Span span("obs_test.beta", "test"); }
  Tracer::SetEnabled(false);
  EXPECT_EQ(Tracer::EventCount(), 2u);
  EXPECT_EQ(Tracer::DroppedCount(), 0u);
}

TEST_F(TracerTest, RingWrapsAndCountsDrops) {
  Tracer::SetEnabled(true);
  constexpr size_t kSpans = 50000;  // > per-thread ring capacity (32768)
  for (size_t i = 0; i < kSpans; ++i) {
    Span span("obs_test.wrap", "test");
  }
  Tracer::SetEnabled(false);
  const size_t held = Tracer::EventCount();
  const size_t dropped = Tracer::DroppedCount();
  EXPECT_LT(held, kSpans);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(held + dropped, kSpans);
}

TEST_F(TracerTest, ChromeJsonExportParsesBack) {
  Tracer::SetEnabled(true);
  { Span span("obs_test.outer", "test"); }
  { Span span("obs_test.inner", "test2"); }
  Tracer::SetEnabled(false);

  std::ostringstream os;
  Tracer::WriteChromeJson(os);
  const std::string json = os.str();

  std::vector<TraceEventRecord> events;
  std::string error;
  ASSERT_TRUE(ParseChromeTraceJson(json, &events, &error)) << error;

  bool saw_outer = false, saw_inner = false, saw_metadata = false;
  for (const auto& e : events) {
    if (e.ph == "M") saw_metadata = true;
    if (e.ph != "X") continue;
    EXPECT_GE(e.dur, 0.0);
    EXPECT_GE(e.ts, 0.0);
    if (e.name == "obs_test.outer") {
      saw_outer = true;
      EXPECT_EQ(e.cat, "test");
    }
    if (e.name == "obs_test.inner") {
      saw_inner = true;
      EXPECT_EQ(e.cat, "test2");
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_metadata);
}

TEST_F(TracerTest, SkewedClockYieldsZeroNotNegativeDuration) {
  Tracer::SetEnabled(true);
  {
    FakeClockScope clock(1000);
    Span span("obs_test.skewed", "test");
    g_fake_now.store(100);  // clock runs backwards inside the span
  }
  Tracer::SetEnabled(false);
  std::ostringstream os;
  Tracer::WriteChromeJson(os);
  std::vector<TraceEventRecord> events;
  std::string error;
  ASSERT_TRUE(ParseChromeTraceJson(os.str(), &events, &error)) << error;
  bool found = false;
  for (const auto& e : events) {
    if (e.name != "obs_test.skewed") continue;
    found = true;
    EXPECT_EQ(e.dur, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(TracerTest, ParserRejectsMalformedDocuments) {
  std::vector<TraceEventRecord> events;
  std::string error;
  EXPECT_FALSE(ParseChromeTraceJson("", &events, &error));
  EXPECT_FALSE(ParseChromeTraceJson("{\"traceEvents\": 7}", &events, &error));
  EXPECT_FALSE(
      ParseChromeTraceJson("{\"traceEvents\": [", &events, &error));
  EXPECT_FALSE(ParseChromeTraceJson("not json at all", &events, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(TracerTest, ParserAcceptsBareArray) {
  std::vector<TraceEventRecord> events;
  std::string error;
  ASSERT_TRUE(ParseChromeTraceJson(
      R"([{"name":"x","cat":"c","ph":"X","ts":1.5,"dur":2.5,"pid":1,"tid":9}])",
      &events, &error))
      << error;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "x");
  EXPECT_DOUBLE_EQ(events[0].ts, 1.5);
  EXPECT_DOUBLE_EQ(events[0].dur, 2.5);
  EXPECT_EQ(events[0].tid, 9);
}

// Threaded hot path: several recorder threads race an exporter. Run under
// TSan (RTGCN_SANITIZE=thread) this is the data-race regression test for
// the per-ring locking scheme.
TEST_F(TracerTest, ConcurrentRecordAndExportIsSafe) {
  Tracer::SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("obs_test.race", "test");
      }
    });
  }
  std::thread exporter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream os;
      Tracer::WriteChromeJson(os);
      std::vector<TraceEventRecord> events;
      std::string error;
      ASSERT_TRUE(ParseChromeTraceJson(os.str(), &events, &error)) << error;
    }
  });
  for (auto& t : recorders) t.join();
  stop.store(true);
  exporter.join();
  Tracer::SetEnabled(false);
  EXPECT_EQ(Tracer::EventCount() + Tracer::DroppedCount(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST_F(TracerTest, ExportToFileRoundTrips) {
  Tracer::SetEnabled(true);
  { Span span("obs_test.file", "test"); }
  Tracer::SetEnabled(false);
  const ScopedTempDir dir("obs_test_trace");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/trace.json";
  std::string error;
  ASSERT_TRUE(Tracer::ExportChromeJson(path, &error)) << error;
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  EXPECT_FALSE(
      Tracer::ExportChromeJson("/nonexistent-dir/zzz/trace.json", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace rtgcn::obs
