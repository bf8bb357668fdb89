// Tracing (Zipkin analogue) and the historical profile store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "trace/critical_path.h"
#include "trace/profile_store.h"
#include "trace/tracer.h"

namespace vmlp::trace {
namespace {

TEST(Tracer, RequestLifecycle) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 100);
  ASSERT_EQ(tracer.requests().size(), 1u);
  const RequestRecord* rec = tracer.requests()[0];
  EXPECT_EQ(rec->id, RequestId(1));
  EXPECT_FALSE(rec->finished());

  tracer.on_request_completion(RequestId(1), 600);
  EXPECT_TRUE(rec->finished());
  EXPECT_EQ(rec->latency(), 500);
}

TEST(Tracer, DuplicateArrivalThrows) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  EXPECT_THROW(tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 1), InvariantError);
}

TEST(Tracer, CompletionErrors) {
  Tracer tracer;
  EXPECT_THROW(tracer.on_request_completion(RequestId(5), 10), InvariantError);
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 100);
  EXPECT_THROW(tracer.on_request_completion(RequestId(1), 50), InvariantError);  // before arrival
  tracer.on_request_completion(RequestId(1), 200);
  EXPECT_THROW(tracer.on_request_completion(RequestId(1), 300), InvariantError);  // twice
}

TEST(Tracer, SpansByRequestSorted) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(2), InstanceId(1),
                          MachineId(0), 50, 80});
  tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(1), InstanceId(0),
                          MachineId(0), 10, 40});
  const auto spans = tracer.spans_of(RequestId(1));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->service, ServiceTypeId(1));
  EXPECT_EQ(spans[1]->service, ServiceTypeId(2));
  EXPECT_EQ(spans[0]->duration(), 30);
  EXPECT_TRUE(tracer.spans_of(RequestId(9)).empty());
}

TEST(Tracer, BackwardsSpanThrows) {
  Tracer tracer;
  EXPECT_THROW(tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(0),
                                       InstanceId(0), MachineId(0), 100, 50}),
               InvariantError);
}

TEST(Tracer, RequestsInArrivalOrder) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(3), RequestTypeId(0), 0);
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 5);
  tracer.on_request_arrival(RequestId(0), RequestTypeId(0), 5);
  const auto reqs = tracer.requests();
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0]->id, RequestId(3));
  // Equal arrivals order by id.
  EXPECT_EQ(reqs[1]->id, RequestId(0));
  EXPECT_EQ(reqs[2]->id, RequestId(1));
}

TEST(Tracer, ReleaseRecyclesSlotsAndDropsTheRequest) {
  Tracer tracer;
  tracer.reserve(4);
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  tracer.on_request_arrival(RequestId(2), RequestTypeId(0), 1);
  for (SimTime t : {10, 30}) {
    tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(0), InstanceId(0),
                            MachineId(0), t, t + 5});
  }
  tracer.record_span(Span{RequestId(2), RequestTypeId(0), ServiceTypeId(1), InstanceId(1),
                          MachineId(0), 20, 25});
  tracer.on_request_completion(RequestId(1), 40);

  tracer.release_request(RequestId(1));
  // The released request is gone from every per-request view...
  EXPECT_TRUE(tracer.spans_of(RequestId(1)).empty());
  ASSERT_EQ(tracer.requests().size(), 1u);
  EXPECT_EQ(tracer.requests()[0]->id, RequestId(2));
  // ...and the flat view is invalid now that slots recycle in place.
  EXPECT_THROW((void)tracer.spans(), InvariantError);

  // New spans reuse the freed slots; the survivor's chain stays intact.
  tracer.on_request_arrival(RequestId(3), RequestTypeId(0), 50);
  for (SimTime t : {60, 80, 90}) {
    tracer.record_span(Span{RequestId(3), RequestTypeId(0), ServiceTypeId(2), InstanceId(2),
                            MachineId(1), t, t + 5});
  }
  EXPECT_EQ(tracer.spans_of(RequestId(3)).size(), 3u);
  ASSERT_EQ(tracer.spans_of(RequestId(2)).size(), 1u);
  EXPECT_EQ(tracer.spans_of(RequestId(2))[0]->start, 20);
  // Releasing an unknown id is a no-op.
  tracer.release_request(RequestId(99));
}

class ProfileStoreTest : public ::testing::Test {
 protected:
  ServiceTypeId svc_{1};
  RequestTypeId req_{2};
};

TEST_F(ProfileStoreTest, EmptyQueriesReturnNullopt) {
  ProfileStore store;
  EXPECT_FALSE(store.has_history(svc_, req_));
  EXPECT_FALSE(store.max_slack(svc_, req_).has_value());
  EXPECT_FALSE(store.mean_exec(svc_, req_).has_value());
  EXPECT_FALSE(store.quantile_of_recent(svc_, req_, 0.5, 50).has_value());
  EXPECT_TRUE(store.exec_times(svc_, req_).empty());
}

TEST_F(ProfileStoreTest, MeanAndMax) {
  ProfileStore store;
  for (SimDuration t : {10, 20, 30}) store.record(svc_, req_, t);
  EXPECT_EQ(store.case_count(svc_, req_), 3u);
  EXPECT_EQ(*store.mean_exec(svc_, req_), 20);
  EXPECT_EQ(*store.max_slack(svc_, req_), 30);
}

TEST_F(ProfileStoreTest, KeysAreIndependent) {
  ProfileStore store;
  store.record(svc_, req_, 10);
  store.record(ServiceTypeId(9), req_, 99);
  EXPECT_EQ(*store.max_slack(svc_, req_), 10);
  EXPECT_EQ(*store.max_slack(ServiceTypeId(9), req_), 99);
  EXPECT_FALSE(store.has_history(svc_, RequestTypeId(7)));
}

TEST_F(ProfileStoreTest, RingEvictionOldestFirst) {
  ProfileStore store(4);
  for (SimDuration t = 1; t <= 6; ++t) store.record(svc_, req_, t * 10);
  EXPECT_EQ(store.case_count(svc_, req_), 4u);
  // Oldest two (10, 20) evicted.
  const auto times = store.exec_times(svc_, req_);
  EXPECT_EQ(times, (std::vector<SimDuration>{30, 40, 50, 60}));
  EXPECT_EQ(*store.mean_exec(svc_, req_), 45);
}

TEST_F(ProfileStoreTest, QuantileOfRecentWindow) {
  ProfileStore store;
  // 100 cases: 1..100.
  for (SimDuration t = 1; t <= 100; ++t) store.record(svc_, req_, t);
  // Most recent 10%: 91..100 — median 95 or 96.
  const auto q50 = *store.quantile_of_recent(svc_, req_, 0.5, 10.0);
  EXPECT_NEAR(static_cast<double>(q50), 95.5, 1.0);
  // Whole history median ~50.5.
  const auto q50_all = *store.quantile_of_recent(svc_, req_, 0.5, 100.0);
  EXPECT_NEAR(static_cast<double>(q50_all), 50.5, 1.0);
  // p99 of everything ~99.
  const auto q99 = *store.quantile_of_recent(svc_, req_, 0.99, 100.0);
  EXPECT_GE(q99, 98);
}

TEST_F(ProfileStoreTest, QuantileMatchesASortedWindowOnAWrappedRing) {
  // 150 records into a 64-slot ring (it wraps twice), with repeated values:
  // every quantile must equal the interpolation over the fully sorted
  // recent window, bit for bit.
  ProfileStore store(64);
  std::vector<SimDuration> history;
  for (SimDuration i = 0; i < 150; ++i) {
    history.push_back((i * 7919) % 97 * 10);
    store.record(svc_, req_, history.back());
  }
  for (const double x : {1.0, 10.0, 33.0, 50.0, 100.0}) {
    const std::size_t take = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(64.0 * x / 100.0)));
    std::vector<double> recent;
    for (std::size_t i = history.size() - take; i < history.size(); ++i) {
      recent.push_back(static_cast<double>(history[i]));
    }
    std::sort(recent.begin(), recent.end());
    for (const double q : {0.0, 0.1, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double pos = q * static_cast<double>(recent.size() - 1);
      const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
      const std::size_t hi = std::min(lo + 1, recent.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      const auto want =
          static_cast<SimDuration>(std::llround(recent[lo] * (1.0 - frac) + recent[hi] * frac));
      EXPECT_EQ(*store.quantile_of_recent(svc_, req_, q, x), want) << "q " << q << " x " << x;
    }
  }
}

TEST_F(ProfileStoreTest, QuantileTakesAtLeastOne) {
  ProfileStore store;
  store.record(svc_, req_, 42);
  EXPECT_EQ(*store.quantile_of_recent(svc_, req_, 0.99, 1.0), 42);
}

TEST_F(ProfileStoreTest, QuantileParamValidation) {
  ProfileStore store;
  store.record(svc_, req_, 1);
  EXPECT_THROW((void)store.quantile_of_recent(svc_, req_, 1.5, 50), InvariantError);
  EXPECT_THROW((void)store.quantile_of_recent(svc_, req_, 0.5, 0.0), InvariantError);
  EXPECT_THROW((void)store.quantile_of_recent(svc_, req_, 0.5, 101.0), InvariantError);
}

TEST_F(ProfileStoreTest, CachedQuantileRefreshesAfterStaleness) {
  ProfileStore store;
  for (int i = 0; i < 10; ++i) store.record(svc_, req_, 10);
  EXPECT_EQ(*store.quantile_of_recent(svc_, req_, 0.5, 100.0), 10);
  // Flood with much larger values: after the staleness window the cached
  // quantile must reflect them.
  for (std::uint64_t i = 0; i < 2 * ProfileStore::kCacheStaleness; ++i) {
    store.record(svc_, req_, 1000);
  }
  EXPECT_EQ(*store.quantile_of_recent(svc_, req_, 0.5, 100.0), 1000);
}

TEST_F(ProfileStoreTest, CachedMaxRefreshes) {
  ProfileStore store(512);
  store.record(svc_, req_, 10);
  EXPECT_EQ(*store.max_slack(svc_, req_), 10);
  for (std::uint64_t i = 0; i < 2 * ProfileStore::kCacheStaleness; ++i) {
    store.record(svc_, req_, 500);
  }
  EXPECT_EQ(*store.max_slack(svc_, req_), 500);
}

TEST_F(ProfileStoreTest, IncrementalMeanMatchesRecomputeUnderEviction) {
  ProfileStore store(8);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    store.record(svc_, req_, rng.uniform_int(1, 1000));
    const auto times = store.exec_times(svc_, req_);
    double sum = 0.0;
    for (auto t : times) sum += static_cast<double>(t);
    EXPECT_EQ(*store.mean_exec(svc_, req_),
              static_cast<SimDuration>(std::llround(sum / static_cast<double>(times.size()))));
  }
}

TEST_F(ProfileStoreTest, ZeroCapacityThrows) { EXPECT_THROW(ProfileStore(0), InvariantError); }

TEST_F(ProfileStoreTest, NegativeExecTimeThrows) {
  ProfileStore store;
  EXPECT_THROW(store.record(svc_, req_, -1), InvariantError);
}

// ---- failure-phase ledger -------------------------------------------------

Span waited_span(SimTime startable_at, SimTime start) {
  Span s;
  s.startable_at = startable_at;
  s.start = start;
  s.end = start + 10;
  return s;
}

TEST(PhaseLedger, EmptyLedgerStampsNothing) {
  PhaseLedger ledger;
  Span s = waited_span(100, 500);
  ledger.stamp(s);
  EXPECT_EQ(s.lost_exec_us, 0);
  EXPECT_EQ(s.backoff_us, 0);
  EXPECT_EQ(s.heal_us, 0);
}

TEST(PhaseLedger, RetryCycleClipsToTheFinalWaitWindow) {
  // Attempt ran [100, 400) and died; backoff [400, 450); heal until the
  // re-placement at 480. The final attempt became startable at 200 and
  // started at 600, so the lost execution before 200 falls outside.
  PhaseLedger ledger;
  ledger.lost_exec(100, 400);
  ledger.backoff(400, 450);
  ledger.close_heal(480);
  Span s = waited_span(200, 600);
  ledger.stamp(s);
  EXPECT_EQ(s.lost_exec_us, 200);
  EXPECT_EQ(s.backoff_us, 50);
  EXPECT_EQ(s.heal_us, 30);
}

TEST(PhaseLedger, HealKeepsTheFirstLossAndCloses) {
  PhaseLedger ledger;
  ledger.open_heal(100);
  ledger.open_heal(150);  // still waiting since 100
  ledger.close_heal(300);
  ledger.close_heal(400);  // nothing open: no second interval
  Span s = waited_span(0, 1000);
  ledger.stamp(s);
  EXPECT_EQ(s.heal_us, 200);
}

TEST(PhaseLedger, NeverStartedAttemptsAndEmptyIntervalsAddNothing) {
  PhaseLedger ledger;
  ledger.lost_exec(-1, 300);  // the attempt never started
  ledger.lost_exec(300, 300);
  ledger.open_heal(500);
  ledger.close_heal(500);  // re-placed in the same instant
  Span s = waited_span(0, 1000);
  ledger.stamp(s);
  EXPECT_EQ(s.lost_exec_us, 0);
  EXPECT_EQ(s.heal_us, 0);
}

}  // namespace
}  // namespace vmlp::trace
