// Common utilities: SimTime formatting, strong ids, Config,
// annotated synchronization primitives.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/mutex.h"
#include "common/types.h"

namespace vmlp {
namespace {

TEST(Types, FormatTime) {
  EXPECT_EQ(format_time(500), "500us");
  EXPECT_EQ(format_time(1500), "1.500ms");
  EXPECT_EQ(format_time(2 * kSec + 500 * kMsec), "2.500s");
  EXPECT_EQ(format_time(kTimeInfinity), "+inf");
  EXPECT_EQ(format_time(-1500), "-1.500ms");
}

TEST(Types, TimeConstants) {
  EXPECT_EQ(kMsec, 1000);
  EXPECT_EQ(kSec, 1000000);
}

TEST(StrongId, DefaultIsInvalid) {
  MachineId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, MachineId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  MachineId id(5);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 5u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(MachineId(1), MachineId(2));
  EXPECT_NE(MachineId(1), MachineId(2));
  EXPECT_EQ(MachineId(3), MachineId(3));
}

TEST(StrongId, DistinctIdSpacesAreDistinctTypes) {
  static_assert(!std::is_same_v<MachineId, ServiceTypeId>);
  static_assert(!std::is_same_v<RequestId, InstanceId>);
}

TEST(StrongId, Hashable) {
  std::hash<MachineId> h;
  EXPECT_EQ(h(MachineId(4)), h(MachineId(4)));
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    VMLP_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) { VMLP_CHECK(1 + 1 == 2); }

// The check macros' contract: the condition is evaluated once at the call
// site, the message only on failure (the failure path is a cold out-of-line
// function), and what() keeps its exact text.

TEST(Error, CheckEvaluatesConditionExactlyOnce) {
  int evals = 0;
  VMLP_CHECK(++evals > 0);
  EXPECT_EQ(evals, 1);
  VMLP_CHECK_MSG(++evals > 0, "unused");
  EXPECT_EQ(evals, 2);
  EXPECT_THROW(VMLP_CHECK(++evals < 0), InvariantError);
  EXPECT_EQ(evals, 3);
  EXPECT_THROW(VMLP_CHECK_MSG(++evals < 0, "x"), InvariantError);
  EXPECT_EQ(evals, 4);
}

TEST(Error, CheckMessageEvaluatedOnlyOnFailure) {
  int streamed = 0;
  auto count = [&streamed] { return ++streamed; };
  VMLP_CHECK_MSG(true, "count " << count());
  EXPECT_EQ(streamed, 0);
  try {
    VMLP_CHECK_MSG(false, "count " << count() << " and " << count());
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_EQ(streamed, 2);
    EXPECT_NE(std::string(e.what()).find("count 1 and 2"), std::string::npos);
  }
}

TEST(Error, CheckWhatTextIsExact) {
  int line = 0;
  try {
    line = __LINE__ + 1;
    VMLP_CHECK(1 + 1 == 3);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()), std::string("invariant failed: 1 + 1 == 3 at ") +
                                         __FILE__ + ":" + std::to_string(line));
  }
  try {
    line = __LINE__ + 1;
    VMLP_CHECK_MSG(2 < 1, "two is " << 2);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()), std::string("invariant failed: 2 < 1 at ") + __FILE__ +
                                         ":" + std::to_string(line) + " — two is 2");
  }
  // An empty message adds no separator, exactly like VMLP_CHECK.
  try {
    line = __LINE__ + 1;
    VMLP_CHECK_MSG(false, "");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()), std::string("invariant failed: false at ") + __FILE__ +
                                         ":" + std::to_string(line));
  }
}

class CheckedBox {
 public:
  explicit CheckedBox(int limit) : limit_(limit) {}
  [[nodiscard]] int get(int i) const {
    VMLP_CHECK_MSG(i < limit_, "index " << i << " >= limit " << limit_);
    return i;
  }

 private:
  int limit_;
};

TEST(Error, CheckInConstMemberFunction) {
  const CheckedBox box(3);
  EXPECT_EQ(box.get(2), 2);
  try {
    (void)box.get(5);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("index 5 >= limit 3"), std::string::npos);
  }
}

TEST(Error, CheckInLambdaStreamsCapturedLocals) {
  const std::string name = "ledger";
  const int slots = 4;
  auto check = [name, &slots](int want) {
    VMLP_CHECK_MSG(want <= slots, name << " has " << slots << " slots, asked " << want);
    VMLP_CHECK(want >= 0);
  };
  EXPECT_NO_THROW(check(4));
  try {
    check(9);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("ledger has 4 slots, asked 9"), std::string::npos);
  }
  EXPECT_THROW(check(-1), InvariantError);
}

TEST(Config, ParseBasic) {
  const auto cfg = Config::parse("a = 1\nb = hello\n# comment\n; also comment\n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "hello");
  EXPECT_EQ(cfg.size(), 2u);
}

TEST(Config, SectionsFlattenToDottedKeys) {
  const auto cfg = Config::parse("[cluster]\nmachines = 100\n[sim]\nseed = 7\n");
  EXPECT_EQ(cfg.get_int("cluster.machines", 0), 100);
  EXPECT_EQ(cfg.get_int("sim.seed", 0), 7);
}

TEST(Config, TypedGettersWithDefaults) {
  const auto cfg = Config::parse("x = 2.5\nflag = true\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 9), 9);
  EXPECT_EQ(cfg.get_string("missing", "d"), "d");
}

TEST(Config, BoolSpellings) {
  const auto cfg = Config::parse("a=true\nb=1\nc=yes\nd=on\ne=false\nf=0\ng=no\nh=off\n");
  for (const char* k : {"a", "b", "c", "d"}) EXPECT_TRUE(cfg.get_bool(k, false)) << k;
  for (const char* k : {"e", "f", "g", "h"}) EXPECT_FALSE(cfg.get_bool(k, true)) << k;
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(Config::parse("novalue\n"), ConfigError);
  EXPECT_THROW(Config::parse("[unterminated\n"), ConfigError);
  EXPECT_THROW(Config::parse("[]\nx=1\n"), ConfigError);
  EXPECT_THROW(Config::parse("= value\n"), ConfigError);
}

TEST(Config, BadTypedValuesThrow) {
  const auto cfg = Config::parse("x = notanumber\n");
  EXPECT_THROW((void)cfg.get_int("x", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_double("x", 0.0), ConfigError);
  EXPECT_THROW((void)cfg.get_bool("x", false), ConfigError);
}

TEST(Config, ParseFileMissingThrows) {
  EXPECT_THROW(Config::parse_file("/nonexistent/path/cfg.ini"), ConfigError);
}

TEST(Mutex, GuardedCounterIsRaceFree) {
  Mutex mu;
  int counter VMLP_GUARDED_BY(mu) = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(Mutex, TryLockReflectsOwnership) {
  Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  // A second owner must be refused while held (probe from another thread:
  // try_lock on the owning thread is UB for std::mutex).
  bool acquired = true;
  std::thread probe([&] { acquired = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.unlock();
}

TEST(CondVar, WakesWaiterWhenConditionHolds) {
  Mutex mu;
  CondVar cv;
  bool ready VMLP_GUARDED_BY(mu) = false;
  bool observed = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    observed = true;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(observed);
}

}  // namespace
}  // namespace vmlp
