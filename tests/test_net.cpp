// Network substrate: topology distances, communication-delay model, Table II
// C-term classification.
#include <gtest/gtest.h>

#include "common/error.h"
#include "net/comm_model.h"
#include "net/topology.h"
#include "stats/summary.h"

namespace vmlp::net {
namespace {

TEST(Topology, RackAssignment) {
  Topology t(100, 20);
  EXPECT_EQ(t.rack_of(MachineId(0)), 0u);
  EXPECT_EQ(t.rack_of(MachineId(19)), 0u);
  EXPECT_EQ(t.rack_of(MachineId(20)), 1u);
  EXPECT_EQ(t.rack_of(MachineId(99)), 4u);
}

TEST(Topology, PartialLastRack) {
  Topology t(25, 10);
  EXPECT_EQ(t.rack_of(MachineId(24)), 2u);
}

TEST(Topology, Distances) {
  Topology t(40, 10);
  EXPECT_EQ(t.distance(MachineId(3), MachineId(3)), Distance::kSameMachine);
  EXPECT_EQ(t.distance(MachineId(3), MachineId(7)), Distance::kSameRack);
  EXPECT_EQ(t.distance(MachineId(3), MachineId(17)), Distance::kCrossRack);
}

TEST(Topology, OutOfRangeThrows) {
  Topology t(10, 5);
  EXPECT_THROW((void)t.rack_of(MachineId(10)), InvariantError);
  EXPECT_THROW((void)t.rack_of(MachineId()), InvariantError);
}

class CommModelTest : public ::testing::Test {
 protected:
  Topology topology_{40, 10};
  CommModelParams params_{};
};

TEST_F(CommModelTest, MeansOrderedByDistance) {
  CommModel model(topology_, params_, Rng(1));
  stats::Summary same, rack, cross;
  for (int i = 0; i < 20000; ++i) {
    same.add(static_cast<double>(model.sample_delay(Distance::kSameMachine)));
    rack.add(static_cast<double>(model.sample_delay(Distance::kSameRack)));
    cross.add(static_cast<double>(model.sample_delay(Distance::kCrossRack)));
  }
  EXPECT_LT(same.mean(), rack.mean());
  EXPECT_LT(rack.mean(), cross.mean());
  // Fig. 4: intra-machine delays are also more stable.
  EXPECT_LT(same.stddev(), cross.stddev());
}

TEST_F(CommModelTest, SampleByMachinePairUsesDistance) {
  CommModel model(topology_, params_, Rng(2));
  stats::Summary same, cross;
  for (int i = 0; i < 5000; ++i) {
    same.add(static_cast<double>(model.sample_delay(MachineId(1), MachineId(1))));
    cross.add(static_cast<double>(model.sample_delay(MachineId(1), MachineId(35))));
  }
  EXPECT_LT(same.mean() * 2.0, cross.mean());
}

TEST_F(CommModelTest, DelaysArePositive) {
  CommModel model(topology_, params_, Rng(3));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(model.sample_delay(Distance::kSameMachine), 1);
  }
}

TEST_F(CommModelTest, CongestionCreatesHeavyTail) {
  CommModelParams no_congestion = params_;
  no_congestion.congestion_prob = 0.0;
  CommModelParams heavy = params_;
  heavy.congestion_prob = 0.2;

  CommModel clean(topology_, no_congestion, Rng(4));
  CommModel congested(topology_, heavy, Rng(4));
  stats::Summary clean_s, congested_s;
  for (int i = 0; i < 20000; ++i) {
    clean_s.add(static_cast<double>(clean.sample_delay(Distance::kCrossRack)));
    congested_s.add(static_cast<double>(congested.sample_delay(Distance::kCrossRack)));
  }
  EXPECT_GT(congested_s.max(), clean_s.max());
  EXPECT_GT(congested_s.mean(), clean_s.mean());
}

TEST_F(CommModelTest, Deterministic) {
  CommModel a(topology_, params_, Rng(7));
  CommModel b(topology_, params_, Rng(7));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.sample_delay(Distance::kSameRack), b.sample_delay(Distance::kSameRack));
  }
}

TEST_F(CommModelTest, BadParamsThrow) {
  CommModelParams bad = params_;
  bad.congestion_prob = 1.5;
  EXPECT_THROW(CommModel(topology_, bad, Rng(1)), InvariantError);
  bad = params_;
  bad.same_machine_mean_us = -1.0;
  EXPECT_THROW(CommModel(topology_, bad, Rng(1)), InvariantError);
  bad = params_;
  bad.congestion_mult_hi = bad.congestion_mult_lo - 1.0;
  EXPECT_THROW(CommModel(topology_, bad, Rng(1)), InvariantError);
}

TEST(CommClass, TableIIThresholds) {
  EXPECT_EQ(comm_class_from_variance(0.0), 1);
  EXPECT_EQ(comm_class_from_variance(99.9), 1);
  EXPECT_EQ(comm_class_from_variance(100.0), 2);
  EXPECT_EQ(comm_class_from_variance(399.9), 2);
  EXPECT_EQ(comm_class_from_variance(400.0), 3);
  EXPECT_EQ(comm_class_from_variance(10000.0), 3);
}

TEST_F(CommModelTest, EstimatedClassGrowsWithDistance) {
  CommModel model(topology_, params_, Rng(11));
  const int same = model.estimate_comm_class(Distance::kSameMachine, 200, 99);
  const int cross = model.estimate_comm_class(Distance::kCrossRack, 200, 99);
  EXPECT_LE(same, cross);
  EXPECT_GE(same, 1);
  EXPECT_LE(cross, 3);
}

TEST_F(CommModelTest, EstimateNeedsTwoProbes) {
  CommModel model(topology_, params_, Rng(11));
  EXPECT_THROW(model.estimate_comm_class(Distance::kSameRack, 1, 5), InvariantError);
}

}  // namespace
}  // namespace vmlp::net
