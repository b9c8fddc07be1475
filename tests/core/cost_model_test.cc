#include "core/cost_model.h"

#include "common/rng.h"
#include "core/knn_query.h"
#include "core/range_query.h"
#include "test_util.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

TEST(CostEq20Test, HandComputedValue) {
  // Ck = C_DA * sum DA_all + CA_leaf * C_cmp * sum (DA_leaf * NT).
  const std::vector<GroupRunStats> groups = {
      GroupRunStats{100, 20, 8, 50},
      GroupRunStats{60, 10, 8, 30},
  };
  const CostConstants constants{1.0, 0.4};
  const double expected = 1.0 * (100 + 60) + 30.0 * 0.4 * (20 * 8 + 10 * 8);
  EXPECT_NEAR(CostEq20(groups, 30.0, constants), expected, 1e-9);
}

TEST(CostEq20Test, EmptyGroupsCostNothing) {
  EXPECT_EQ(CostEq20({}, 39.0), 0.0);
}

TEST(CostEq20Test, PaperConstantsAreDefault) {
  const CostConstants constants;
  EXPECT_EQ(constants.c_da, 1.0);
  EXPECT_EQ(constants.c_cmp, 0.4);
}

class CostEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testutil::Stocks(300, 128, 21),
                                         transform::FeatureLayout{});
    index_ = std::make_unique<SequenceIndex>(*dataset_);
    estimator_ = std::make_unique<TreeCostEstimator>(*index_);
  }
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SequenceIndex> index_;
  std::unique_ptr<TreeCostEstimator> estimator_;
};

TEST_F(CostEstimatorTest, LeafCapacityMatchesIndex) {
  EXPECT_NEAR(estimator_->leaf_capacity(), index_->AverageLeafCapacity(),
              1e-9);
  EXPECT_GT(estimator_->leaf_capacity(), 1.0);
}

TEST_F(CostEstimatorTest, EstimateIsPositiveAndBounded) {
  const auto& layout = dataset_->layout();
  std::vector<transform::FeatureTransform> group;
  for (const auto& t : transform::MovingAverageRange(128, 5, 20)) {
    group.push_back(t.ToFeatureTransform(layout));
  }
  const auto estimate = estimator_->EstimateTraversal(group, 0.5, layout);
  EXPECT_GT(estimate.da_all, 0.0);
  EXPECT_GE(estimate.da_all, estimate.da_leaf);
  // Never more than the whole tree.
  std::size_t total_nodes = 0;
  ASSERT_TRUE(index_->tree()
                  .VisitNodes([&](const rstar::RStarTree::NodeView&) {
                    ++total_nodes;
                  })
                  .ok());
  EXPECT_LE(estimate.da_all, static_cast<double>(total_nodes) + 1e-9);
}

TEST_F(CostEstimatorTest, WiderMbrCostsMore) {
  // A wider transformation rectangle must not be estimated cheaper.
  const auto& layout = dataset_->layout();
  std::vector<transform::FeatureTransform> narrow, wide;
  for (const auto& t : transform::MovingAverageRange(128, 10, 12)) {
    narrow.push_back(t.ToFeatureTransform(layout));
  }
  for (const auto& t : transform::MovingAverageRange(128, 1, 40)) {
    wide.push_back(t.ToFeatureTransform(layout));
  }
  const auto narrow_est = estimator_->EstimateTraversal(narrow, 0.5, layout);
  const auto wide_est = estimator_->EstimateTraversal(wide, 0.5, layout);
  EXPECT_GE(wide_est.da_all, narrow_est.da_all);
}

TEST_F(CostEstimatorTest, LargerEpsilonCostsMore) {
  const auto& layout = dataset_->layout();
  std::vector<transform::FeatureTransform> group = {
      transform::MovingAverageTransform(128, 10).ToFeatureTransform(layout)};
  const auto small = estimator_->EstimateTraversal(group, 0.1, layout);
  const auto large = estimator_->EstimateTraversal(group, 2.0, layout);
  EXPECT_GE(large.da_all, small.da_all);
}

TEST_F(CostEstimatorTest, GroupCostGrowsWithGroupSize) {
  // Eq. 19: the comparison term is linear in NT(r).
  const auto& layout = dataset_->layout();
  std::vector<transform::FeatureTransform> group = {
      transform::MovingAverageTransform(128, 10).ToFeatureTransform(layout),
      transform::MovingAverageTransform(128, 11).ToFeatureTransform(layout)};
  const double two = EstimateGroupCost(*estimator_, group, 0.5, layout);
  group.push_back(
      transform::MovingAverageTransform(128, 12).ToFeatureTransform(layout));
  const double three = EstimateGroupCost(*estimator_, group, 0.5, layout);
  EXPECT_GT(three, two);
}

TEST_F(CostEstimatorTest, MeasuredCostTracksRuntimeOrdering) {
  // The Fig. 8 claim, in miniature: the Eq. 20 cost evaluated on *measured*
  // group counters ranks "all singletons" (ST-like) worse than moderate
  // grouping for a 16-transform MA workload.
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(dataset_->normal(0));
  spec.transforms = transform::MovingAverageRange(128, 10, 25);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);

  const double leaf_capacity = index_->AverageLeafCapacity();
  auto cost_for = [&](std::size_t per_group) {
    spec.partition =
        transform::PartitionBySize(spec.transforms.size(), per_group);
    ExecOptions options;
    options.planner.algorithm = Algorithm::kMtIndex;
    std::vector<GroupRunStats> groups;
    auto result = RunRangeQuery(*dataset_, *index_, spec, options, &groups);
    EXPECT_TRUE(result.ok());
    return CostEq20(groups, leaf_capacity);
  };
  const double singletons = cost_for(1);
  const double grouped = cost_for(8);
  EXPECT_LT(grouped, singletons);
}

// ---- randomized property tests (Eq. 18-20) ---------------------------------

TEST(CostEq20PropertyTest, NonNegativeOnRandomCounters) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<GroupRunStats> groups(rng.UniformInt(0, 5));
    for (auto& g : groups) {
      g.da_all = rng.UniformInt(0, 1000);
      g.da_leaf = rng.UniformInt(0, 200);
      g.transforms = rng.UniformInt(0, 64);
      g.candidates = rng.UniformInt(0, 500);
    }
    const CostConstants constants{rng.Uniform(0.0, 4.0),
                                  rng.Uniform(0.0, 2.0)};
    EXPECT_GE(CostEq20(groups, rng.Uniform(1.0, 64.0), constants), 0.0);
  }
}

TEST(CostEq20PropertyTest, MonotoneInEveryCounter) {
  // Bumping any counter of any group never makes the query look cheaper.
  Rng rng(102);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<GroupRunStats> groups(1 + rng.UniformInt(0, 3));
    for (auto& g : groups) {
      g.da_all = rng.UniformInt(0, 100);
      g.da_leaf = rng.UniformInt(0, 50);
      g.transforms = rng.UniformInt(0, 16);
    }
    const double leaf_capacity = rng.Uniform(1.0, 40.0);
    const double base = CostEq20(groups, leaf_capacity);
    const std::size_t which = rng.UniformInt(0, groups.size() - 1);
    const std::uint64_t bump = 1 + rng.UniformInt(0, 9);

    auto bumped = groups;
    bumped[which].da_all += bump;
    EXPECT_GE(CostEq20(bumped, leaf_capacity), base);
    bumped = groups;
    bumped[which].da_leaf += bump;
    EXPECT_GE(CostEq20(bumped, leaf_capacity), base);
    bumped = groups;
    bumped[which].transforms += bump;
    EXPECT_GE(CostEq20(bumped, leaf_capacity), base);
  }
}

TEST(CostEq20PropertyTest, AdditiveOverGroups) {
  // Eq. 20 is a sum of per-rectangle terms (Eq. 19), so splitting the group
  // list changes nothing.
  Rng rng(103);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<GroupRunStats> groups(2 + rng.UniformInt(0, 4));
    for (auto& g : groups) {
      g.da_all = rng.UniformInt(0, 100);
      g.da_leaf = rng.UniformInt(0, 50);
      g.transforms = rng.UniformInt(0, 16);
    }
    const double leaf_capacity = rng.Uniform(1.0, 40.0);
    const std::size_t cut = 1 + rng.UniformInt(0, groups.size() - 2);
    const std::vector<GroupRunStats> head(groups.begin(),
                                          groups.begin() + cut);
    const std::vector<GroupRunStats> tail(groups.begin() + cut, groups.end());
    EXPECT_NEAR(CostEq20(groups, leaf_capacity),
                CostEq20(head, leaf_capacity) + CostEq20(tail, leaf_capacity),
                1e-9);
  }
}

TEST_F(CostEstimatorTest, EstimateMonotoneInEpsilonRandomized) {
  const auto& layout = dataset_->layout();
  Rng rng(104);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t lo = 1 + rng.UniformInt(0, 20);
    const std::size_t hi = lo + 1 + rng.UniformInt(0, 10);
    std::vector<transform::FeatureTransform> group;
    for (const auto& t : transform::MovingAverageRange(128, lo, hi)) {
      group.push_back(t.ToFeatureTransform(layout));
    }
    const double eps_small = rng.Uniform(0.01, 1.0);
    const double eps_large = eps_small + rng.Uniform(0.0, 2.0);
    const auto small = estimator_->EstimateTraversal(group, eps_small, layout);
    const auto large = estimator_->EstimateTraversal(group, eps_large, layout);
    EXPECT_GE(small.da_all, 0.0);
    EXPECT_GE(small.da_leaf, 0.0);
    EXPECT_GE(large.da_all, small.da_all) << "trial " << trial;
    EXPECT_GE(large.da_leaf, small.da_leaf) << "trial " << trial;
    EXPECT_GE(EstimateGroupCost(*estimator_, group, eps_large, layout),
              EstimateGroupCost(*estimator_, group, eps_small, layout));
  }
}

TEST(CostModelScalingTest, MeasuredCostMonotoneInSequenceCount) {
  // Same query over a 4x larger relation must not measure cheaper (Eq. 20 on
  // real counters: more leaves to read, more candidates to compare).
  RangeQuerySpec spec;
  spec.transforms = transform::MovingAverageRange(64, 5, 16);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.9, 64);

  auto measured_cost = [&](std::size_t num_series) {
    Dataset dataset(testutil::Stocks(num_series, 64, 21),
                    transform::FeatureLayout{});
    SequenceIndex index(dataset);
    spec.query = ts::Denormalize(dataset.normal(0));
    ExecOptions options;
    options.planner.algorithm = Algorithm::kMtIndex;
    std::vector<GroupRunStats> groups;
    auto result = RunRangeQuery(dataset, index, spec, options, &groups);
    EXPECT_TRUE(result.ok());
    return CostEq20(groups, index.AverageLeafCapacity());
  };
  const double small = measured_cost(100);
  const double large = measured_cost(400);
  EXPECT_GT(small, 0.0);
  EXPECT_GE(large, small);
}

TEST(CostModelScalingTest, KnnDiskCostMonotoneInK) {
  // Randomized sweep: raising k never lets the best-first search stop
  // earlier, so disk accesses and comparisons are non-decreasing in k.
  Dataset dataset(testutil::Stocks(120, 64, 31), transform::FeatureLayout{});
  SequenceIndex index(dataset);
  Rng rng(105);
  for (int trial = 0; trial < 10; ++trial) {
    KnnQuerySpec spec;
    spec.query = ts::Denormalize(
        dataset.normal(rng.UniformInt(0, dataset.size() - 1)));
    spec.transforms = transform::MovingAverageRange(64, 1, 4);
    std::uint64_t last_da = 0;
    std::uint64_t last_cmp = 0;
    for (const std::size_t k : {1u, 4u, 16u, 64u}) {
      spec.k = k;
      const auto result =
          RunKnnQuery(dataset, index, spec, Algorithm::kMtIndex);
      ASSERT_TRUE(result.ok());
      EXPECT_GE(result->stats.disk_accesses(), last_da) << "k=" << k;
      EXPECT_GE(result->stats.comparisons, last_cmp) << "k=" << k;
      last_da = result->stats.disk_accesses();
      last_cmp = result->stats.comparisons;
    }
  }
}

}  // namespace
}  // namespace tsq::core
