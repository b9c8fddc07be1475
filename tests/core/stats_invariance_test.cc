// Observability invariants: the per-phase QueryTrace rides on the same
// determinism contract as the match sets and QueryStats. Its deterministic
// part — which phases ran, how many tasks each decomposed into, how many
// items each processed — must be byte-identical for every num_threads value;
// only wall-clock fields may differ. And the scan path's record_pages_read
// must equal the physical page reads actually issued, not a precomputed
// dataset-wide figure. Indexed range queries read each candidate record
// once, however many rectangles ask for it.

#include <set>
#include <string>
#include <vector>

#include "../core/test_util.h"
#include "core/engine.h"
#include "core/feature.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "transform/transform_mbr.h"
#include "ts/distance.h"
#include "ts/normal_form.h"

namespace tsq::core {
namespace {

class StatsInvarianceTest : public ::testing::Test {
 protected:
  StatsInvarianceTest() : engine_(testutil::Stocks(250, 128, 301)) {}

  // Executes `spec` for each thread count and asserts that QueryStats
  // compares equal (operator==, every counter) and that the trace's
  // deterministic signature is byte-identical to the single-threaded run.
  void ExpectInvariantAcrossThreads(const QuerySpec& spec,
                                    Algorithm algorithm) {
    ExecOptions options;
    options.planner.algorithm = algorithm;
    options.num_threads = 1;
    const auto baseline = engine_.Execute(spec, options);
    ASSERT_TRUE(baseline.ok()) << AlgorithmName(algorithm);
    const std::string baseline_signature =
        baseline->trace().DeterministicSignature();
    EXPECT_FALSE(baseline_signature.empty());
    EXPECT_EQ(baseline->trace().algorithm, AlgorithmName(algorithm));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
      options.num_threads = threads;
      const auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok())
          << AlgorithmName(algorithm) << " threads=" << threads;
      EXPECT_TRUE(result->stats() == baseline->stats())
          << AlgorithmName(algorithm) << " threads=" << threads;
      EXPECT_EQ(result->trace().DeterministicSignature(), baseline_signature)
          << AlgorithmName(algorithm) << " threads=" << threads;
      EXPECT_EQ(result->trace().num_threads, threads);
    }
  }

  SimilarityEngine engine_;
};

TEST_F(StatsInvarianceTest, RangeQueryTraceInvariant) {
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(7));
  spec.transforms = transform::MovingAverageRange(128, 5, 20);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.95, 128);
  spec.partition = transform::PartitionBySize(spec.transforms.size(), 4);
  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kStIndex,
        Algorithm::kMtIndex}) {
    ExpectInvariantAcrossThreads(spec, algorithm);
  }
}

TEST_F(StatsInvarianceTest, KnnQueryTraceInvariant) {
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(3));
  spec.k = 9;
  spec.transforms = transform::MovingAverageRange(128, 5, 14);
  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kStIndex,
        Algorithm::kMtIndex}) {
    ExpectInvariantAcrossThreads(spec, algorithm);
  }
}

TEST_F(StatsInvarianceTest, JoinQueryTraceInvariant) {
  JoinQuerySpec spec;
  spec.mode = JoinMode::kCorrelation;
  spec.min_correlation = 0.99;
  spec.transforms = transform::MovingAverageRange(128, 5, 12);
  spec.partition = transform::PartitionBySize(spec.transforms.size(), 3);
  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kStIndex,
        Algorithm::kMtIndex}) {
    ExpectInvariantAcrossThreads(spec, algorithm);
  }
}

TEST_F(StatsInvarianceTest, TracePhasesMatchAlgorithmShape) {
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(7));
  spec.transforms = transform::MovingAverageRange(128, 5, 20);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.95, 128);

  ExecOptions options;
  options.planner.algorithm = Algorithm::kSequentialScan;
  const auto scan = engine_.Execute(spec, options);
  ASSERT_TRUE(scan.ok());
  const obs::QueryTrace& scan_trace = scan->trace();
  EXPECT_FALSE(scan_trace.at(obs::Phase::kPlan).empty());
  EXPECT_TRUE(scan_trace.at(obs::Phase::kIndexTraversal).empty());
  EXPECT_FALSE(scan_trace.at(obs::Phase::kCandidateFetch).empty());
  EXPECT_FALSE(scan_trace.at(obs::Phase::kVerification).empty());
  // Scan fetches exactly the live sequences.
  EXPECT_EQ(scan_trace.at(obs::Phase::kCandidateFetch).items,
            engine_.dataset().active_size());

  options.planner.algorithm = Algorithm::kMtIndex;
  const auto mt = engine_.Execute(spec, options);
  ASSERT_TRUE(mt.ok());
  const obs::QueryTrace& mt_trace = mt->trace();
  EXPECT_FALSE(mt_trace.at(obs::Phase::kIndexTraversal).empty());
  EXPECT_EQ(mt_trace.at(obs::Phase::kIndexTraversal).items,
            mt->stats().index_nodes_accessed);
  EXPECT_EQ(mt_trace.at(obs::Phase::kCandidateFetch).items,
            mt->stats().candidates);
  EXPECT_EQ(mt_trace.at(obs::Phase::kVerification).items,
            mt->stats().comparisons);
  EXPECT_GT(mt->trace().total_nanos, 0u);
}

// The ids that pass `partition`'s rectangle filters (Algorithm 1, steps
// 3-4), enumerated over the live feature points rather than through the
// tree: a leaf entry is a point, so the traversal returns exactly these.
std::set<std::size_t> DistinctCandidates(
    const Dataset& dataset, const RangeQuerySpec& spec,
    const transform::Partition& partition) {
  const transform::FeatureLayout& layout = dataset.layout();
  const ts::NormalForm normal = ts::Normalize(spec.query);
  const std::vector<dft::Complex> spectrum =
      dataset.plan().Forward(normal.values);
  const rstar::Point query = ExtractFeatures(normal, spectrum, layout);
  std::set<std::size_t> ids;
  for (const std::vector<std::size_t>& group : partition) {
    std::vector<transform::FeatureTransform> fts;
    for (const std::size_t t : group) {
      fts.push_back(spec.transforms[t].ToFeatureTransform(layout));
    }
    const transform::TransformMbr mbr(fts, layout);
    const rstar::Rect region =
        BuildQueryRegion(query, fts, spec.epsilon, layout);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (!dataset.removed(i) &&
          mbr.AppliedIntersects(rstar::Rect::FromPoint(dataset.features(i)),
                                region)) {
        ids.insert(i);
      }
    }
  }
  return ids;
}

// No range query reads a record twice: a candidate several rectangles
// share (ST-index, multi-rectangle MT-index) is fetched and charged once.
TEST_F(StatsInvarianceTest, RangeQueriesReadEachRecordOnce) {
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(3));
  spec.transforms = transform::MovingAverageRange(128, 5, 20);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.9, 128);
  spec.partition = transform::PartitionIntoGroups(spec.transforms.size(), 3);

  const std::pair<Algorithm, transform::Partition> plans[] = {
      {Algorithm::kStIndex,
       transform::PartitionSingletons(spec.transforms.size())},
      {Algorithm::kMtIndex, spec.partition}};
  for (const auto& [algorithm, partition] : plans) {
    const std::set<std::size_t> ids =
        DistinctCandidates(engine_.dataset(), spec, partition);
    std::uint64_t spanned = 0;
    for (const std::size_t id : ids) {
      ASSERT_TRUE(engine_.dataset().FetchSpectrum(id, &spanned).ok());
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << AlgorithmName(algorithm)
                                        << " threads=" << threads);
      ExecOptions options;
      options.planner.algorithm = algorithm;
      options.num_threads = threads;
      engine_.ResetIoStats();
      const auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok());
      const QueryStats& stats = result->stats();
      EXPECT_EQ(stats.traversals, partition.size());
      // Rectangles do share candidates here, so a per-rectangle fetch would
      // read some records more than once.
      EXPECT_GT(stats.candidates, ids.size());
      EXPECT_EQ(stats.record_pages_read, engine_.dataset().record_io().reads);
      EXPECT_EQ(stats.record_pages_read, spanned);
      EXPECT_EQ(result->trace().deduped_fetches,
                stats.candidates - ids.size());
    }
  }
}

// Regression for the scan-path stats bug: record_pages_read used to be
// wholesale-assigned dataset.record_pages() (and candidates :=
// active_size()) without issuing or counting a single fetch. Now it must
// reconcile exactly with the record PageFile's own read counter.
TEST_F(StatsInvarianceTest, ScanRecordPagesMatchPageFileReads) {
  RangeQuerySpec range;
  range.query = ts::Denormalize(engine_.dataset().normal(1));
  range.transforms = transform::MovingAverageRange(128, 5, 12);
  range.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);

  KnnQuerySpec knn;
  knn.query = ts::Denormalize(engine_.dataset().normal(2));
  knn.k = 5;
  knn.transforms = transform::MovingAverageRange(128, 5, 12);

  for (const bool with_pool : {false, true}) {
    engine_.EnableIndexBufferPool(with_pool ? 128 : 0);
    for (const QuerySpec& spec :
         std::vector<QuerySpec>{QuerySpec(range), QuerySpec(knn)}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        engine_.ResetIoStats();
        ExecOptions options;
        options.planner.algorithm = Algorithm::kSequentialScan;
        options.num_threads = threads;
        const auto result = engine_.Execute(spec, options);
        ASSERT_TRUE(result.ok());
        const storage::IoStats io = engine_.dataset().record_io();
        // Every page touch the scan reported really happened, and nothing
        // else read from the record file during the query.
        EXPECT_EQ(result->stats().record_pages_read, io.reads)
            << "pool=" << with_pool << " threads=" << threads;
        // A full scan visits every live record; records can straddle page
        // boundaries, so the count is at least the file's page count.
        EXPECT_GE(result->stats().record_pages_read,
                  engine_.dataset().record_pages());
        EXPECT_EQ(result->stats().candidates,
                  engine_.dataset().active_size());
      }
    }
  }
  engine_.EnableIndexBufferPool(0);
}

}  // namespace
}  // namespace tsq::core
