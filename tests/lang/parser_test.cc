#include "lang/parser.h"

#include "gtest/gtest.h"

namespace tsq::lang {
namespace {

TEST(ParserTest, RangeQueryBasics) {
  const auto q =
      Parse("find similar to series 17 under mv(1..40) within correlation "
            "0.96");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind, QueryKind::kRange);
  EXPECT_EQ(q->series_id, 17u);
  ASSERT_EQ(q->pipelines.size(), 1u);
  ASSERT_EQ(q->pipelines[0].size(), 1u);
  EXPECT_EQ(q->pipelines[0][0].name, "mv");
  ASSERT_EQ(q->pipelines[0][0].args.size(), 1u);
  EXPECT_TRUE(q->pipelines[0][0].args[0].is_range);
  EXPECT_DOUBLE_EQ(q->pipelines[0][0].args[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(q->pipelines[0][0].args[0].hi, 40.0);
  EXPECT_EQ(q->threshold, ThresholdKind::kCorrelation);
  EXPECT_DOUBLE_EQ(q->threshold_value, 0.96);
  EXPECT_EQ(q->algorithm, AlgorithmChoice::kDefault);
}

TEST(ParserTest, KnnQuery) {
  const auto q = Parse("find 5 nearest to series 3 under momentum");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind, QueryKind::kKnn);
  EXPECT_EQ(q->k, 5u);
  EXPECT_EQ(q->series_id, 3u);
  EXPECT_TRUE(q->pipelines[0][0].args.empty());
}

TEST(ParserTest, JoinQuery) {
  const auto q =
      Parse("find pairs under mv(5..14) within correlation 0.99 using st");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->kind, QueryKind::kJoin);
  EXPECT_EQ(q->algorithm, AlgorithmChoice::kSt);
}

TEST(ParserTest, ThenPipelinesAndUnions) {
  const auto q = Parse(
      "find similar to series 0 under momentum then shift(0..10), invert "
      "within distance 2.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->pipelines.size(), 2u);
  ASSERT_EQ(q->pipelines[0].size(), 2u);
  EXPECT_EQ(q->pipelines[0][0].name, "momentum");
  EXPECT_EQ(q->pipelines[0][1].name, "shift");
  EXPECT_EQ(q->pipelines[1][0].name, "invert");
  EXPECT_EQ(q->threshold, ThresholdKind::kDistance);
}

TEST(ParserTest, OptionsInAnyOrder) {
  const auto q = Parse(
      "find similar to series 2 under scale(2..100) ordered using scan "
      "within distance 40 apply both per_mbr 8");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->ordered);
  EXPECT_EQ(q->algorithm, AlgorithmChoice::kScan);
  EXPECT_EQ(q->apply, ApplyChoice::kBoth);
  EXPECT_EQ(q->grouping, GroupingChoice::kPerMbr);
  EXPECT_EQ(q->grouping_value, 8u);
}

TEST(ParserTest, RangeStepArgument) {
  const auto q = Parse(
      "find similar to series 1 under scale(2..100:5) within distance 1");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->pipelines[0][0].args[0].step, 5.0);
}

TEST(ParserTest, ClusteredGrouping) {
  const auto q = Parse(
      "find similar to series 1 under mv(6..29), invert then mv(6..29) "
      "within correlation 0.96 clustered");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->grouping, GroupingChoice::kClustered);
}

TEST(ParserTest, ErrorsCarryPositions) {
  const auto missing_under = Parse("find similar to series 1 mv(3)");
  ASSERT_FALSE(missing_under.ok());
  EXPECT_NE(missing_under.status().message().find("expected 'under'"),
            std::string::npos);

  const auto bad_threshold =
      Parse("find similar to series 1 under mv(3) within banana 3");
  ASSERT_FALSE(bad_threshold.ok());
  EXPECT_NE(bad_threshold.status().message().find("DISTANCE or CORRELATION"),
            std::string::npos);

  const auto no_threshold = Parse("find similar to series 1 under mv(3)");
  ASSERT_FALSE(no_threshold.ok());
  EXPECT_NE(no_threshold.status().message().find("WITHIN"),
            std::string::npos);

  const auto trailing =
      Parse("find similar to series 1 under mv(3) within distance 1 banana");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);
}

TEST(ParserTest, KnnNeedsNoThreshold) {
  EXPECT_TRUE(Parse("find 3 nearest to series 0 under mv(1..5)").ok());
}

TEST(ParserTest, RejectsInvertedRanges) {
  const auto q =
      Parse("find similar to series 1 under mv(10..5) within distance 1");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("upper bound"), std::string::npos);
}

TEST(ParserTest, RejectsZeroK) {
  EXPECT_FALSE(Parse("find 0 nearest to series 1 under mv(2)").ok());
}

// Counts become size_t: a fractional value or one past SIZE_MAX has no
// size_t value, and casting it used to answer "0 neighbour(s)" silently.
TEST(ParserTest, RejectsCountsWithNoSizeValue) {
  for (const char* text :
       {"find 99999999999999999999 nearest to series 1 under mv(2)",
        "find 2.5 nearest to series 1 under mv(2)",
        "find 3 nearest to series 99999999999999999999 under mv(2)",
        "find 3 nearest to series 1.5 under mv(2)",
        "find similar to series 1 under mv(2..9) within distance 1 "
        "groups 99999999999999999999",
        "find similar to series 1 under mv(2..9) within distance 1 "
        "per_mbr 2.5"}) {
    const auto q = Parse(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // The largest double below 2^64 still converts exactly.
  const auto largest =
      Parse("find 18446744073709549568 nearest to series 1 under mv(2)");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->k, 18446744073709549568ull);
}

}  // namespace
}  // namespace tsq::lang
