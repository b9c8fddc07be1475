// A full-system scenario: generate a market, run language-level queries,
// mutate the data set, persist, reload, and keep querying — the lifecycle a
// downstream user would exercise.

#include <cstdio>
#include <fstream>

#include "../core/test_util.h"
#include "core/engine.h"
#include "core/range_query.h"
#include "gtest/gtest.h"
#include "lang/compiler.h"
#include "testing/oracle.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/io.h"

namespace tsq {
namespace {

class GrandTourTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* suffix : {".meta", ".records", ".index"}) {
      std::remove((prefix_ + suffix).c_str());
    }
    std::remove(csv_.c_str());
  }
  std::string prefix_ = ::testing::TempDir() + "/tsq_tour";
  std::string csv_ = ::testing::TempDir() + "/tsq_tour.csv";
};

TEST_F(GrandTourTest, FullLifecycle) {
  // 1. Data arrives as a CSV (round-trip through the I/O layer).
  const auto generated = core::testutil::Stocks(150, 128, 70);
  ASSERT_TRUE(ts::WriteCsv(csv_, generated).ok());
  auto loaded_csv = ts::ReadCsv(csv_);
  ASSERT_TRUE(loaded_csv.ok());
  core::SimilarityEngine engine(std::move(*loaded_csv));
  ASSERT_EQ(engine.size(), 150u);

  // 2. Language-level range query; cross-check against the API.
  const auto range = lang::CompileQuery(
      "find similar to series 12 under mv(1..25) within correlation 0.96",
      engine);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  const auto& spec = std::get<core::RangeQuerySpec>(range->spec);
  const auto lang_result = engine.Execute(spec, range->options);
  ASSERT_TRUE(lang_result.ok());
  const auto brute = testing::Oracle(engine.dataset()).Range(spec);
  EXPECT_EQ(lang_result->range()->matches.size(), brute.size());

  // 3. Mutations: drop the best non-self match, insert a fresh series.
  std::size_t victim = SIZE_MAX;
  for (const core::Match& m : lang_result->range()->matches) {
    if (m.series_id != 12) {
      victim = m.series_id;
      break;
    }
  }
  if (victim != SIZE_MAX) {
    ASSERT_TRUE(engine.Remove(victim).ok());
  }
  const auto inserted =
      engine.Insert(core::testutil::Stocks(1, 128, 71)[0]);
  ASSERT_TRUE(inserted.ok());

  // 4. Persist, reload, and verify the language query still compiles and
  // returns brute-force-exact answers on the mutated relation.
  ASSERT_TRUE(engine.SaveTo(prefix_).ok());
  auto reopened = core::SimilarityEngine::LoadFrom(prefix_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), engine.size());

  const auto again = lang::CompileQuery(
      "find similar to series 12 under mv(1..25) within correlation 0.96 "
      "per_mbr 5",
      **reopened);
  ASSERT_TRUE(again.ok());
  const auto& spec2 = std::get<core::RangeQuerySpec>(again->spec);
  const auto reopened_result = (*reopened)->Execute(spec2, again->options);
  ASSERT_TRUE(reopened_result.ok());
  const auto reopened_brute =
      testing::Oracle((*reopened)->dataset()).Range(spec2);
  EXPECT_EQ(reopened_result->range()->matches.size(), reopened_brute.size());
  if (victim != SIZE_MAX) {
    for (const core::Match& m : reopened_result->range()->matches) {
      EXPECT_NE(m.series_id, victim);
    }
  }

  // 5. A join and a k-NN through the language on the reopened engine.
  const auto join = lang::CompileQuery(
      "find pairs under mv(5..10) within correlation 0.99", **reopened);
  ASSERT_TRUE(join.ok());
  EXPECT_TRUE(lang::Execute(*join, **reopened).ok());
  const auto knn = lang::CompileQuery(
      "find 3 nearest to series 12 under mv(1..10)", **reopened);
  ASSERT_TRUE(knn.ok());
  const auto knn_text = lang::Execute(*knn, **reopened);
  ASSERT_TRUE(knn_text.ok());
  EXPECT_NE(knn_text->find("series 12"), std::string::npos);
}

}  // namespace
}  // namespace tsq
