#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <tuple>

namespace perfbench {

namespace {

constexpr double kTolerance = 1e-6;

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kTolerance * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

using Key = std::tuple<std::size_t, std::size_t, std::size_t>;

/// Compares two keyed value sets. Keys on one side only pass when their
/// value is Close to `threshold`; `subset_ok` also lets `expected` hold
/// keys `got` lacks.
std::string CompareKeyed(const std::map<Key, double>& expected,
                         const std::map<Key, double>& got, double threshold,
                         bool subset_ok, const char* what) {
  for (const auto& [key, value] : got) {
    const auto it = expected.find(key);
    if (it == expected.end()) {
      if (Close(value, threshold)) continue;
      std::ostringstream out;
      out << what << " (" << std::get<0>(key) << ", " << std::get<1>(key)
          << ", t" << std::get<2>(key) << ") reported with value " << value
          << " but not an oracle answer";
      return out.str();
    }
    if (!Close(it->second, value)) {
      std::ostringstream out;
      out << what << " (" << std::get<0>(key) << ", " << std::get<1>(key)
          << ", t" << std::get<2>(key) << ") value: oracle " << it->second
          << ", engine " << value;
      return out.str();
    }
  }
  if (subset_ok) return "";
  for (const auto& [key, value] : expected) {
    if (got.count(key) != 0 || Close(value, threshold)) continue;
    std::ostringstream out;
    out << what << " (" << std::get<0>(key) << ", " << std::get<1>(key)
        << ", t" << std::get<2>(key) << ") with oracle value " << value
        << " missing from the engine's answer";
    return out.str();
  }
  return "";
}

}  // namespace

std::string CheckRange(const tsq::testing::Oracle& oracle,
                       const tsq::core::RangeQuerySpec& spec,
                       const std::vector<tsq::core::Match>& got,
                       const std::vector<bool>* live) {
  std::map<Key, double> expected_set, got_set;
  for (const auto& m : oracle.Range(spec, live)) {
    expected_set[{m.series_id, 0, m.transform_index}] = m.distance;
  }
  for (const auto& m : got) {
    got_set[{m.series_id, 0, m.transform_index}] = m.distance;
  }
  return CompareKeyed(expected_set, got_set, spec.epsilon, false,
                      "range match");
}

std::string CheckKnn(const tsq::testing::Oracle& oracle,
                     const tsq::core::KnnQuerySpec& spec,
                     const std::vector<tsq::core::KnnMatch>& got) {
  const std::vector<tsq::core::KnnMatch> expected = oracle.Knn(spec);
  std::ostringstream out;
  if (expected.size() != got.size()) {
    out << "knn result count: oracle " << expected.size() << ", engine "
        << got.size();
    return out.str();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!Close(expected[i].distance, got[i].distance)) {
      out << "knn rank " << i << " distance: oracle " << expected[i].distance
          << ", engine " << got[i].distance;
      return out.str();
    }
  }
  // Ranks hold equal distances; ids may differ only among ties with the
  // k-th distance, where the two evaluation orders may break ties apart.
  if (expected.empty()) return "";
  const double kth = expected.back().distance;
  for (const auto& g : got) {
    const bool found = std::any_of(
        expected.begin(), expected.end(),
        [&](const auto& e) { return e.series_id == g.series_id; });
    if (!found && !Close(g.distance, kth)) {
      out << "knn series " << g.series_id << " (D=" << g.distance
          << ") not among the oracle's " << expected.size() << " nearest";
      return out.str();
    }
  }
  return "";
}

std::string CheckJoin(const tsq::testing::Oracle& oracle,
                      const tsq::core::JoinQuerySpec& spec,
                      const std::vector<tsq::core::JoinMatch>& got,
                      bool exact) {
  std::map<Key, double> expected_set, got_set;
  for (const auto& m : oracle.Join(spec)) {
    expected_set[{m.a, m.b, m.transform_index}] = m.value;
  }
  for (const auto& m : got) got_set[{m.a, m.b, m.transform_index}] = m.value;
  const double threshold = spec.mode == tsq::core::JoinMode::kCorrelation
                               ? spec.min_correlation
                               : spec.epsilon;
  return CompareKeyed(expected_set, got_set, threshold, !exact, "join pair");
}

}  // namespace perfbench
