#ifndef TSQ_PERFBENCH_COMMON_H_
#define TSQ_PERFBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "obs/trace.h"

namespace perfbench {

/// The user operations the benchmark times, one engine call each.
/// Inserts and removes are separate types: their latencies form different
/// clusters (about a third of inserts pay a node split or reinsertion), and
/// a percentile of the pooled writes falls between clusters and jumps.
enum class OpKind : std::size_t { kRange, kKnn, kJoin, kBatch, kInsert, kRemove };
inline constexpr std::size_t kOpKinds = 6;

inline const char* OpName(OpKind kind) {
  static constexpr const char* kNames[kOpKinds] = {
      "range", "knn", "join", "batch", "insert", "remove"};
  return kNames[static_cast<std::size_t>(kind)];
}

/// Linear-interpolation percentile (p in [0, 100]) of unsorted samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

inline double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Counters folded from the QueryResults one operation type returned, for
/// the per-layer numbers. Filled outside the timed region.
struct LayerTally {
  std::uint64_t calls = 0;    // engine calls (a batch is one call)
  std::uint64_t results = 0;  // query results folded (batch entries each)
  tsq::core::QueryStats stats;
  std::array<double, tsq::obs::kPhaseCount> phase_nanos{};
  double cost_error_sum = 0.0;  // |log2(estimated / actual)| per plan
  std::uint64_t cost_error_count = 0;
  std::uint64_t deduped_fetches = 0;
  std::uint64_t cache_served = 0;  // results served from the cache

  /// Folds one result in. Cache-served batch entries carry the stats of the
  /// run that computed them, so only executed results count toward work.
  void Fold(const tsq::core::QueryResult& result) {
    ++results;
    const tsq::obs::QueryTrace& trace = result.trace();
    if (trace.result_cache_hit) {
      ++cache_served;
      return;
    }
    stats += result.stats();
    deduped_fetches += trace.deduped_fetches;
    for (std::size_t p = 0; p < tsq::obs::kPhaseCount; ++p) {
      phase_nanos[p] += static_cast<double>(trace.phases[p].nanos);
    }
    const tsq::obs::PlannerTrace& plan = trace.planner;
    if (plan.planned && plan.estimated_cost > 0.0 && plan.actual_cost > 0.0) {
      cost_error_sum +=
          std::fabs(std::log2(plan.estimated_cost / plan.actual_cost));
      ++cost_error_count;
    }
  }
};

}  // namespace perfbench

#endif  // TSQ_PERFBENCH_COMMON_H_
