#ifndef TSQ_CORE_JOIN_QUERY_H_
#define TSQ_CORE_JOIN_QUERY_H_

#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/index.h"
#include "core/query.h"

namespace tsq::core {

/// The join predicate flavour. The paper's Query 2 uses correlation:
/// "find every pair s1, s2 and t in T with rho(t(s1), t(s2)) >= 0.99".
enum class JoinMode {
  /// D(t(s1), t(s2)) < epsilon — exactly filterable; the indexed join is
  /// guaranteed complete (same argument as Lemma 1).
  kDistance,
  /// rho(t(s1), t(s2)) >= min_correlation — the paper's Query 2. The index
  /// filter prunes with the Eq. 9 distance threshold scaled by `slack`;
  /// because transformed sequences are no longer unit-variance, a pair whose
  /// transformed variances differ wildly can in principle be missed (the
  /// paper's filter shares this property). Every reported pair is exactly
  /// verified. Increase `slack` to trade disk accesses for recall.
  kCorrelation,
};

/// Self-join specification over the dataset's sequences.
struct JoinQuerySpec {
  JoinMode mode = JoinMode::kCorrelation;
  double min_correlation = 0.99;  // kCorrelation
  double epsilon = 0.0;           // kDistance
  double slack = 1.0;             // kCorrelation index-filter widening
  std::vector<transform::SpectralTransform> transforms;
  transform::Partition partition;  // MT-index grouping; empty = one MBR
};

/// One qualifying pair; a < b always, and `value` is the correlation
/// (kCorrelation) or the distance (kDistance).
struct JoinMatch {
  std::size_t a = 0;
  std::size_t b = 0;
  std::size_t transform_index = 0;
  double value = 0.0;

  bool operator==(const JoinMatch&) const = default;
};

struct JoinQueryResult {
  std::vector<JoinMatch> matches;
  QueryStats stats;
  obs::QueryTrace trace;
};

/// Runs the self-join with the chosen algorithm. kSequentialScan evaluates
/// all pairs; kStIndex/kMtIndex run an R-tree spatial join per
/// transformation (rectangle), applying the rectangle to both node
/// rectangles before the overlap test (Section 4.1, spatial-join paragraph).
///
/// Parallelism (`options.num_threads`): the sequential scan fans out one
/// task per fixed-size slice of outer sequence ids (after a parallel
/// prefetch of all record spectra); the indexed join runs one spatial-join
/// task per transformation rectangle, then verifies candidate pairs in
/// fixed-size chunks with per-chunk fetch caches. Matches and summed
/// QueryStats are identical for every thread count.
/// `partition_override` (planner-chosen MBR grouping) behaves as in
/// RunRangeQuery; `options.planner.algorithm` must be concrete.
Result<JoinQueryResult> RunJoinQuery(const Dataset& dataset,
                                     const SequenceIndex& index,
                                     const JoinQuerySpec& spec,
                                     const ExecOptions& options,
                                     const transform::Partition*
                                         partition_override = nullptr);

/// Legacy entry point: algorithm only, single-threaded.
Result<JoinQueryResult> RunJoinQuery(const Dataset& dataset,
                                     const SequenceIndex& index,
                                     const JoinQuerySpec& spec,
                                     Algorithm algorithm);

/// Cross-correlation of the transformed versions of two normal-form
/// spectra, computed in the frequency domain in O(n):
/// both transformed sequences have zero mean (normal forms have X_0 = 0 and
/// the multiplier leaves it zero), so
///   rho = (n-1) * sum_f Re(U_f conj(V_f)) / (n * sigma_u * sigma_v),
/// with (n-1) sigma^2 = sum_f |U_f|^2. Returns 0 when either transformed
/// sequence has zero variance.
double TransformedCorrelation(const transform::SpectralTransform& t,
                              std::span<const dft::Complex> x,
                              std::span<const dft::Complex> y);

void SortJoinMatches(std::vector<JoinMatch>* matches);

}  // namespace tsq::core

#endif  // TSQ_CORE_JOIN_QUERY_H_
