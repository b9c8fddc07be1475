#ifndef TSQ_CORE_KNN_QUERY_H_
#define TSQ_CORE_KNN_QUERY_H_

#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/index.h"
#include "core/query.h"

namespace tsq::core {

/// Nearest-neighbour query under multiple transformations: find the k
/// sequences s minimizing min over t in T of D(t(s), t(q)).
struct KnnQuerySpec {
  ts::Series query;
  std::size_t k = 1;
  std::vector<transform::SpectralTransform> transforms;
  transform::Partition partition;  // MBR grouping for the bound; empty = one
  /// Same-transform distances (the paper) or transform-the-data-only
  /// (SIGMOD'97) — see TransformTarget.
  TransformTarget target = TransformTarget::kBoth;
  /// Optional fixed transformation applied once to the normalized query.
  std::optional<transform::SpectralTransform> query_transform;
};

/// One neighbour: the sequence, its best transformation, and the distance
/// under it.
struct KnnMatch {
  std::size_t series_id = 0;
  std::size_t transform_index = 0;
  double distance = 0.0;
};

struct KnnQueryResult {
  std::vector<KnnMatch> matches;  // ascending by distance
  QueryStats stats;
  obs::QueryTrace trace;
};

/// Best-first (Hjaltason-Samet) k-NN over the R*-tree, pruning with the
/// transformation-rectangle distance bound of Section 4.1's nearest-
/// neighbour paragraph: each visited rectangle is transformed by the group
/// MBR and its polar MINDIST to the MBR of the transformed query points
/// lower-bounds the true distance (the MINDIST analogue of Lemma 1).
/// kSequentialScan evaluates every sequence exactly.
///
/// Parallelism (`options.num_threads`): the sequential scan fans out one
/// task per fixed-size slice of the relation, then merges, sorts and
/// truncates — identical output for every thread count. The indexed
/// best-first search is inherently serial (each refinement depends on the
/// global queue order) and ignores num_threads.
/// `partition_override` (planner-chosen MBR grouping) behaves as in
/// RunRangeQuery; `options.planner.algorithm` must be concrete.
Result<KnnQueryResult> RunKnnQuery(const Dataset& dataset,
                                   const SequenceIndex& index,
                                   const KnnQuerySpec& spec,
                                   const ExecOptions& options,
                                   const transform::Partition*
                                       partition_override = nullptr);

/// Legacy entry point: algorithm only, single-threaded.
Result<KnnQueryResult> RunKnnQuery(const Dataset& dataset,
                                   const SequenceIndex& index,
                                   const KnnQuerySpec& spec,
                                   Algorithm algorithm);

}  // namespace tsq::core

#endif  // TSQ_CORE_KNN_QUERY_H_
