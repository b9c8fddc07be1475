#ifndef TSQ_CORE_QUERY_H_
#define TSQ_CORE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "transform/partition.h"
#include "transform/spectral_transform.h"
#include "ts/series.h"

namespace tsq::core {

/// The three competitors of the paper's Section 4, plus the cost-based
/// choice among them (Section 5).
enum class Algorithm {
  /// Scan the whole relation, check every transformation against every
  /// sequence.
  kSequentialScan,
  /// One index traversal per transformation ("a Single Transformation at a
  /// time").
  kStIndex,
  /// One index traversal per transformation *rectangle* ("Multiple
  /// Transformations at a time") — the paper's contribution.
  kMtIndex,
  /// Let the engine's planner pick: it enumerates scan, ST and MT plans with
  /// k in {1..max_rectangles} rectangles per partitioning strategy, costs
  /// each with Eq. 18-20 against a snapshot of the index, and runs the
  /// cheapest. Only SimilarityEngine::Execute resolves this value; handing
  /// it to a raw executor is an error.
  kAuto,
};

const char* AlgorithmName(Algorithm algorithm);

/// Constants of the paper's cost function (Section 5.2 uses C_DA = 1 and
/// C_cmp = 0.4 * C_DA: "a sequence comparison takes as much as 40 percent
/// the time of a disk access"). The planner calibrates C_cmp per engine from
/// measured page-read vs comparison latency unless overridden.
struct CostConstants {
  double c_da = 1.0;
  double c_cmp = 0.4;
};

/// Which MT partitionings the planner may enumerate for kAuto. Ignored when
/// a concrete algorithm is forced (forced kMtIndex keeps its legacy
/// behaviour: spec.partition, or one packed rectangle when empty).
enum class PartitioningStrategy {
  /// Enumerate everything below and take the cheapest.
  kAuto,
  /// Only the single packed rectangle (plain MT-index configuration).
  kPacked,
  /// Only contiguous equal splits into k groups (Section 5.2's sweep).
  kContiguous,
  /// Only cluster-aware partitions (the Fig. 9 fix).
  kClustered,
};

/// The planner knobs, consolidated: which algorithm (or kAuto), how many
/// rectangles the enumeration may try, which partitioning family, and an
/// optional override of the calibrated cost constants (deterministic plans
/// for tests and benches).
struct PlannerOptions {
  Algorithm algorithm = Algorithm::kAuto;
  /// Upper bound on the rectangle count k the enumeration sweeps.
  std::size_t max_rectangles = 16;
  PartitioningStrategy partitioning = PartitioningStrategy::kAuto;
  std::optional<CostConstants> cost_constants_override = std::nullopt;
};

/// How a query is executed, independent of *what* is asked (the spec).
struct ExecOptions {
  /// Algorithm / partitioning choice; defaults to the cost-based planner.
  PlannerOptions planner = {};
  /// Worker threads for the parallel executor: 1 (default) runs inline on
  /// the calling thread, 0 means one worker per hardware thread. Results and
  /// summed QueryStats are identical for every value — the task
  /// decomposition (one task per transformation rectangle / traversal /
  /// candidate chunk) is fixed, only the workers executing it vary.
  std::size_t num_threads = 1;
  /// Collect per-rectangle GroupRunStats (range queries; empty otherwise).
  bool collect_group_stats = false;
};

/// InvalidArgument when `algorithm` is still kAuto — every raw executor
/// (RunRangeQueries / RunKnnQuery / RunJoinQuery) calls this first; only
/// SimilarityEngine resolves kAuto into a concrete plan.
Status RejectUnresolvedAuto(Algorithm algorithm);

/// Which side(s) of the distance predicate a transformation applies to.
enum class TransformTarget {
  /// D(t(s), t(q)) — Query 1 exactly as the paper states it. Note that
  /// unitary transformations (time shifts, inversion) leave this distance
  /// unchanged, so they only matter here in composition with others.
  kBoth,
  /// D(t(s), q) — the SIGMOD'97-style semantics: the candidate sequence is
  /// transformed, the query is compared as-is. This is what makes "shift s
  /// days, then compare" queries (Example 1.2) meaningful, and under it the
  /// paper's literal Algorithm 1 step 2 ("a rectangle of width epsilon
  /// around q") is the exact query region.
  kDataOnly,
};

/// Query 1 of the paper: given query sequence q, transformation set T and
/// threshold epsilon, find every (sequence s, transformation t) with
/// D(t(normal(s)), t(normal(q))) < epsilon. Use
/// ts::CorrelationToDistanceThreshold to derive epsilon from a correlation
/// threshold (the paper fixes rho = 0.96).
struct RangeQuerySpec {
  ts::Series query;  // raw; the executor normalizes it
  double epsilon = 0.0;
  std::vector<transform::SpectralTransform> transforms;
  /// How MT-index groups transformations into MBRs; empty = all in one
  /// rectangle. Ignored by the other algorithms.
  transform::Partition partition;
  /// Post-process with binary search when the transformation set forms a
  /// dominance chain (Section 4.4). Only valid with TransformTarget::kBoth
  /// (the chain property is about same-transform distances).
  bool use_ordering = false;
  /// Whether transformations apply to both sequences (the paper's Query 1)
  /// or to the data side only (SIGMOD'97 semantics).
  TransformTarget target = TransformTarget::kBoth;
  /// Optional fixed transformation applied once to the (normalized) query
  /// before the search — the general similarity-query form of Jagadish,
  /// Mendelzon & Milo that the paper implements a special case of. With
  /// kDataOnly this evaluates D(t(s), u(q)); e.g. Example 1.2 is
  /// u = momentum, T = { shift_s o momentum : s in 0..10 }.
  std::optional<transform::SpectralTransform> query_transform;
};

/// One qualifying (sequence, transformation) pair.
struct Match {
  std::size_t series_id = 0;
  std::size_t transform_index = 0;  // position in RangeQuerySpec::transforms
  double distance = 0.0;

  bool operator==(const Match&) const = default;
};

/// Execution counters in the units of the paper's cost model (Eq. 18-20).
struct QueryStats {
  /// Index pages read at any level, summed over traversals: sum DA_all.
  std::uint64_t index_nodes_accessed = 0;
  /// Index pages read at the leaf level: sum DA_leaf.
  std::uint64_t index_leaves_accessed = 0;
  /// Record-store pages read fetching full records.
  std::uint64_t record_pages_read = 0;
  /// (candidate, rectangle) pairs surviving the index filter.
  std::uint64_t candidates = 0;
  /// Full-sequence distance evaluations performed (NT(r) per candidate, or
  /// O(log NT) under an ordering).
  std::uint64_t comparisons = 0;
  /// Number of index traversals (= number of transformation rectangles, or
  /// |T| for ST-index).
  std::uint64_t traversals = 0;
  /// Matches returned.
  std::uint64_t output_size = 0;

  /// Total disk accesses: index pages + record pages.
  std::uint64_t disk_accesses() const {
    return index_nodes_accessed + record_pages_read;
  }

  QueryStats& operator+=(const QueryStats& other);
  bool operator==(const QueryStats&) const = default;
};

/// Result of a range query: qualifying pairs (in no particular order) plus
/// the per-query execution counters and phase trace.
struct RangeQueryResult {
  std::vector<Match> matches;
  QueryStats stats;
  obs::QueryTrace trace;
};

/// Per-rectangle counters, kept so the cost function Ck of Eq. 20 can be
/// evaluated exactly as the paper does in Fig. 8/9.
struct GroupRunStats {
  std::uint64_t da_all = 0;   // index pages read by this rectangle's pass
  std::uint64_t da_leaf = 0;  // ... at the leaf level
  std::uint64_t transforms = 0;  // NT(r)
  std::uint64_t candidates = 0;
};

}  // namespace tsq::core

#endif  // TSQ_CORE_QUERY_H_
