#ifndef TSQ_CORE_RANGE_QUERY_H_
#define TSQ_CORE_RANGE_QUERY_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/index.h"
#include "core/query.h"

namespace tsq::core {

/// One query of a RunRangeQueries call.
struct RangeRun {
  const RangeQuerySpec* spec = nullptr;
  /// Concrete algorithm; kAuto is rejected like in every raw executor.
  Algorithm algorithm = Algorithm::kMtIndex;
  /// When non-null and non-empty, replaces the MT-index grouping that would
  /// otherwise come from `spec->partition` — how the planner hands its chosen
  /// partition to the executor without copying the spec.
  const transform::Partition* partition_override = nullptr;
  /// When non-null, receives one entry per index traversal (empty for the
  /// sequential scan): the inputs of the cost function Ck (Eq. 20).
  std::vector<GroupRunStats>* group_stats = nullptr;
};

/// The range pipeline, Query 1 for any number of queries at once (Section 4
/// and Algorithm 1):
///
///  1. prepare: validate each spec, transform the query, fix its rectangles
///     — the whole transformation set for kSequentialScan, one rectangle
///     per transformation for kStIndex, `partition_override`, else
///     `spec->partition`, else one packed rectangle for kMtIndex;
///  2. traverse: one index traversal per rectangle. Indexed queries with the
///     same transformation set and rectangles form a traversal group and
///     share it: the union of the members' query regions drives the descent
///     and each collected entry is re-tested per member, which yields each
///     member's own candidate list in its own traversal order
///     (TransformMbr::Apply is monotone in rect containment, and the stack
///     DFS pops union-only subtrees as contiguous blocks);
///  3. fetch: every (query, rectangle) candidate — or, for the scan, every
///     live sequence — is fetched once per call. Ids that several requests
///     want are memoized; every other id is read into a task-local buffer
///     and dropped after verification;
///  4. verify: the distance predicate per candidate and rectangle (binary
///     search along a dominance chain under `use_ordering`);
///  5. attribute and merge, deterministically.
///
/// Invariants:
///  * a query's matches do not depend on `num_threads` or on the other
///    queries of the call. Work is cut into fixed-size tasks — one per
///    (group, rectangle) traversal, one per 32-candidate chunk of a
///    rectangle, one per 256-id slice of the relation for the scan — and
///    merged in task order, rectangle-major;
///  * no record is read twice in one call. Each fetched id's pages go to
///    the first successful query that requested it (queries in input order,
///    each query's requests in task order), so per-query record_pages_read
///    sums to the physical reads and stays thread-count independent. Page
///    counts come from FetchSpectrum's per-call out-param, never from
///    diffing the shared PageFile counters, so a concurrent ResetIoStats()
///    cannot split them;
///  * a shared traversal's index counters (traversals, nodes, leaves) go to
///    the group's lowest-indexed member; the others report 0;
///  * `trace.deduped_fetches` counts a query's requests served by another
///    request's fetch; `trace.batch_group_queries` is the size of its
///    traversal group (0 for the scan) and `trace.shared_traversal` whether
///    that is more than one.
///
/// Entry i is the result or error of runs[i]. A fault on one query's I/O
/// fails that entry only.
std::vector<Result<RangeQueryResult>> RunRangeQueries(
    const Dataset& dataset, const SequenceIndex& index,
    std::span<const RangeRun> runs, std::size_t num_threads);

/// Executes Query 1 alone: RunRangeQueries with one query, run with
/// `options.planner.algorithm` on `options.num_threads` workers (results
/// and counters are identical for every value). `group_stats` and
/// `partition_override` are as in RangeRun. The algorithm must be concrete
/// here; kAuto is resolved by SimilarityEngine::Execute and rejected by the
/// executor.
Result<RangeQueryResult> RunRangeQuery(const Dataset& dataset,
                                       const SequenceIndex& index,
                                       const RangeQuerySpec& spec,
                                       const ExecOptions& options,
                                       std::vector<GroupRunStats>* group_stats =
                                           nullptr,
                                       const transform::Partition*
                                           partition_override = nullptr);

/// Sorts matches by (series_id, transform_index) for set comparison.
void SortMatches(std::vector<Match>* matches);

}  // namespace tsq::core

#endif  // TSQ_CORE_RANGE_QUERY_H_
