#ifndef TSQ_OBS_TRACE_H_
#define TSQ_OBS_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace tsq::obs {

/// The phases a query passes through, in execution order. Every executor
/// (range / k-NN / join, any algorithm) reports into this fixed set; a phase
/// an algorithm does not have (e.g. index traversal on a sequential scan)
/// simply stays empty.
enum class Phase : std::size_t {
  /// Spec validation, query normalization/DFT, feature extraction, partition
  /// and transformation-MBR setup.
  kPlan = 0,
  /// R*-tree work: filter traversals, spatial-join passes, best-first page
  /// reads.
  kIndexTraversal,
  /// Fetching candidate records from the record store (the paper's "read
  /// the full database record").
  kCandidateFetch,
  /// Exact distance/correlation evaluation of fetched candidates.
  kVerification,
  /// Deterministic merge of per-task partial results (and the final
  /// sort/truncate of a scan k-NN).
  kMerge,
};
inline constexpr std::size_t kPhaseCount = 5;

/// Stable lowercase name ("plan", "index-traversal", ...), used by both the
/// text and JSON renderings.
const char* PhaseName(Phase phase);

/// Aggregated timing of one phase over the tasks that executed it.
///
/// Determinism rule: `tasks` and `items` depend only on the query and the
/// fixed task decomposition, never on the worker count — they are asserted
/// byte-identical across `num_threads` by the stats-invariance tests. The
/// nanosecond fields are wall-clock measurements: `nanos` sums the per-task
/// spans (total work, stable in expectation across thread counts) and
/// `max_task_nanos` keeps the longest single task (the phase's critical
/// path). Sum + max are both order-independent reductions, so the aggregate
/// does not depend on task completion order either.
struct PhaseStats {
  std::uint64_t nanos = 0;           // summed task spans
  std::uint64_t max_task_nanos = 0;  // longest single task span
  std::uint64_t tasks = 0;           // task spans recorded
  std::uint64_t items = 0;           // deterministic work units (phase-specific)

  /// Records one task's span over `item_count` work units.
  void AddTask(std::uint64_t task_nanos, std::uint64_t item_count);

  /// Folds another aggregate in (sum/sum/sum + max).
  void Merge(const PhaseStats& other);

  bool empty() const { return tasks == 0; }
};

/// One plan the cost-based planner considered: display label ("MT k=4
/// contiguous"), its Eq. 18-20 cost estimate, and whether it won.
struct PlanCandidateTrace {
  std::string label;
  double estimated_cost = 0.0;
  bool chosen = false;
};

/// What the planner did for one query. `planned` stays false when the caller
/// forced a concrete algorithm (no planning happened). The chosen plan and
/// every rejected candidate are kept so Explain()/ExplainJson() can show the
/// decision; `actual_cost` is filled in by the engine after execution from
/// the measured counters (< 0 when unknown).
///
/// Determinism rule: the *decision* (which candidate is chosen) depends only
/// on the query, the index epoch and the cost constants — never on thread
/// count — and is the only part that enters DeterministicSignature().
/// `cache_hit` depends on call order and is excluded.
struct PlannerTrace {
  bool planned = false;
  bool cache_hit = false;
  double estimated_cost = 0.0;  // the chosen candidate's estimate
  double actual_cost = -1.0;    // measured cost of the executed plan
  std::vector<PlanCandidateTrace> candidates;

  const PlanCandidateTrace* chosen_candidate() const {
    for (const PlanCandidateTrace& c : candidates) {
      if (c.chosen) return &c;
    }
    return nullptr;
  }
};

/// Per-query execution trace: where the time of one Execute() call went.
/// Attached to every query result; render with FormatTrace / TraceToJson or
/// the engine-level Explain() helpers.
struct QueryTrace {
  std::string algorithm;        // AlgorithmName() of the executed plan
  std::size_t num_threads = 1;  // ExecOptions::num_threads as requested
  std::uint64_t total_nanos = 0;  // whole executor call, wall clock
  std::array<PhaseStats, kPhaseCount> phases{};
  PlannerTrace planner;  // cost-based planner decision (kAuto only)
  /// Engine write version pinned for this query (number of committed
  /// Insert/Remove operations the snapshot includes). Lets a checker replay
  /// the exact dataset state the query saw while writers run concurrently.
  /// Excluded from DeterministicSignature(): it depends on write timing,
  /// not on the query.
  std::uint64_t snapshot_version = 0;
  /// Epoch of the newest checkpoint the engine wrote or was loaded from
  /// (0 before either) — identifies the on-disk state backing this engine.
  /// Excluded from DeterministicSignature() like snapshot_version: it
  /// depends on persistence history, not on the query.
  std::uint64_t checkpoint_epoch = 0;
  /// Work sharing. These five fields are excluded from
  /// DeterministicSignature(): they describe how the work was *shared*, not
  /// what this query computed. batch_size and result_cache_hit belong to
  /// SimilarityEngine::ExecuteBatch and stay at their defaults for a plain
  /// Execute(); the other three come from the range pipeline, which a plain
  /// Execute() runs as a batch of one.
  std::size_t batch_size = 0;  // queries in the batch; 0 = not batched
  /// Queries whose index traversals this query's traversal group served
  /// (1 = this query traversed alone; 0 = no traversal group, e.g. scan).
  std::size_t batch_group_queries = 0;
  /// True when at least one index traversal of this query was shared with
  /// another query of the batch.
  bool shared_traversal = false;
  /// True when this result was served from the snapshot-keyed ResultCache
  /// (or copied from an identical co-batched query) instead of executed.
  bool result_cache_hit = false;
  /// Candidate record fetches this query requested that were served by a
  /// fetch already charged to another request — of another rectangle of
  /// this query, or of another query of the batch.
  std::uint64_t deduped_fetches = 0;
  /// Active kernel ISA ("scalar", "sse2", "avx2") the distance kernels ran
  /// with — kernels::IsaName(kernels::ActiveIsa()). Excluded from
  /// DeterministicSignature(): every ISA produces bitwise-identical results,
  /// so this is a speed annotation, not part of what the query computed.
  std::string kernel_isa;

  PhaseStats& at(Phase phase) {
    return phases[static_cast<std::size_t>(phase)];
  }
  const PhaseStats& at(Phase phase) const {
    return phases[static_cast<std::size_t>(phase)];
  }

  /// The thread-count-invariant part of the trace rendered to one line per
  /// phase ("plan tasks=1 items=16;..."): algorithm plus every phase's task
  /// and item counts, no timing. Two runs of the same query must produce
  /// byte-identical signatures whatever `num_threads` was.
  std::string DeterministicSignature() const;
};

/// Human-readable multi-line rendering (phase table with times).
std::string FormatTrace(const QueryTrace& trace);

/// JSON object rendering:
/// {"algorithm":...,"num_threads":...,"total_nanos":...,"phases":[...]}.
std::string TraceToJson(const QueryTrace& trace);

/// Times a serial section into `trace.at(phase)` as a single task span.
/// Not for use inside parallel tasks — those record raw nanos into their
/// per-task partials and the merge step calls AddTask in task order.
class ScopedPhase {
 public:
  ScopedPhase(QueryTrace* trace, Phase phase, std::uint64_t items = 0)
      : trace_(trace), phase_(phase), items_(items),
        start_(MonotonicNanos()) {}
  ~ScopedPhase() {
    trace_->at(phase_).AddTask(MonotonicNanos() - start_, items_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  void AddItems(std::uint64_t count) { items_ += count; }

 private:
  QueryTrace* trace_;
  Phase phase_;
  std::uint64_t items_;
  std::uint64_t start_;
};

}  // namespace tsq::obs

#endif  // TSQ_OBS_TRACE_H_
