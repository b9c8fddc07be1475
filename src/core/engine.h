#ifndef TSQ_CORE_ENGINE_H_
#define TSQ_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <variant>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/index.h"
#include "core/join_query.h"
#include "core/knn_query.h"
#include "core/query.h"
#include "core/query_spec.h"
#include "core/range_query.h"
#include "core/snapshot.h"
#include "storage/buffer_pool.h"

namespace tsq::plan {
class Planner;
struct Planned;
}  // namespace tsq::plan

namespace tsq::core {

class ResultCache;

/// Uniform result of SimilarityEngine::Execute: the per-type result plus,
/// for range queries run with ExecOptions::collect_group_stats, the
/// per-rectangle counters of the cost function Ck (Eq. 20).
struct QueryResult {
  std::variant<RangeQueryResult, KnnQueryResult, JoinQueryResult> value;
  std::vector<GroupRunStats> group_stats;

  /// The execution counters, whatever the query type.
  const QueryStats& stats() const;

  /// The per-phase execution trace, whatever the query type.
  const obs::QueryTrace& trace() const;

  /// Typed views; nullptr when the result is of another type.
  const RangeQueryResult* range() const {
    return std::get_if<RangeQueryResult>(&value);
  }
  const KnnQueryResult* knn() const {
    return std::get_if<KnnQueryResult>(&value);
  }
  const JoinQueryResult* join() const {
    return std::get_if<JoinQueryResult>(&value);
  }
};

/// How SimilarityEngine::ExecuteBatch runs a batch: one ExecOptions applied
/// to every query of the batch, plus the result-cache switch.
struct BatchOptions {
  ExecOptions exec;
  /// Consult (and fill) the engine's snapshot-keyed ResultCache: cache hits
  /// are served without executing, and identical specs within one batch
  /// execute once. Off, every spec executes — the configuration whose
  /// results the differential fuzzer diffs against sequential Execute().
  bool use_result_cache = true;
};

/// Facade over the whole system: owns the sequence relation, its record
/// storage and the R*-tree index, and exposes the paper's three query types.
///
/// Typical use (see examples/quickstart.cc):
///
///   tsq::core::SimilarityEngine engine(std::move(closing_prices));
///   tsq::core::RangeQuerySpec spec;
///   spec.query = ibm_closes;
///   spec.transforms = tsq::transform::MovingAverageRange(n, 1, 40);
///   spec.epsilon = tsq::ts::CorrelationToDistanceThreshold(0.96, n);
///   auto result = engine.Execute(spec, {.num_threads = 4});
///   for (const auto& match : result->range()->matches) { ... }
///
/// The default ExecOptions leave the algorithm at Algorithm::kAuto: the
/// engine's cost-based planner (src/plan) picks among sequential scan,
/// ST-index and MT-index partitionings. Force a concrete plan with
/// {.planner = {.algorithm = Algorithm::kMtIndex}}.
///
/// Thread-safety: Execute() is const and safe to call from any number of
/// threads, *including* concurrently with Insert()/Remove(). Writes are
/// serialized against each other and against queries by an engine-level
/// SnapshotManager: every Execute() pins a read snapshot for its whole
/// duration and sees either all of a concurrent write or none of it, and
/// every committed write bumps the snapshot version (reported in the result
/// trace as `snapshot_version`). A write that fails partway compensates —
/// tombstoning the appended id, rebuilding the index — before releasing the
/// write lock, so queries never observe a half-applied mutation. See
/// docs/ARCHITECTURE.md ("Thread-safety contract") for the full contract
/// and the residual exclusions (configuration, persistence, stats resets).
class SimilarityEngine {
 public:
  struct Options {
    transform::FeatureLayout layout;
    rstar::TreeOptions tree;
  };

  /// Loads the relation (normalizes, stores records, extracts features) and
  /// builds the index. All series must share one length >= 2.
  explicit SimilarityEngine(std::vector<ts::Series> series,
                            Options options = Options());
  ~SimilarityEngine();

  /// Adds one sequence (record + index entry); returns its id. Requires
  /// series.size() == length().
  ///
  /// Atomic under concurrency: the append, the index insertion and the
  /// planner epoch bump commit under the engine write lock, so a concurrent
  /// Execute() sees either the old dataset or the fully inserted sequence —
  /// never an appended record without its index entry. If the index
  /// insertion fails (e.g. under fault injection), the appended id is
  /// tombstoned and the index rebuilt over the live sequences before the
  /// error is returned; the engine stays consistent and the failed id never
  /// matches any query. A failure in the record append itself needs no
  /// compensation: nothing was stored and the version does not move.
  Result<std::size_t> Insert(const ts::Series& series);

  /// Removes sequence `id` from the index and tombstones its record; it no
  /// longer appears in any query. NotFound for unknown or already-removed
  /// ids (the check runs under the same lock as the commit, so two racing
  /// Remove(id) calls resolve to one Ok and one NotFound).
  ///
  /// Atomic under concurrency: the tombstone is the commit point. If the
  /// index removal then fails partway, the index is rebuilt over the live
  /// sequences and the remove still returns Ok — the sequence is gone from
  /// every subsequent query either way.
  Status Remove(std::size_t id);

  const Dataset& dataset() const { return *dataset_; }
  const SequenceIndex& index() const { return *index_; }
  /// Live sequences (insertions minus removals).
  std::size_t size() const { return dataset_->active_size(); }
  std::size_t length() const { return dataset_->length(); }

  /// Number of committed writes since construction. Each successful (or
  /// compensated) Insert/Remove bumps it exactly once; Execute() stamps the
  /// version it pinned into the result trace, which is what lets an external
  /// oracle reconstruct the exact dataset state a query ran against.
  std::uint64_t write_version() const { return snapshots_.version(); }

  /// Runs any query. `options.planner` chooses the algorithm — the default,
  /// Algorithm::kAuto, hands the choice to the cost-based planner, whose
  /// decision (chosen plan, rejected candidates, estimated vs actual cost)
  /// lands in the result's trace and in Explain()/ExplainJson(). `options`
  /// also sets the worker-thread count (results and summed stats are
  /// identical for every value) and whether per-rectangle group stats are
  /// collected (range queries).
  /// Thread-safe: any number of concurrent Execute() calls, concurrently
  /// with Insert()/Remove(). The query runs against the snapshot pinned at
  /// entry (its version lands in the result trace); configuration calls
  /// (EnableIndexBufferPool, SetReadFaultHook, ...) remain excluded.
  Result<QueryResult> Execute(const QuerySpec& spec,
                              const ExecOptions& options = ExecOptions()) const;

  /// Runs a batch of queries against ONE pinned snapshot with ONE planner
  /// consultation, sharing work across the batch (see
  /// docs/ARCHITECTURE.md, "Batched execution & result cache"):
  ///
  ///  * indexed range queries with the same transformation set and effective
  ///    partition share a single index traversal per rectangle — the union
  ///    query region drives the descent and each visited entry is re-tested
  ///    against every member query's own epsilon band;
  ///  * every candidate record is fetched once per batch however many
  ///    queries (or rectangles) want it — the range entries run as one call
  ///    of the range pipeline (RunRangeQueries), which Execute() runs with a
  ///    single query;
  ///  * with `options.use_result_cache`, results are served from / published
  ///    to the engine's bounded LRU ResultCache, keyed on (canonical spec,
  ///    exec options, snapshot version, config epoch).
  ///
  /// Entry i of the returned vector is the result (or error Status) of
  /// specs[i]. Matches are byte-identical to issuing the specs sequentially
  /// via Execute() at the same snapshot, for any num_threads; stats follow
  /// the deterministic attribution rules documented in ARCHITECTURE.md
  /// (shared traversal counters go to the group leader, deduped fetch pages
  /// to the lowest-indexed query that planned the fetch). A fault injected
  /// into one query's I/O fails that entry only.
  ///
  /// Thread-safe like Execute(): any number of concurrent batches,
  /// concurrently with Insert()/Remove().
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<QuerySpec>& specs,
      const BatchOptions& options = BatchOptions()) const;

  /// The cost-based planner (plan cache, calibrated constants, epoch).
  /// Mostly for tests and benches; Execute() consults it automatically.
  plan::Planner& planner() const { return *planner_; }

  /// The snapshot-keyed result cache ExecuteBatch serves hits from.
  ResultCache& result_cache() const { return *result_cache_; }

  /// Bumped by every configuration change that alters what a query would
  /// read (buffer pool, simulated latency, fault hooks); part of the
  /// ResultCache key, so reconfiguration invalidates every cached result.
  std::uint64_t config_epoch() const {
    return config_epoch_.load(std::memory_order_acquire);
  }

  /// Resets every I/O counter — record store, index page file and, when one
  /// is attached, the index buffer pool — between benchmark queries.
  ///
  /// Thread-safety: each counter is reset through the same atomics the read
  /// paths update, so calling this concurrently with Execute() is free of
  /// data races — but it is still excluded by the thread-safety contract
  /// (docs/ARCHITECTURE.md): a query in flight across the reset would have
  /// its I/O split between the two epochs, making both epochs' numbers
  /// meaningless. Quiesce queries first, then reset.
  void ResetIoStats();

  /// Makes every page read cost `nanos` nanoseconds of (spinning) latency,
  /// so wall-clock measurements can reproduce a chosen C_DA : C_cmp cost
  /// ratio (the paper's hardware had C_cmp = 0.4 * C_DA). 0 disables.
  void SetSimulatedDiskLatency(std::uint64_t nanos);

  /// Attaches a sharded LRU buffer pool of `pages` pages to the index
  /// (0 detaches; `shards` = 0 uses the default shard count); see
  /// SequenceIndex::EnableBufferPool. Runs under the engine write lock, so
  /// it waits out in-flight queries rather than racing them — but queries
  /// issued *after* it returns see the new pool, so benchmark setup should
  /// still quiesce first for meaningful numbers.
  void EnableIndexBufferPool(std::size_t pages, std::size_t shards = 0);

  /// Installs (nullptr removes) one fault-injection hook on every storage
  /// layer a query reads through: the record page file, the index page file
  /// and — now or whenever one is attached later — the index buffer pool.
  /// With a hook installed, Execute() either returns the exact fault-free
  /// result or a non-OK Status; it never crashes or silently drops matches,
  /// and Insert/Remove compensate so the engine stays consistent. Runs under
  /// the engine write lock; keep the hook alive until removed.
  void SetReadFaultHook(storage::FaultHook* hook);

  /// The index buffer pool, nullptr when none is attached. This replaces the
  /// old mutable_index() escape hatch, which let callers restructure the
  /// index behind the engine's back — a data race once queries run on worker
  /// threads. Benchmarks only need the pool (to clear it or reset its
  /// counters between runs), so only the pool is exposed.
  storage::BufferPool* index_buffer_pool() { return index_->buffer_pool(); }
  const storage::BufferPool* index_buffer_pool() const {
    return index_->buffer_pool();
  }

  /// Persists the engine as one crash-safe checkpoint. Each SaveTo picks a
  /// fresh monotone epoch E and writes `<prefix>.<E>.records`,
  /// `<prefix>.<E>.index` and `<prefix>.<E>.meta` — each through the atomic
  /// write-temp/fsync/rename protocol (storage::AtomicFile) — and then
  /// commits the checkpoint by atomically replacing `<prefix>.manifest`,
  /// which records the epoch plus every file's size and checksum. Files of
  /// superseded epochs are garbage-collected after the commit. A crash at
  /// *any* step leaves either the previous checkpoint fully loadable or the
  /// new one — never a mismatched trio (the pre-manifest format overwrote
  /// the three files in place, so a torn save destroyed the last good
  /// checkpoint). SaveTo pins a read snapshot, so it writes a committed
  /// state even while Insert/Remove run concurrently; concurrent SaveTo
  /// calls on one prefix remain excluded.
  Status SaveTo(const std::string& prefix) const;

  /// Reopens a checkpoint without rebuilding the index — the paper's
  /// setting of an R*-tree that lives on disk between sessions. The
  /// manifest is read first and every referenced file is verified against
  /// its recorded size and checksum *before* anything is parsed; leftovers
  /// of a torn save (stale epochs, `.tmp` orphans) are detected, counted in
  /// `engine.checkpoint.crash_recoveries` and removed. Returns Corruption
  /// for any mismatch and IoError when the manifest is missing.
  static Result<std::unique_ptr<SimilarityEngine>> LoadFrom(
      const std::string& prefix);

  /// Epoch of the newest checkpoint this engine wrote (SaveTo) or was
  /// loaded from; 0 before either. Stamped into every query trace and
  /// Explain() rendering.
  std::uint64_t checkpoint_epoch() const {
    return checkpoint_epoch_.load(std::memory_order_relaxed);
  }

  /// Installs (nullptr removes) a fault hook whose OnWrite is consulted at
  /// every step of SaveTo — file creation, each data append, fsync, rename,
  /// directory sync, garbage collection. The crash-recovery harness uses it
  /// to abort the save at step k, simulating a crash; the files already on
  /// disk stay exactly as the crash would leave them. Runs under the engine
  /// write lock; keep the hook alive until removed.
  void SetCheckpointFaultHook(storage::FaultHook* hook);

 private:
  SimilarityEngine();  // for LoadFrom

  /// Stamps what every executed result carries: the pinned snapshot, the
  /// checkpoint epoch, the kernel ISA, the batch size (0 for Execute) and,
  /// for planned queries, the planner decision with its actual cost.
  static void StampTrace(QueryResult* out, std::uint64_t snapshot_version,
                         std::uint64_t checkpoint_epoch,
                         const plan::Planned& planned, std::size_t batch_size);

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SequenceIndex> index_;
  std::unique_ptr<plan::Planner> planner_;
  // Serializes Insert/Remove (and configuration) against pinned queries;
  // mutable because Execute() is const yet must pin a read snapshot.
  mutable SnapshotManager snapshots_;
  // Newest checkpoint epoch written or loaded; advanced by SaveTo right
  // after the manifest commit (before GC) so a post-commit failure still
  // leaves the engine agreeing with the disk.
  mutable std::atomic<std::uint64_t> checkpoint_epoch_{0};
  // Configuration epoch: bumped (under the write lock) by every call that
  // changes what a query would read — buffer pool attach/detach, simulated
  // latency, fault hooks. Part of the ResultCache key.
  mutable std::atomic<std::uint64_t> config_epoch_{0};
  // Snapshot-keyed result cache for ExecuteBatch; mutable because batches
  // run through const methods.
  mutable std::unique_ptr<ResultCache> result_cache_;
  // Crash-injection schedule for SaveTo; written under the write lock, read
  // under SaveTo's read pin.
  storage::FaultHook* checkpoint_hook_ = nullptr;
};

}  // namespace tsq::core

#endif  // TSQ_CORE_ENGINE_H_
