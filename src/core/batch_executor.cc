// SimilarityEngine::ExecuteBatch: one snapshot pin and one planner
// consultation for a whole batch of queries, plus the snapshot-keyed result
// cache. The range entries run through the one range pipeline
// (RunRangeQueries, src/core/range_query.h) in a single call, which is where
// co-batched queries share index traversals and record fetches; its
// invariants — per-query matches independent of thread count and of the
// rest of the batch, deterministic I/O attribution — are the batch's.
// Cache hits and in-batch duplicates never execute.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/result_cache.h"
#include "obs/metrics.h"
#include "plan/planner.h"

namespace tsq::core {

namespace {

struct BatchMetrics {
  obs::Counter* batches;
  obs::Counter* queries;
  obs::Counter* shared_traversals;
  obs::Counter* deduped_fetches;

  static const BatchMetrics& Get() {
    static const BatchMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return BatchMetrics{registry.counter("engine.batch.batches"),
                          registry.counter("engine.batch.queries"),
                          registry.counter("engine.batch.shared_traversals"),
                          registry.counter("engine.batch.deduped_fetches")};
    }();
    return metrics;
  }
};

/// Copies a cached (or leader's) result for serving, rewriting the batch
/// fields for the serving batch: the cached canonical copy has them zeroed,
/// and stale sharing data from the computing batch must not leak.
QueryResult ServeCopy(const QueryResult& canonical, std::size_t batch_size) {
  QueryResult out = canonical;
  obs::QueryTrace& trace = std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      out.value);
  trace.batch_size = batch_size;
  trace.batch_group_queries = 0;
  trace.shared_traversal = false;
  trace.deduped_fetches = 0;
  trace.result_cache_hit = true;
  return out;
}

/// The canonical form a result is cached under: batch fields zeroed, so a
/// hit served into a later batch carries that batch's sharing data (none),
/// not the computing batch's.
std::shared_ptr<const QueryResult> CanonicalForCache(const QueryResult& out) {
  auto canonical = std::make_shared<QueryResult>(out);
  obs::QueryTrace& trace = std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      canonical->value);
  trace.batch_size = 0;
  trace.batch_group_queries = 0;
  trace.shared_traversal = false;
  trace.deduped_fetches = 0;
  trace.result_cache_hit = false;
  return canonical;
}

}  // namespace

std::vector<Result<QueryResult>> SimilarityEngine::ExecuteBatch(
    const std::vector<QuerySpec>& specs, const BatchOptions& options) const {
  const BatchMetrics& metrics = BatchMetrics::Get();
  if (specs.empty()) return {};
  metrics.batches->Increment();
  metrics.queries->Increment(specs.size());
  const std::size_t n = specs.size();

  // One snapshot pin for the whole batch: every query sees the same
  // (dataset, index, plan epoch) triple, and its version keys the cache.
  const SnapshotManager::ReadPin pin = snapshots_.PinRead();
  const std::uint64_t snapshot_version = pin.version();
  const std::uint64_t checkpoint_epoch =
      checkpoint_epoch_.load(std::memory_order_relaxed);
  const std::uint64_t config_epoch =
      config_epoch_.load(std::memory_order_acquire);

  // One planner consultation (one mutex acquisition) for the whole batch.
  std::vector<const QuerySpec*> spec_ptrs;
  spec_ptrs.reserve(n);
  for (const QuerySpec& spec : specs) spec_ptrs.push_back(&spec);
  std::vector<Result<plan::Planned>> planned =
      planner_->PlanBatch(spec_ptrs, options.exec.planner);

  std::vector<std::optional<Result<QueryResult>>> staged(n);

  // --- Result cache pre-pass -----------------------------------------------
  // Per query: serve a hit, defer to an identical earlier spec of this batch
  // (dup), claim ownership of the key (pinned — this query publishes), or
  // bypass (another batch is computing the same key right now; execute
  // without publishing).
  std::vector<std::optional<plan::PlanKey>> cache_keys(n);
  std::vector<bool> pinned(n, false);
  struct Dup {
    std::size_t index;
    std::size_t leader;
  };
  std::vector<Dup> dups;
  if (options.use_result_cache) {
    std::unordered_map<plan::PlanKey, std::size_t, plan::PlanKeyHash>
        leader_for_key;
    for (std::size_t i = 0; i < n; ++i) {
      if (!planned[i].ok()) continue;
      const ResultCacheKey key = ComputeResultCacheKey(
          specs[i], options.exec, snapshot_version, config_epoch);
      if (!key.cacheable) continue;
      cache_keys[i] = key.key;
      if (std::shared_ptr<const QueryResult> hit =
              result_cache_->Lookup(key.key)) {
        staged[i].emplace(ServeCopy(*hit, n));
        continue;
      }
      if (const auto it = leader_for_key.find(key.key);
          it != leader_for_key.end()) {
        dups.push_back(Dup{i, it->second});
        continue;
      }
      leader_for_key.emplace(key.key, i);
      pinned[i] = result_cache_->Pin(key.key);
    }
  }
  const auto is_dup = [&dups](std::size_t i) {
    for (const Dup& dup : dups) {
      if (dup.index == i) return true;
    }
    return false;
  };

  // --- Range queries: one call of the range pipeline ----------------------
  // Every executing range entry, in input order, so co-batched queries
  // share traversals and fetches exactly as RunRangeQueries documents.
  std::vector<RangeRun> runs;
  std::vector<std::size_t> run_spec;  // spec index of runs[r]
  std::vector<std::vector<GroupRunStats>> group_stats(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (staged[i].has_value() || is_dup(i)) continue;
    if (!planned[i].ok()) {
      staged[i].emplace(planned[i].status());
      continue;
    }
    const auto* range = std::get_if<RangeQuerySpec>(&specs[i]);
    if (range == nullptr) continue;
    const plan::PlanDecision& decision = *planned[i]->decision;
    runs.push_back(RangeRun{
        range, decision.algorithm,
        decision.partition.empty() ? nullptr : &decision.partition,
        options.exec.collect_group_stats ? &group_stats[i] : nullptr});
    run_spec.push_back(i);
  }
  std::vector<Result<RangeQueryResult>> range_results =
      RunRangeQueries(*dataset_, *index_, runs, options.exec.num_threads);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t i = run_spec[r];
    if (!range_results[r].ok()) {
      staged[i].emplace(range_results[r].status());
      continue;
    }
    const obs::QueryTrace& trace = range_results[r]->trace;
    metrics.deduped_fetches->Increment(trace.deduped_fetches);
    if (trace.shared_traversal) {
      // Only the group leader reports the traversals, once per group.
      metrics.shared_traversals->Increment(range_results[r]->stats.traversals);
    }
    QueryResult out;
    out.value = std::move(*range_results[r]);
    out.group_stats = std::move(group_stats[i]);
    StampTrace(&out, snapshot_version, checkpoint_epoch, *planned[i], n);
    staged[i].emplace(std::move(out));
  }

  // --- k-NN and join queries -----------------------------------------------
  // They run under the same pin with the batch's plan decisions (the point
  // of batching them is the shared pin + planner pass + result cache); their
  // executors keep their own solo internals.
  for (std::size_t i = 0; i < n; ++i) {
    if (staged[i].has_value() || is_dup(i)) continue;
    const plan::PlanDecision& decision = *planned[i]->decision;
    ExecOptions resolved = options.exec;
    resolved.planner.algorithm = decision.algorithm;
    const transform::Partition* partition_override =
        decision.partition.empty() ? nullptr : &decision.partition;
    QueryResult out;
    if (const auto* knn = std::get_if<KnnQuerySpec>(&specs[i])) {
      Result<KnnQueryResult> result = RunKnnQuery(
          *dataset_, *index_, *knn, resolved, partition_override);
      if (!result.ok()) {
        staged[i].emplace(result.status());
        continue;
      }
      out.value = std::move(*result);
    } else {
      Result<JoinQueryResult> result =
          RunJoinQuery(*dataset_, *index_, std::get<JoinQuerySpec>(specs[i]),
                       resolved, partition_override);
      if (!result.ok()) {
        staged[i].emplace(result.status());
        continue;
      }
      out.value = std::move(*result);
    }
    StampTrace(&out, snapshot_version, checkpoint_epoch, *planned[i], n);
    staged[i].emplace(std::move(out));
  }

  // --- Cache publish + in-batch duplicates ---------------------------------
  if (options.use_result_cache) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!pinned[i]) continue;
      if (staged[i].has_value() && staged[i]->ok()) {
        result_cache_->Insert(*cache_keys[i], CanonicalForCache(**staged[i]));
      }
      result_cache_->Unpin(*cache_keys[i]);
    }
    for (const Dup& dup : dups) {
      // Prefer a real cache lookup (counts the hit and refreshes the LRU);
      // fall back to the leader's staged entry when nothing was published —
      // the leader failed, or another batch owned the key.
      if (std::shared_ptr<const QueryResult> hit =
              result_cache_->Lookup(*cache_keys[dup.index])) {
        staged[dup.index].emplace(ServeCopy(*hit, n));
        continue;
      }
      const Result<QueryResult>& leader = *staged[dup.leader];
      if (!leader.ok()) {
        staged[dup.index].emplace(leader.status());
      } else {
        staged[dup.index].emplace(ServeCopy(*leader, n));
      }
    }
  }

  std::vector<Result<QueryResult>> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    results.push_back(std::move(*staged[i]));
  }
  return results;
}

}  // namespace tsq::core
