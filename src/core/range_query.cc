#include "core/range_query.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "core/feature.h"
#include "exec/batch_schedule.h"
#include "exec/parallel.h"
#include "plan/plan_cache.h"
#include "transform/ordering.h"
#include "transform/transform_mbr.h"
#include "ts/normal_form.h"

namespace tsq::core {

namespace {

// Task granularity. Part of the determinism contract only insofar as they
// are constants: chunk boundaries, and hence the merge order, never depend
// on num_threads or on the other queries of a call.
constexpr std::size_t kScanChunk = 256;   // ids per scan slice
constexpr std::size_t kVerifyChunk = 32;  // candidates per verify task

/// Sorts the indices of one group into ascending dominance-chain order when
/// the whole transformation set forms a chain; returns false when it does
/// not (the caller falls back to the linear sweep).
bool OrderGroupByChain(const std::vector<std::size_t>& chain,
                       std::vector<std::size_t>* group) {
  if (chain.empty()) return false;
  std::vector<std::size_t> rank(chain.size());
  for (std::size_t pos = 0; pos < chain.size(); ++pos) rank[chain[pos]] = pos;
  std::sort(group->begin(), group->end(),
            [&rank](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  return true;
}

/// The Eq. 12 distance the predicate evaluates for transformation `t`,
/// honouring the spec's TransformTarget, abandoned early past `bound`:
/// exact whenever the result is <= bound; any value > bound means "no
/// match". Partial sums are monotone, so the `d2 < eps2` predicate and
/// every reported distance equal the plain evaluation's.
double PredicateDistance2Within(const RangeQuerySpec& spec, std::size_t t,
                                std::span<const dft::Complex> candidate_spectrum,
                                std::span<const dft::Complex> query_spectrum,
                                double bound) {
  return spec.target == TransformTarget::kBoth
             ? spec.transforms[t].TransformedSquaredDistanceWithin(
                   candidate_spectrum, query_spectrum, bound)
             : spec.transforms[t].TransformedToPlainSquaredDistanceWithin(
                   candidate_spectrum, query_spectrum, bound);
}

/// Evaluates the distance predicate for one candidate against the (already
/// chain-ordered, when `ordered`) transformations of a rectangle, appending
/// matches and counting comparisons.
void VerifyCandidate(const RangeQuerySpec& spec,
                     std::span<const dft::Complex> candidate_spectrum,
                     std::span<const dft::Complex> query_spectrum,
                     const std::vector<std::size_t>& group, bool ordered,
                     std::size_t series_id, std::vector<Match>* matches,
                     QueryStats* stats) {
  const double eps2 = spec.epsilon * spec.epsilon;
  if (ordered) {
    // Distances are non-decreasing along the chain, so the qualifying
    // transformations form a prefix: binary-search its end (Section 4.4).
    // Probe results are cached so reporting the matches costs no extra
    // comparisons beyond the O(log |group|) probes plus one evaluation per
    // reported match that the search did not already touch.
    std::vector<double> cached(group.size(),
                               -std::numeric_limits<double>::infinity());
    const auto distance2 = [&](std::size_t pos) {
      if (cached[pos] < 0.0) {
        ++stats->comparisons;
        // Abandoned evaluations cache a partial sum > eps2: non-negative (so
        // the sentinel stays unambiguous), correctly rejected by the
        // predicate, and never reported (matches have d2 < eps2, hence are
        // exact).
        cached[pos] = PredicateDistance2Within(
            spec, group[pos], candidate_spectrum, query_spectrum, eps2);
      }
      return cached[pos];
    };
    const std::size_t prefix = transform::MonotonePrefixLength(
        group.size(), [&](std::size_t pos) { return distance2(pos) < eps2; });
    for (std::size_t pos = 0; pos < prefix; ++pos) {
      matches->push_back(Match{series_id, group[pos], std::sqrt(distance2(pos))});
    }
    return;
  }
  for (const std::size_t t : group) {
    ++stats->comparisons;
    const double d2 = PredicateDistance2Within(spec, t, candidate_spectrum,
                                               query_spectrum, eps2);
    if (d2 < eps2) {
      matches->push_back(Match{series_id, t, std::sqrt(d2)});
    }
  }
}

/// Full spec validation (lengths, thresholds, partition well-formedness).
Status ValidateRangeSpec(const Dataset& dataset, const RangeQuerySpec& spec) {
  if (spec.query.size() != dataset.length()) {
    return Status::InvalidArgument("query length does not match dataset");
  }
  if (spec.transforms.empty()) {
    return Status::InvalidArgument("no transformations in query");
  }
  // The negated form also rejects a NaN epsilon, which would otherwise
  // silently match nothing.
  if (!(spec.epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN distance threshold");
  }
  if (spec.query_transform.has_value() &&
      spec.query_transform->length() != dataset.length()) {
    return Status::InvalidArgument(
        "query transformation length does not match dataset");
  }
  if (spec.use_ordering && spec.target == TransformTarget::kDataOnly) {
    return Status::InvalidArgument(
        "ordering-based search requires same-transform distances "
        "(TransformTarget::kBoth)");
  }
  for (const transform::SpectralTransform& t : spec.transforms) {
    if (t.length() != dataset.length()) {
      return Status::InvalidArgument(
          "transformation length does not match dataset: " + t.label());
    }
    if (dataset.layout().use_symmetry && !t.PreservesRealSequences()) {
      return Status::InvalidArgument(
          "symmetry-based filtering requires real-preserving "
          "transformations: " +
          t.label());
    }
  }
  if (!spec.partition.empty()) {
    std::vector<bool> seen(spec.transforms.size(), false);
    for (const auto& group : spec.partition) {
      if (group.empty()) {
        return Status::InvalidArgument("empty transformation group");
      }
      for (const std::size_t t : group) {
        if (t >= spec.transforms.size() || seen[t]) {
          return Status::InvalidArgument(
              "partition is not a partition of the transformation set");
        }
        seen[t] = true;
      }
    }
    if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
      return Status::InvalidArgument(
          "partition does not cover the transformation set");
    }
  }
  return Status::Ok();
}

/// Record fetches for one RunRangeQueries call. How often each id will be
/// requested is known once traversal finishes; only ids requested more than
/// once get a memo slot, so a single-use record is never retained — its
/// caller reads it into a task-local buffer and drops it after verifying.
/// Slots are sized once and never resized, so concurrent Get() calls race
/// only on a slot's once_flag.
class FetchTable {
 public:
  /// `requests[id]` is how many (query, rectangle) pairs will request `id`.
  FetchTable(const Dataset& dataset, std::vector<std::uint32_t> requests)
      : dataset_(dataset), slot_of_(std::move(requests)) {
    std::uint32_t slots = 0;
    for (std::uint32_t& slot : slot_of_) slot = slot >= 2 ? ++slots : 0;
    slots_ = std::make_unique<Slot[]>(slots);
  }

  /// Whether `id` has a memo slot (ids no index entry could name do not).
  bool shared(std::size_t id) const {
    return id < slot_of_.size() && slot_of_[id] != 0;
  }

  /// The memoized fetch of a shared `id` (the first caller pays the I/O).
  const Result<std::vector<dft::Complex>>& Get(std::size_t id) {
    Slot& slot = slots_[slot_of_[id] - 1];
    std::call_once(slot.once, [&] {
      slot.value.emplace(dataset_.FetchSpectrum(id, &slot.pages));
    });
    return *slot.value;
  }

  /// Serial attribution: true for the request that pays for `id`'s fetch,
  /// false for a request served by an earlier one. `*pages` receives the
  /// pages a shared fetch read (0 for a single-use id, whose pages its
  /// verify task already counted).
  bool Claim(std::size_t id, std::uint64_t* pages) {
    *pages = 0;
    if (!shared(id)) return true;
    Slot& slot = slots_[slot_of_[id] - 1];
    if (slot.claimed) return false;
    slot.claimed = true;
    *pages = slot.pages;
    return true;
  }

 private:
  struct Slot {
    std::once_flag once;
    std::optional<Result<std::vector<dft::Complex>>> value;
    std::uint64_t pages = 0;
    bool claimed = false;
  };

  const Dataset& dataset_;
  std::vector<std::uint32_t> slot_of_;  // 1-based slot per id; 0 = not shared
  std::unique_ptr<Slot[]> slots_;
};

/// One verification task: a kVerifyChunk chunk of one rectangle's candidate
/// list, or a kScanChunk slice of the relation (rectangle 0).
struct VerifyTask {
  std::size_t rect = 0;
  exec::ChunkRange range;
};

struct VerifyPart {
  std::vector<Match> matches;
  QueryStats stats;  // candidates and comparisons
  std::uint64_t single_use_pages = 0;
  std::uint64_t fetch_nanos = 0;
  std::uint64_t verify_nanos = 0;
};

/// One query's state through the stages. A non-OK `status` is its first
/// failure; later stages skip it.
struct QueryRun {
  Status status = Status::Ok();
  bool scan = false;
  std::vector<dft::Complex> query_spectrum;
  rstar::Point query_features;
  std::vector<transform::FeatureTransform> feature_transforms;
  transform::Partition rects;      // chain-ordered when rect_ordered[r]
  std::vector<bool> rect_ordered;
  plan::PlanKey signature;         // traversal grouping (indexed only)
  std::uint64_t plan_nanos = 0;

  std::size_t group = 0;   // traversal group and position in it
  std::size_t member = 0;

  std::vector<VerifyTask> tasks;
  std::vector<VerifyPart> parts;

  std::uint64_t record_pages = 0;          // pages charged to the query
  std::vector<std::uint64_t> rect_pages;   // ... per rectangle
  std::uint64_t requests = 0;
  std::uint64_t claims = 0;
};

/// One rectangle's traversal for a traversal group: per-member candidate
/// lists in traversal order.
struct RectPass {
  std::vector<std::vector<rstar::Entry>> candidates;
  rstar::SearchStats search;
  std::uint64_t nanos = 0;
  Status status = Status::Ok();
};

struct TraversalGroup {
  std::vector<std::size_t> members;  // run indices, input order
  std::vector<RectPass> rects;
};

/// The rectangles a query verifies against.
transform::Partition EffectivePartition(const RangeRun& run) {
  const std::size_t count = run.spec->transforms.size();
  if (run.algorithm == Algorithm::kSequentialScan) {
    return transform::PartitionAll(count);
  }
  if (run.algorithm == Algorithm::kStIndex) {
    return transform::PartitionSingletons(count);
  }
  if (run.partition_override != nullptr && !run.partition_override->empty()) {
    return *run.partition_override;
  }
  if (run.spec->partition.empty()) return transform::PartitionAll(count);
  return run.spec->partition;
}

/// What must coincide for two indexed queries to share a traversal: the
/// transformation set and its rectangles. Epsilon, target, ordering, the
/// query and its query_transform may all differ — they only shape each
/// member's own region and verification.
plan::PlanKey TraversalSignature(const RangeQuerySpec& spec,
                                 const transform::Partition& partition) {
  plan::PlanKeyBuilder key;
  key.Add(spec.transforms.size());
  for (const transform::SpectralTransform& t : spec.transforms) {
    key.AddString(t.label());
    key.Add(t.length());
    for (std::size_t f = 0; f < t.length(); ++f) {
      const dft::Complex m = t.multiplier(f);
      key.AddDouble(m.real());
      key.AddDouble(m.imag());
    }
  }
  key.Add(partition.size());
  for (const std::vector<std::size_t>& group : partition) {
    key.Add(group.size());
    for (const std::size_t t : group) key.Add(t);
  }
  return key.key();
}

/// Stage 1 for one query. `sign`: compute the traversal signature (only
/// worth its hashing when the call has more than one indexed query).
void Prepare(const Dataset& dataset, const RangeRun& run, bool sign,
             QueryRun* q) {
  const std::uint64_t plan_start = MonotonicNanos();
  q->status = RejectUnresolvedAuto(run.algorithm);
  if (q->status.ok()) q->status = ValidateRangeSpec(dataset, *run.spec);
  if (!q->status.ok()) return;
  const RangeQuerySpec& spec = *run.spec;
  const transform::FeatureLayout& layout = dataset.layout();
  const ts::NormalForm query_normal = ts::Normalize(spec.query);
  q->query_spectrum = dataset.plan().Forward(query_normal.values);
  if (spec.query_transform.has_value()) {
    q->query_spectrum =
        spec.query_transform->ApplyToSpectrum(q->query_spectrum);
  }
  // Mean/stddev feature slots are never constrained by the query region, so
  // reusing the raw query statistics alongside a transformed spectrum is
  // sound.
  q->query_features = ExtractFeatures(query_normal, q->query_spectrum, layout);

  q->scan = run.algorithm == Algorithm::kSequentialScan;
  q->rects = EffectivePartition(run);
  if (!q->scan) {
    if (sign) q->signature = TraversalSignature(spec, q->rects);
    q->feature_transforms.reserve(spec.transforms.size());
    for (const transform::SpectralTransform& t : spec.transforms) {
      q->feature_transforms.push_back(t.ToFeatureTransform(layout));
    }
  }
  // Dominance-chain ordering for the binary-search post-processing.
  std::vector<std::size_t> chain;
  if (spec.use_ordering) chain = transform::DominanceChain(spec.transforms);
  q->rect_ordered.resize(q->rects.size());
  for (std::size_t r = 0; r < q->rects.size(); ++r) {
    q->rect_ordered[r] =
        spec.use_ordering && OrderGroupByChain(chain, &q->rects[r]);
  }
  q->plan_nanos = MonotonicNanos() - plan_start;
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSequentialScan:
      return "seq-scan";
    case Algorithm::kStIndex:
      return "ST-index";
    case Algorithm::kMtIndex:
      return "MT-index";
    case Algorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

Status RejectUnresolvedAuto(Algorithm algorithm) {
  if (algorithm == Algorithm::kAuto) {
    return Status::InvalidArgument(
        "Algorithm::kAuto must be resolved by SimilarityEngine::Execute; "
        "raw executors need a concrete algorithm");
  }
  return Status::Ok();
}

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  index_nodes_accessed += other.index_nodes_accessed;
  index_leaves_accessed += other.index_leaves_accessed;
  record_pages_read += other.record_pages_read;
  candidates += other.candidates;
  comparisons += other.comparisons;
  traversals += other.traversals;
  output_size += other.output_size;
  return *this;
}

std::vector<Result<RangeQueryResult>> RunRangeQueries(
    const Dataset& dataset, const SequenceIndex& index,
    std::span<const RangeRun> runs, std::size_t num_threads) {
  const std::uint64_t start = MonotonicNanos();
  const std::size_t n = runs.size();
  const transform::FeatureLayout& layout = dataset.layout();

  // --- 1. Prepare ----------------------------------------------------------
  std::size_t indexed = 0;
  for (const RangeRun& run : runs) {
    if (run.algorithm != Algorithm::kSequentialScan) ++indexed;
  }
  std::vector<QueryRun> queries(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (runs[i].group_stats != nullptr) runs[i].group_stats->clear();
    Prepare(dataset, runs[i], indexed > 1, &queries[i]);
  }

  // --- 2. Traverse ---------------------------------------------------------
  // Traversal groups in input order, so the grouping is deterministic.
  std::vector<TraversalGroup> groups;
  {
    std::unordered_map<plan::PlanKey, std::size_t, plan::PlanKeyHash>
        group_for_signature;
    for (std::size_t i = 0; i < n; ++i) {
      QueryRun& q = queries[i];
      if (!q.status.ok() || q.scan) continue;
      const auto [it, inserted] =
          group_for_signature.emplace(q.signature, groups.size());
      if (inserted) {
        groups.emplace_back();
        groups.back().rects.resize(q.rects.size());
      }
      q.group = it->second;
      q.member = groups[it->second].members.size();
      groups[it->second].members.push_back(i);
    }
  }
  struct TraversalTask {
    std::size_t group = 0;
    std::size_t rect = 0;
  };
  std::vector<TraversalTask> traversals;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t r = 0; r < groups[g].rects.size(); ++r) {
      traversals.push_back(TraversalTask{g, r});
    }
  }
  (void)exec::ParallelFor(
      num_threads, traversals.size(), [&](std::size_t ti) -> Status {
        TraversalGroup& group = groups[traversals[ti].group];
        RectPass& pass = group.rects[traversals[ti].rect];
        const std::uint64_t task_start = MonotonicNanos();
        const QueryRun& leader = queries[group.members.front()];
        std::vector<transform::FeatureTransform> rect_fts;
        for (const std::size_t t : leader.rects[traversals[ti].rect]) {
          rect_fts.push_back(leader.feature_transforms[t]);
        }
        const transform::TransformMbr mbr(rect_fts, layout);
        // kBoth: the query region covers every transformed query image t(q).
        // kDataOnly: the query is compared untransformed, so the region is
        // the paper's literal step 2 — a safe window around q itself.
        const std::vector<transform::FeatureTransform> identity = {
            transform::FeatureTransform::Identity(layout.dimensions())};
        std::vector<rstar::Rect> regions;
        for (const std::size_t member : group.members) {
          const RangeQuerySpec& spec = *runs[member].spec;
          regions.push_back(BuildQueryRegion(
              queries[member].query_features,
              spec.target == TransformTarget::kBoth
                  ? std::span<const transform::FeatureTransform>(rect_fts)
                  : std::span<const transform::FeatureTransform>(identity),
              spec.epsilon, layout));
        }
        pass.candidates.resize(regions.size());
        if (regions.size() == 1) {
          pass.status = index.tree().Search(
              [&](const rstar::Rect& rect) {
                return mbr.AppliedIntersects(rect, regions[0]);
              },
              &pass.candidates[0], &pass.search);
        } else {
          std::vector<rstar::Entry> entries;
          pass.status = index.tree().Search(
              [&](const rstar::Rect& rect) {
                for (const rstar::Rect& region : regions) {
                  if (mbr.AppliedIntersects(rect, region)) return true;
                }
                return false;
              },
              &entries, &pass.search);
          for (const rstar::Entry& entry : entries) {
            for (std::size_t m = 0; m < regions.size(); ++m) {
              if (mbr.AppliedIntersects(entry.rect, regions[m])) {
                pass.candidates[m].push_back(entry);
              }
            }
          }
        }
        pass.nanos = MonotonicNanos() - task_start;
        return Status::Ok();  // per-rectangle status kept in the pass
      });
  for (const TraversalGroup& group : groups) {
    for (const RectPass& pass : group.rects) {
      if (pass.status.ok()) continue;
      // The lowest-indexed failing rectangle fails every member.
      for (const std::size_t member : group.members) {
        queries[member].status = pass.status;
      }
      break;
    }
  }

  // --- 3 + 4. Fetch and verify ---------------------------------------------
  // Every (query, rectangle) request is known now; count them per id so the
  // fetch table memoizes exactly the ids requested more than once.
  const auto candidates_of =
      [&](const QueryRun& q,
          std::size_t rect) -> const std::vector<rstar::Entry>& {
    return groups[q.group].rects[rect].candidates[q.member];
  };
  std::vector<std::uint32_t> requests(dataset.size(), 0);
  std::vector<std::size_t> task_counts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    QueryRun& q = queries[i];
    if (!q.status.ok()) continue;
    if (q.scan) {
      for (std::size_t id = 0; id < dataset.size(); ++id) {
        if (!dataset.removed(id)) ++requests[id];
      }
      const std::size_t slices = exec::ChunkCount(dataset.size(), kScanChunk);
      for (std::size_t c = 0; c < slices; ++c) {
        q.tasks.push_back(
            VerifyTask{0, exec::ChunkBounds(dataset.size(), kScanChunk, c)});
      }
    } else {
      for (std::size_t r = 0; r < q.rects.size(); ++r) {
        const std::vector<rstar::Entry>& candidates = candidates_of(q, r);
        for (const rstar::Entry& entry : candidates) {
          // A corrupted leaf may name an id past the relation; its fetch
          // fails with OutOfRange below.
          if (entry.id < requests.size()) ++requests[entry.id];
        }
        const std::size_t chunks =
            exec::ChunkCount(candidates.size(), kVerifyChunk);
        for (std::size_t c = 0; c < chunks; ++c) {
          q.tasks.push_back(VerifyTask{
              r, exec::ChunkBounds(candidates.size(), kVerifyChunk, c)});
        }
      }
    }
    q.parts.resize(q.tasks.size());
    task_counts[i] = q.tasks.size();
  }
  FetchTable fetches(dataset, std::move(requests));
  const std::vector<Status> verify_status = exec::ParallelForBatch(
      num_threads, task_counts, [&](std::size_t i, std::size_t ti) -> Status {
        QueryRun& q = queries[i];
        const VerifyTask& task = q.tasks[ti];
        VerifyPart& part = q.parts[ti];
        const auto verify = [&](std::size_t id) -> Status {
          const std::uint64_t fetch_start = MonotonicNanos();
          std::optional<Result<std::vector<dft::Complex>>> own;
          const Result<std::vector<dft::Complex>>& spectrum =
              fetches.shared(id)
                  ? fetches.Get(id)
                  : own.emplace(
                        dataset.FetchSpectrum(id, &part.single_use_pages));
          const std::uint64_t fetch_end = MonotonicNanos();
          part.fetch_nanos += fetch_end - fetch_start;
          if (!spectrum.ok()) return spectrum.status();
          ++part.stats.candidates;
          VerifyCandidate(*runs[i].spec, *spectrum, q.query_spectrum,
                          q.rects[task.rect], q.rect_ordered[task.rect], id,
                          &part.matches, &part.stats);
          part.verify_nanos += MonotonicNanos() - fetch_end;
          return Status::Ok();
        };
        for (std::size_t c = task.range.first; c < task.range.last; ++c) {
          if (q.scan && dataset.removed(c)) continue;
          TSQ_RETURN_IF_ERROR(
              verify(q.scan ? c : candidates_of(q, task.rect)[c].id));
        }
        return Status::Ok();
      });

  // --- 5. Attribute --------------------------------------------------------
  // Serial, in input order and each query's task order: the request that
  // claims a memoized fetch pays its pages; later ones are deduped. Failed
  // queries claim nothing, so every charge is backed by a completed fetch.
  for (std::size_t i = 0; i < n; ++i) {
    QueryRun& q = queries[i];
    if (q.status.ok()) q.status = verify_status[i];
    if (!q.status.ok()) continue;
    q.rect_pages.assign(q.rects.size(), 0);
    const auto request = [&](std::size_t id, std::size_t rect) {
      ++q.requests;
      std::uint64_t pages = 0;
      if (!fetches.Claim(id, &pages)) return;
      ++q.claims;
      q.record_pages += pages;
      q.rect_pages[rect] += pages;
    };
    if (q.scan) {
      for (std::size_t id = 0; id < dataset.size(); ++id) {
        if (!dataset.removed(id)) request(id, 0);
      }
    } else {
      for (std::size_t r = 0; r < q.rects.size(); ++r) {
        for (const rstar::Entry& entry : candidates_of(q, r)) {
          request(entry.id, r);
        }
      }
    }
  }

  // --- Merge ---------------------------------------------------------------
  std::vector<Result<RangeQueryResult>> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    QueryRun& q = queries[i];
    if (!q.status.ok()) {
      results.emplace_back(q.status);
      continue;
    }
    const RangeRun& run = runs[i];
    RangeQueryResult result;
    QueryStats& stats = result.stats;
    obs::QueryTrace& trace = result.trace;
    trace.algorithm = AlgorithmName(run.algorithm);
    trace.num_threads = num_threads;
    trace.at(obs::Phase::kPlan)
        .AddTask(q.plan_nanos, run.spec->transforms.size());

    const std::uint64_t merge_start = MonotonicNanos();
    for (std::size_t ti = 0; ti < q.parts.size(); ++ti) {
      const VerifyPart& part = q.parts[ti];
      result.matches.insert(result.matches.end(), part.matches.begin(),
                            part.matches.end());
      stats += part.stats;
      q.record_pages += part.single_use_pages;
      q.rect_pages[q.tasks[ti].rect] += part.single_use_pages;
      trace.at(obs::Phase::kCandidateFetch)
          .AddTask(part.fetch_nanos, part.stats.candidates);
      trace.at(obs::Phase::kVerification)
          .AddTask(part.verify_nanos, part.stats.comparisons);
    }
    stats.record_pages_read = q.record_pages;

    if (!q.scan) {
      const TraversalGroup& group = groups[q.group];
      const bool leader = q.member == 0;
      trace.batch_group_queries = group.members.size();
      trace.shared_traversal = group.members.size() >= 2;
      for (std::size_t r = 0; r < group.rects.size(); ++r) {
        const RectPass& pass = group.rects[r];
        if (leader) {
          ++stats.traversals;
          stats.index_nodes_accessed += pass.search.nodes_accessed;
          stats.index_leaves_accessed += pass.search.leaf_nodes_accessed;
          trace.at(obs::Phase::kIndexTraversal)
              .AddTask(pass.nanos, pass.search.nodes_accessed);
        }
        if (run.group_stats != nullptr) {
          run.group_stats->push_back(GroupRunStats{
              (leader ? pass.search.nodes_accessed : 0) + q.rect_pages[r],
              leader ? pass.search.leaf_nodes_accessed : 0,
              q.rects[r].size(), pass.candidates[q.member].size()});
        }
      }
    }
    stats.output_size = result.matches.size();
    trace.deduped_fetches = q.requests - q.claims;
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - start;
    results.emplace_back(std::move(result));
  }
  return results;
}

Result<RangeQueryResult> RunRangeQuery(const Dataset& dataset,
                                       const SequenceIndex& index,
                                       const RangeQuerySpec& spec,
                                       const ExecOptions& options,
                                       std::vector<GroupRunStats>* group_stats,
                                       const transform::Partition*
                                           partition_override) {
  const RangeRun run{&spec, options.planner.algorithm, partition_override,
                     group_stats};
  return std::move(
      RunRangeQueries(dataset, index, {&run, 1}, options.num_threads)
          .front());
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              if (a.series_id != b.series_id) return a.series_id < b.series_id;
              return a.transform_index < b.transform_index;
            });
}

}  // namespace tsq::core
