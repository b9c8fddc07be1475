#include "layers.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <variant>

#include "common/check.h"
#include "common/rng.h"
#include "dft/fft.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace perfbench {

namespace core = tsq::core;
namespace storage = tsq::storage;
using tsq::Rng;

namespace {

constexpr std::size_t kBlocks = 15;  // timed blocks per probe; median taken

// Keeps probe results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

/// Median over kBlocks of the nanoseconds per call of `block`, which makes
/// `calls` calls. Each block is one span.
template <typename Block>
double NanosPerCall(SpanLog& spans, const char* name, std::size_t calls,
                    Block&& block) {
  std::vector<double> per_call;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    ScopedSpan span(spans, name, b);
    const std::uint64_t start = NowNanos();
    block();
    per_call.push_back(static_cast<double>(NowNanos() - start) /
                       static_cast<double>(calls));
  }
  return Median(per_call);
}

std::vector<storage::PageId> Permutation(std::size_t n, std::uint64_t seed) {
  std::vector<storage::PageId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<storage::PageId>(i);
  Rng rng(seed);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<std::size_t>(
                          rng.UniformInt(0, static_cast<std::int64_t>(i)))]);
  }
  return ids;
}

double ReadAll(storage::PageFile& file, const std::vector<storage::PageId>& ids,
               std::size_t rounds) {
  storage::Page page;
  double sum = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (storage::PageId id : ids) {
      if (file.Read(id, &page).ok()) sum += page.bytes[id % storage::kPageSize];
    }
  }
  return sum;
}

/// Replays `specs` under settings `a` and `b`, alternating which runs first,
/// and hands each spec's two results and latencies (a's first) to `visit`.
template <typename Visit>
void ReplayPairs(const core::SimilarityEngine& engine,
                 const std::vector<core::QuerySpec>& specs,
                 const core::ExecOptions& a, const core::ExecOptions& b,
                 SpanLog& spans, const char* name, Visit&& visit) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ScopedSpan span(spans, name, i);
    const bool a_first = i % 2 == 0;
    const core::ExecOptions& first = a_first ? a : b;
    const core::ExecOptions& second = a_first ? b : a;
    std::uint64_t start = NowNanos();
    auto r1 = engine.Execute(specs[i], first);
    const std::uint64_t t1 = NowNanos() - start;
    start = NowNanos();
    auto r2 = engine.Execute(specs[i], second);
    const std::uint64_t t2 = NowNanos() - start;
    if (!r1.ok() || !r2.ok()) continue;
    if (a_first) {
      visit(*r1, t1, *r2, t2);
    } else {
      visit(*r2, t2, *r1, t1);
    }
  }
}

double PhaseMillisPerCall(const LayerTally& tally, tsq::obs::Phase phase) {
  return Ratio(tally.phase_nanos[static_cast<std::size_t>(phase)],
               static_cast<double>(tally.calls)) /
         1e6;
}

}  // namespace

std::vector<Metric> MeasureLayers(Workload& workload, const RunLog& log,
                                  SpanLog& spans, std::uint64_t seed) {
  std::vector<Metric> out;
  auto add = [&](std::string name, double value, std::string unit) {
    out.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  const core::SimilarityEngine& engine = workload.engine();
  const core::Dataset& dataset = engine.dataset();
  const auto& tally = log.tally;

  // --- Registry counters of the measured loop (read before any probe) -----
  auto& registry = tsq::obs::MetricsRegistry::Global();
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name)->value());
  };
  const double abandon_ratio = Ratio(counter("engine.kernels.early_abandons"),
                                     counter("engine.kernels.calls"));
  const double plan_hits = counter("engine.planner.cache_hits");
  const double plan_hit_ratio =
      Ratio(plan_hits, plan_hits + counter("engine.planner.cache_misses"));
  const double cache_hits = counter("engine.result_cache.hits");
  const double cache_hit_ratio =
      Ratio(cache_hits, cache_hits + counter("engine.result_cache.misses"));

  // --- Folded QueryStats / QueryTrace of every read operation -------------
  LayerTally reads;
  for (OpKind kind : {OpKind::kRange, OpKind::kKnn, OpKind::kJoin,
                      OpKind::kBatch}) {
    const LayerTally& t = tally[static_cast<std::size_t>(kind)];
    reads.stats += t.stats;
    reads.results += t.results - t.cache_served;
    reads.cost_error_sum += t.cost_error_sum;
    reads.cost_error_count += t.cost_error_count;
  }
  const double executed = static_cast<double>(reads.results);
  const double candidates = static_cast<double>(reads.stats.candidates);

  // --- storage: PageFile / BufferPool on a benchmark-owned file -----------
  const std::size_t pages = std::max<std::size_t>(dataset.record_pages(), 1);
  storage::PageFile file;
  {
    Rng rng(seed ^ 0x5157);
    storage::Page page;
    for (std::size_t p = 0; p < pages; ++p) {
      for (auto& byte : page.bytes) byte = static_cast<std::uint8_t>(rng.Next64());
      const storage::PageId id = file.Allocate();
      TSQ_CHECK(file.Write(id, page).ok());
    }
  }
  const auto order = Permutation(pages, seed);
  const double page_read_ns = NanosPerCall(spans, "storage.PageFile::Read", pages,
                                           [&] { g_sink = ReadAll(file, order, 1); });

  // The same reads from 4 threads at once, each through its own order:
  // per-read latency as each thread sees it.
  constexpr std::size_t kThreads = 4;
  const std::size_t rounds = std::max<std::size_t>(1, 8192 / pages);
  std::vector<std::vector<storage::PageId>> orders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    orders.push_back(Permutation(pages, seed + 1 + t));
  }
  const double page_read_4t_ns = NanosPerCall(
      spans, "storage.PageFile::Read x4 threads", pages * rounds, [&] {
        std::vector<std::thread> threads;
        std::vector<double> sums(kThreads, 0.0);
        for (std::size_t t = 0; t < kThreads; ++t) {
          threads.emplace_back(
              [&, t] { sums[t] = ReadAll(file, orders[t], rounds); });
        }
        for (auto& thread : threads) thread.join();
        g_sink = sums[0];
      });

  storage::BufferPool pool(&file, pages);
  double pool_sum = 0.0;
  storage::Page pool_page;
  for (storage::PageId id : order) {
    if (pool.Read(id, &pool_page).ok()) pool_sum += pool_page.bytes[0];
  }
  const double pool_hit_ns =
      NanosPerCall(spans, "storage.BufferPool::Read(hit)", pages, [&] {
        for (storage::PageId id : order) {
          if (pool.Read(id, &pool_page).ok()) pool_sum += pool_page.bytes[1];
        }
        g_sink = pool_sum;
      });

  // --- core: Dataset::FetchSpectrum on the ids the run's answers hold -----
  std::vector<std::size_t> ids = log.fetched_ids;
  if (ids.empty()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(1024, dataset.size()); ++i) {
      ids.push_back(i);
    }
  }
  const double fetch_ns =
      NanosPerCall(spans, "core.Dataset::FetchSpectrum", ids.size(), [&] {
        double sum = 0.0;
        for (std::size_t id : ids) {
          auto spectrum = dataset.FetchSpectrum(id);
          if (spectrum.ok()) sum += (*spectrum)[1].real();
        }
        g_sink = sum;
      });

  // --- rstar: window queries on the engine's tree, inserts into a new one -
  const tsq::rstar::RStarTree& tree = engine.index().tree();
  std::vector<tsq::rstar::Rect> windows;
  if (const auto root = tree.RootRect()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(256, ids.size()); ++i) {
      const tsq::rstar::Point& center = dataset.features(ids[i]);
      std::vector<double> low(center.size()), high(center.size());
      for (std::size_t d = 0; d < center.size(); ++d) {
        const double half = 0.05 * root->Extent(d);
        low[d] = center[d] - half;
        high[d] = center[d] + half;
      }
      windows.emplace_back(std::move(low), std::move(high));
    }
  }
  const double window_us =
      NanosPerCall(spans, "rstar.RStarTree::WindowQuery",
                   std::max<std::size_t>(windows.size(), 1), [&] {
                     std::vector<tsq::rstar::Entry> hits;
                     std::size_t total = 0;
                     for (const auto& window : windows) {
                       hits.clear();
                       if (tree.WindowQuery(window, &hits).ok()) total += hits.size();
                     }
                     g_sink = static_cast<double>(total);
                   }) /
      1e3;

  double insert_us = 0.0;
  {
    storage::PageFile tree_file;
    tsq::rstar::RStarTree fresh(&tree_file, dataset.layout().dimensions());
    const std::size_t count = std::min<std::size_t>(dataset.size(), 12000);
    constexpr std::size_t kInsertBlock = 1000;
    std::uint64_t nanos = 0;
    for (std::size_t first = 0; first < count; first += kInsertBlock) {
      ScopedSpan span(spans, "rstar.RStarTree::Insert", first);
      const std::size_t last = std::min(count, first + kInsertBlock);
      const std::uint64_t start = NowNanos();
      for (std::size_t i = first; i < last; ++i) {
        if (!fresh.Insert(tsq::rstar::Rect::FromPoint(dataset.features(i)), i).ok()) {
          break;
        }
      }
      nanos += NowNanos() - start;
    }
    insert_us = Ratio(static_cast<double>(nanos), static_cast<double>(count)) / 1e3;
  }

  // --- dft and kernels, on the run's own series ---------------------------
  const std::size_t length = dataset.length();
  const std::size_t series = std::min<std::size_t>(dataset.size(), 1024);
  tsq::dft::FftPlan fft(length);
  const double fft_ns = NanosPerCall(spans, "dft.FftPlan::Forward", series, [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < series; ++i) {
      sum += fft.Forward(std::span<const double>(dataset.normal(i).values))[1].real();
    }
    g_sink = sum;
  });

  constexpr std::size_t kKernelCalls = 20000;
  std::vector<double> weights(2 * length);
  {
    Rng rng(seed ^ 0xC0FFEE);
    for (double& w : weights) w = rng.NextDouble();
  }
  auto spectrum_view = [&](std::size_t i) {
    const auto& s = dataset.spectrum(i % series);
    return std::span<const double>(reinterpret_cast<const double*>(s.data()),
                                   2 * s.size());
  };
  const double sqdist_ns =
      NanosPerCall(spans, "kernels.SquaredDistance", kKernelCalls, [&] {
        double sum = 0.0;
        for (std::size_t c = 0; c < kKernelCalls; ++c) {
          sum += tsq::kernels::SquaredDistance(dataset.normal(c % series).values,
                                               dataset.normal((c + 1) % series).values);
        }
        g_sink = sum;
      });
  const double weighted_ns =
      NanosPerCall(spans, "kernels.WeightedSquaredDistance", kKernelCalls, [&] {
        double sum = 0.0;
        for (std::size_t c = 0; c < kKernelCalls; ++c) {
          sum += tsq::kernels::WeightedSquaredDistance(spectrum_view(c),
                                                       spectrum_view(c + 1), weights);
        }
        g_sink = sum;
      });

  // --- plan: Planner::Plan cold (epoch bumped) and cached, spare engine ---
  std::vector<double> cold_us, cached_us;
  if (core::SimilarityEngine* spare = workload.spare()) {
    tsq::plan::Planner& planner = spare->planner();
    const core::PlannerOptions options;
    auto plan = [&](const core::QuerySpec& spec) {
      return std::visit([&](const auto& s) { return planner.Plan(s, options).ok(); },
                        spec);
    };
    if (!log.replay.empty()) plan(log.replay.front());  // calibrates once
    for (std::size_t i = 0; i < log.replay.size(); ++i) {
      ScopedSpan span(spans, "plan.Planner::Plan", i);
      planner.BumpEpoch();
      std::uint64_t start = NowNanos();
      plan(log.replay[i]);
      cold_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
      start = NowNanos();
      plan(log.replay[i]);
      cached_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
    }
  }

  // --- Replays of the run's read queries on the workload's engine ---------
  const core::ExecOptions auto_options;
  core::ExecOptions mt_options;
  mt_options.planner.algorithm = core::Algorithm::kMtIndex;
  double auto_nanos = 0.0, mt_nanos = 0.0;
  ReplayPairs(engine, log.replay, auto_options, mt_options, spans,
              "replay: kAuto vs kMtIndex",
              [&](const core::QueryResult&, std::uint64_t a,
                  const core::QueryResult&, std::uint64_t b) {
                auto_nanos += static_cast<double>(a);
                mt_nanos += static_cast<double>(b);
              });

  core::ExecOptions four, one;
  four.num_threads = 4;
  one.num_threads = 1;
  double fetch_4t = 0.0, fetch_1t = 0.0, nanos_4t = 0.0, nanos_1t = 0.0;
  double task_nanos_4t = 0.0;
  ReplayPairs(engine, log.replay, four, one, spans, "replay: 4 vs 1 threads",
              [&](const core::QueryResult& a, std::uint64_t a_nanos,
                  const core::QueryResult& b, std::uint64_t b_nanos) {
                fetch_4t += static_cast<double>(
                    a.trace().at(tsq::obs::Phase::kCandidateFetch).nanos);
                fetch_1t += static_cast<double>(
                    b.trace().at(tsq::obs::Phase::kCandidateFetch).nanos);
                for (const auto& phase : a.trace().phases) {
                  task_nanos_4t += static_cast<double>(phase.nanos);
                }
                nanos_4t += static_cast<double>(a_nanos);
                nanos_1t += static_cast<double>(b_nanos);
              });

  core::ExecOptions scan;
  scan.planner.algorithm = core::Algorithm::kSequentialScan;
  double scan_reads = 0.0, scans = 0.0;
  for (std::size_t i = 0; i < log.replay.size() && scans < 4; ++i) {
    if (!std::holds_alternative<core::RangeQuerySpec>(log.replay[i])) continue;
    ScopedSpan span(spans, "replay: kSequentialScan", i);
    auto result = engine.Execute(log.replay[i], scan);
    if (!result.ok()) continue;
    scan_reads += static_cast<double>(result->stats().record_pages_read);
    scans += 1.0;
  }

  // --- Assemble, grouped by layer ------------------------------------------
  add("storage.page_read_ns", page_read_ns, "ns");
  add("storage.page_read_4t_ns", page_read_4t_ns, "ns");
  add("storage.pool_hit_ns", pool_hit_ns, "ns");
  add("storage.record_reads_per_candidate",
      Ratio(static_cast<double>(reads.stats.record_pages_read), candidates),
      "ratio");
  add("storage.scan_read_amp",
      Ratio(scan_reads, scans * static_cast<double>(dataset.record_pages())),
      "ratio");
  add("core.fetch_spectrum_ns", fetch_ns, "ns");
  add("exec.parallel_efficiency", Ratio(task_nanos_4t, 4.0 * nanos_4t), "ratio");
  add("exec.fetch_nanos_4t_over_1t", Ratio(fetch_4t, fetch_1t), "ratio");
  add("exec.speedup_4t", Ratio(nanos_1t, nanos_4t), "ratio");
  add("rstar.nodes_per_op",
      Ratio(static_cast<double>(reads.stats.index_nodes_accessed), executed),
      "count");
  add("rstar.leaves_per_op",
      Ratio(static_cast<double>(reads.stats.index_leaves_accessed), executed),
      "count");
  add("rstar.filter_precision",
      Ratio(static_cast<double>(reads.stats.output_size), candidates), "ratio");
  add("rstar.window_query_us", window_us, "us");
  add("rstar.insert_us", insert_us, "us");
  add("dft.forward_ns", fft_ns, "ns");
  add("kernels.squared_distance_ns", sqdist_ns, "ns");
  add("kernels.weighted_sqdist_ns", weighted_ns, "ns");
  add("kernels.comparisons_per_op",
      Ratio(static_cast<double>(reads.stats.comparisons), executed), "count");
  add("kernels.abandon_ratio", abandon_ratio, "ratio");
  add("plan.plan_cold_us", Median(cold_us), "us");
  add("plan.plan_cached_us", Median(cached_us), "us");
  add("plan.cache_hit_ratio", plan_hit_ratio, "ratio");
  add("plan.auto_over_mt", Ratio(auto_nanos, mt_nanos), "ratio");
  add("plan.cost_error",
      Ratio(reads.cost_error_sum, static_cast<double>(reads.cost_error_count)),
      "log2");
  const LayerTally& batch = tally[static_cast<std::size_t>(OpKind::kBatch)];
  add("core.batch.dedup_ratio",
      Ratio(static_cast<double>(batch.deduped_fetches),
            static_cast<double>(batch.stats.candidates)),
      "ratio");
  add("core.result_cache.hit_ratio", cache_hit_ratio, "ratio");
  // Traced-minus-untraced mean cycle latency: what recording spans cost.
  const double untraced = Ratio(log.cycle_ms[0], static_cast<double>(log.cycles[0]));
  const double traced = Ratio(log.cycle_ms[1], static_cast<double>(log.cycles[1]));
  add("trace.overhead_pct", Ratio(100.0 * (traced - untraced), untraced), "%");
  static constexpr const char* kPhaseNames[tsq::obs::kPhaseCount] = {
      "plan", "traversal", "fetch", "verify", "merge"};
  for (OpKind kind : {OpKind::kRange, OpKind::kKnn, OpKind::kJoin,
                      OpKind::kBatch}) {
    for (std::size_t p = 0; p < tsq::obs::kPhaseCount; ++p) {
      add(std::string("core.") + OpName(kind) + "." + kPhaseNames[p] + "_ms",
          PhaseMillisPerCall(tally[static_cast<std::size_t>(kind)],
                             static_cast<tsq::obs::Phase>(p)),
          "ms");
    }
  }
  return out;
}

}  // namespace perfbench
