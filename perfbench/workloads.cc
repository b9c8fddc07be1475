#include "workloads.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "checks.h"
#include "obs/metrics.h"
#include "storage/page_file.h"
#include "testing/oracle.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"
#include "ts/normal_form.h"

namespace perfbench {

namespace core = tsq::core;
namespace ts = tsq::ts;
using tsq::Rng;

namespace {

constexpr std::size_t kLength = 128;       // every series, as in the paper
constexpr std::size_t kWalks = 12000;      // Fig. 5's largest size
constexpr std::size_t kReplayQueries = 48;  // read queries kept for replays
constexpr std::size_t kFetchedIds = 4096;

std::vector<ts::Series> WalkData(std::uint64_t seed) {
  ts::RandomWalkConfig config;
  config.num_series = kWalks;
  config.length = kLength;
  config.seed = seed;
  return ts::GenerateRandomWalks(config);
}

/// Fig. 5's Query 1: |T| = 16 moving averages (10..25 days) at rho = 0.96.
core::RangeQuerySpec WalkRangeSpec() {
  core::RangeQuerySpec spec;
  spec.transforms = tsq::transform::MovingAverageRange(kLength, 10, 25);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, kLength);
  return spec;
}

/// Picks every `stride`-th operation, from a seeded offset, until `quota`
/// have been picked: the seeded sample the oracle re-evaluates.
class Sampler {
 public:
  Sampler(std::uint64_t seed, std::size_t stride, std::size_t quota)
      : stride_(stride), quota_(quota), next_(seed % stride) {}

  bool Take() {
    const bool take = seen_++ == next_ && taken_ < quota_;
    if (take) {
      next_ += stride_;
      ++taken_;
    }
    return take;
  }

 private:
  std::size_t stride_, quota_, next_;
  std::size_t seen_ = 0, taken_ = 0;
};

// --- walk_range --------------------------------------------------------------

/// Fig. 5 at N = 12000: one range query per cycle on random dataset
/// members, default ExecOptions (planner picks the plan, 1 thread). No
/// threading, batching or writing: the single-thread read path, the
/// pipeline and the planner's choice alone.
class WalkRange : public Workload {
 public:
  using Workload::Workload;
  void Check(RunLog& log) override {
    const tsq::testing::Oracle oracle(engine_->dataset());
    for (const auto& [spec, matches] : samples_) {
      ++log.checked;
      const std::string diff = CheckRange(oracle, spec, matches);
      if (!diff.empty()) log.Fail("range: " + diff);
    }
  }

 protected:
  std::vector<ts::Series> MakeData() override { return WalkData(Stream(1)); }
  std::size_t SetupRepetitions() const override { return 5; }
  void Prepare() override { members_ = Rng(Stream(2)); }

  void Cycle(RunLog& log) override {
    core::RangeQuerySpec spec = template_;
    spec.query = MemberQuery(members_.UniformInt(0, kWalks - 1));
    auto result = Timed(OpKind::kRange, "engine.Execute(range)", log,
                        [&] { return engine_->Execute(spec); });
    ++log.attempted;
    if (!FoldRead(OpKind::kRange, result, log)) return;
    if (log.replay.size() < kReplayQueries) log.replay.push_back(spec);
    if (sampler_.Take()) {
      samples_.emplace_back(std::move(spec), result->range()->matches);
    }
  }

 private:
  core::RangeQuerySpec template_ = WalkRangeSpec();
  Rng members_;
  Sampler sampler_{Stream(3), 64, 16};
  std::vector<std::pair<core::RangeQuerySpec, std::vector<core::Match>>>
      samples_;
};

// --- stock_mix ---------------------------------------------------------------

/// The paper's stock set: GenerateStockMarket's defaults, 1068 x 128, the
/// same data for every seed (the seed picks the query members). A fixed
/// interleaved mix per cycle: 10 x (k-NN, k-NN, Fig. 9 range), then one
/// self-join, about one join per 20 k-NN. Verification kernels dominate
/// k-NN and the range, spatial-join traversal dominates the join. One
/// worker thread: on a shared 4-vCPU host, runs at 4 threads spread by
/// nearly half between runs, so the 4-thread figures come from the traced
/// run's replays instead. Seeded stock data spread by a tenth on its own;
/// 1068 series are too few to average the generator's draws out.
class StockMix : public Workload {
 public:
  using Workload::Workload;
  void Check(RunLog& log) override {
    const tsq::testing::Oracle oracle(engine_->dataset());
    for (const auto& [spec, matches] : knn_samples_) {
      ++log.checked;
      const std::string diff = CheckKnn(oracle, spec, matches);
      if (!diff.empty()) log.Fail("knn: " + diff);
    }
    for (const auto& [spec, matches] : range_samples_) {
      ++log.checked;
      const std::string diff = CheckRange(oracle, spec, matches);
      if (!diff.empty()) log.Fail("range: " + diff);
    }
    if (first_join_.has_value()) {
      ++log.checked;
      const std::string diff =
          CheckJoin(oracle, join_, *first_join_, join_was_scan_);
      if (!diff.empty()) log.Fail("join: " + diff);
    }
  }

 protected:
  std::vector<ts::Series> MakeData() override {
    return ts::GenerateStockMarket(ts::StockMarketConfig());
  }
  std::size_t SetupRepetitions() const override { return 15; }

  void Prepare() override {
    members_ = Rng(Stream(2));
    knn_.k = 10;
    knn_.transforms = tsq::transform::MovingAverageRange(kLength, 5, 20);

    // Fig. 9: moving averages 6..29 plus the inverted copy of each, two
    // clusters of transformation points (|T| = 48).
    range_.transforms = tsq::transform::MovingAverageRange(kLength, 6, 29);
    const auto plain = range_.transforms;
    for (const auto& t : plain) {
      range_.transforms.push_back(tsq::transform::Inverted(t));
    }
    range_.epsilon = ts::CorrelationToDistanceThreshold(0.96, kLength);

    join_.mode = core::JoinMode::kCorrelation;
    join_.min_correlation = 0.99;
    join_.transforms = tsq::transform::MovingAverageRange(kLength, 5, 14);
  }

  void Cycle(RunLog& log) override {
    for (int i = 0; i < 10; ++i) {
      Knn(log);
      Knn(log);
      Range(log);
    }
    Join(log);
  }

 private:
  std::size_t Member() {
    return static_cast<std::size_t>(
        members_.UniformInt(0, static_cast<std::int64_t>(data_.size()) - 1));
  }

  void Knn(RunLog& log) {
    core::KnnQuerySpec spec = knn_;
    spec.query = MemberQuery(Member());
    auto result = Timed(OpKind::kKnn, "engine.Execute(knn)", log,
                        [&] { return engine_->Execute(spec); });
    ++log.attempted;
    if (!FoldRead(OpKind::kKnn, result, log)) return;
    if (log.replay.size() < kReplayQueries) log.replay.push_back(spec);
    if (knn_sampler_.Take()) {
      knn_samples_.emplace_back(std::move(spec), result->knn()->matches);
    }
  }

  void Range(RunLog& log) {
    core::RangeQuerySpec spec = range_;
    spec.query = MemberQuery(Member());
    auto result = Timed(OpKind::kRange, "engine.Execute(range)", log,
                        [&] { return engine_->Execute(spec); });
    ++log.attempted;
    if (!FoldRead(OpKind::kRange, result, log)) return;
    if (log.replay.size() < kReplayQueries) log.replay.push_back(spec);
    if (range_sampler_.Take()) {
      range_samples_.emplace_back(std::move(spec), result->range()->matches);
    }
  }

  void Join(RunLog& log) {
    auto result = Timed(OpKind::kJoin, "engine.Execute(join)", log,
                        [&] { return engine_->Execute(join_); });
    ++log.attempted;
    if (!FoldRead(OpKind::kJoin, result, log)) return;
    // The join has no query parameter: every call must return the answer
    // the first one did, which the oracle checks once.
    std::vector<core::JoinMatch> matches = result->join()->matches;
    core::SortJoinMatches(&matches);
    if (!first_join_.has_value()) {
      first_join_ = std::move(matches);
      join_was_scan_ =
          result->trace().algorithm ==
          core::AlgorithmName(core::Algorithm::kSequentialScan);
    } else if (matches != *first_join_) {
      log.Fail("join: answer differs from the run's first join");
    }
  }

  core::KnnQuerySpec knn_;
  core::RangeQuerySpec range_;
  core::JoinQuerySpec join_;
  Rng members_;
  Sampler knn_sampler_{Stream(3), 50, 24};
  Sampler range_sampler_{Stream(4), 25, 24};
  std::vector<std::pair<core::KnnQuerySpec, std::vector<core::KnnMatch>>>
      knn_samples_;
  std::vector<std::pair<core::RangeQuerySpec, std::vector<core::Match>>>
      range_samples_;
  std::optional<std::vector<core::JoinMatch>> first_join_;
  bool join_was_scan_ = false;
};

// --- walk_write_mix ----------------------------------------------------------

/// walk_range's data and query on its own engine, batched and interleaved
/// with writes. Each cycle: one ExecuteBatch of 16 range queries on 8
/// distinct members (each twice, default BatchOptions, 1 thread), then 8 x
/// (Insert a fresh walk, Remove the oldest inserted one). A window of 64
/// inserted walks is filled before timing, so the live size stays 12064.
/// Every write bumps the snapshot version, so each batch plans cold and
/// misses the cross-batch result cache; in-batch duplicates hit it.
class WalkWriteMix : public Workload {
 public:
  using Workload::Workload;
  void Check(RunLog& log) override {
    const tsq::testing::Oracle oracle(engine_->dataset());
    for (const BatchSample& sample : samples_) {
      // The sequences live when the batch ran: the initial walks plus the
      // insert window of that moment.
      std::vector<bool> live(engine_->dataset().size(), false);
      std::fill(live.begin(), live.begin() + kWalks, true);
      for (std::size_t id : sample.window) live[id] = true;
      for (std::size_t i = 0; i < sample.specs.size(); ++i) {
        ++log.checked;
        const auto& spec = std::get<core::RangeQuerySpec>(sample.specs[i]);
        const std::size_t first = sample.first_of[i];
        std::string diff;
        if (first == i) {
          diff = CheckRange(oracle, spec, sample.matches[i], &live);
        } else if (sample.matches[i] != sample.matches[first]) {
          diff = "duplicate entry answers differently from its original";
        }
        if (!diff.empty()) log.Fail("batch: " + diff);
      }
    }
  }

 protected:
  static constexpr std::size_t kDistinct = 8;
  static constexpr std::size_t kWritesPerCycle = 8;
  static constexpr std::size_t kWindow = 64;

  std::vector<ts::Series> MakeData() override { return WalkData(Stream(1)); }
  std::size_t SetupRepetitions() const override { return 5; }

  void Prepare() override {
    members_ = Rng(Stream(2));
    walks_ = Rng(Stream(5));
    for (std::size_t i = 0; i < kWindow; ++i) {
      auto id = engine_->Insert(ts::GenerateRandomWalk(kLength, 500.0, walks_));
      if (id.ok()) window_.push_back(*id);
    }
  }

  void Cycle(RunLog& log) override {
    std::vector<std::size_t> members;
    while (members.size() < kDistinct) {
      const auto id = static_cast<std::size_t>(members_.UniformInt(0, kWalks - 1));
      if (std::find(members.begin(), members.end(), id) == members.end()) {
        members.push_back(id);
      }
    }
    std::vector<std::size_t> order;
    for (std::size_t rep = 0; rep < 2; ++rep) {
      order.insert(order.end(), members.begin(), members.end());
    }
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<std::size_t>(members_.UniformInt(
                              0, static_cast<std::int64_t>(i)))]);
    }
    std::vector<core::QuerySpec> specs;
    for (std::size_t id : order) {
      core::RangeQuerySpec spec = template_;
      spec.query = MemberQuery(id);
      specs.push_back(std::move(spec));
    }

    auto results = Timed(OpKind::kBatch, "engine.ExecuteBatch", log,
                         [&] { return engine_->ExecuteBatch(specs); });
    log.attempted += specs.size();
    bool all_ok = results.size() == specs.size();
    if (!all_ok) log.Fail("batch: wrong number of results");
    for (const auto& result : results) {
      if (!FoldRead(OpKind::kBatch, result, log)) all_ok = false;
    }
    for (std::size_t i = 0; i < kDistinct && log.replay.size() < kReplayQueries;
         ++i) {
      log.replay.push_back(specs[i]);
    }
    if (sampler_.Take() && all_ok) {
      BatchSample sample;
      sample.window.assign(window_.begin(), window_.end());
      for (std::size_t i = 0; i < order.size(); ++i) {
        sample.first_of.push_back(static_cast<std::size_t>(
            std::find(order.begin(), order.end(), order[i]) - order.begin()));
        sample.matches.push_back(results[i]->range()->matches);
      }
      sample.specs = std::move(specs);
      samples_.push_back(std::move(sample));
    }

    for (std::size_t w = 0; w < kWritesPerCycle; ++w) {
      const ts::Series walk = ts::GenerateRandomWalk(kLength, 500.0, walks_);
      auto id = Timed(OpKind::kInsert, "engine.Insert", log,
                      [&] { return engine_->Insert(walk); });
      ++log.attempted;
      if (id.ok()) {
        window_.push_back(*id);
      } else {
        log.Fail("insert: " + id.status().ToString());
      }
      if (window_.empty()) continue;
      const std::size_t oldest = window_.front();
      window_.pop_front();
      const tsq::Status removed = Timed(OpKind::kRemove, "engine.Remove", log,
                                        [&] { return engine_->Remove(oldest); });
      ++log.attempted;
      if (!removed.ok()) log.Fail("remove: " + removed.ToString());
    }
    if (engine_->size() != kWalks + kWindow) {
      log.Fail("live size " + std::to_string(engine_->size()) + " after a cycle");
    }
  }

 private:
  struct BatchSample {
    std::vector<core::QuerySpec> specs;
    std::vector<std::size_t> first_of;  // index of each entry's first copy
    std::vector<std::vector<core::Match>> matches;
    std::vector<std::size_t> window;
  };

  core::RangeQuerySpec template_ = WalkRangeSpec();
  Rng members_;
  Rng walks_;
  std::deque<std::size_t> window_;
  Sampler sampler_{Stream(3), 32, 4};
  std::vector<BatchSample> samples_;
};

}  // namespace

void RunLog::Fail(std::string what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(what));
}

std::uint64_t Workload::Stream(std::uint64_t stream) const {
  // splitmix64 over (seed, stream): independent, seed-determined streams.
  std::uint64_t z = seed_ * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ts::Series Workload::MemberQuery(std::size_t id) const {
  return ts::Denormalize(engine_->dataset().normal(id));
}

double Workload::SpaceAmp() const {
  const double pages = static_cast<double>(
      engine_->dataset().record_pages() + index_pages_at_setup_ +
      engine_->index().index_io().allocations);
  const double user_bytes = static_cast<double>(engine_->size()) *
                            static_cast<double>(engine_->length()) * 8.0;
  return Ratio(pages * static_cast<double>(tsq::storage::kPageSize), user_bytes);
}

void Workload::SetUp(RunLog& log, bool keep_spare) {
  data_ = MakeData();
  const std::size_t reps = SetupRepetitions();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::vector<ts::Series> copy = data_;
    if (keep_spare && rep + 1 == reps) spare_ = std::move(engine_);
    engine_.reset();
    const std::uint64_t start = NowNanos();
    engine_ = std::make_unique<core::SimilarityEngine>(std::move(copy));
    log.setup_seconds.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  index_pages_at_setup_ = 0;
  const tsq::Status visited = engine_->index().tree().VisitNodes(
      [&](const tsq::rstar::RStarTree::NodeView&) { ++index_pages_at_setup_; });
  if (!visited.ok()) log.Fail("index walk: " + visited.ToString());
  Prepare();
}

void Workload::RunLoop(double seconds, bool alternate_spans, RunLog& log) {
  // Registry ratios (kernel abandons, plan and result cache hits) cover the
  // measured loop only.
  tsq::obs::MetricsRegistry::Global().Reset();
  const std::uint64_t start = NowNanos();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t cycle = 0;
  do {
    const std::size_t traced = alternate_spans && cycle % 2 == 0 ? 1 : 0;
    if (alternate_spans) spans_.set_enabled(traced == 1);
    const double timed_before = timed_ms_;
    const std::int64_t span = spans_.Begin("cycle", next_op_);
    Cycle(log);
    spans_.End(span);
    log.cycle_ms[traced] += timed_ms_ - timed_before;
    ++log.cycles[traced];
    if (++cycle == kSpaceCycles) log.space_amp = SpaceAmp();
  } while (NowNanos() - start < budget);
  log.loop_seconds = static_cast<double>(NowNanos() - start) / 1e9;
  if (cycle < kSpaceCycles) log.space_amp = SpaceAmp();
  spans_.set_enabled(alternate_spans);
}

bool Workload::FoldRead(OpKind kind,
                        const tsq::Result<core::QueryResult>& result,
                        RunLog& log) {
  if (!result.ok()) {
    log.Fail(std::string(OpName(kind)) + ": " + result.status().ToString());
    return false;
  }
  log.tally[static_cast<std::size_t>(kind)].Fold(*result);
  auto keep = [&](std::size_t id) {
    if (log.fetched_ids.size() < kFetchedIds) log.fetched_ids.push_back(id);
  };
  if (const auto* range = result->range()) {
    for (const auto& m : range->matches) keep(m.series_id);
  } else if (const auto* knn = result->knn()) {
    for (const auto& m : knn->matches) keep(m.series_id);
  } else {
    for (const auto& m : result->join()->matches) {
      keep(m.a);
      keep(m.b);
    }
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, SpanLog& spans) {
  if (name == "walk_range") return std::make_unique<WalkRange>(seed, spans);
  if (name == "stock_mix") return std::make_unique<StockMix>(seed, spans);
  if (name == "walk_write_mix") {
    return std::make_unique<WalkWriteMix>(seed, spans);
  }
  return nullptr;
}

}  // namespace perfbench
