#ifndef TSQ_PERFBENCH_WORKLOADS_H_
#define TSQ_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "spans.h"
#include "ts/series.h"

namespace perfbench {

/// Everything one run measured: latency samples per operation type, the
/// counters folded from the results, and the correctness verdict.
struct RunLog {
  std::array<std::vector<double>, kOpKinds> latency_ms;
  std::array<LayerTally, kOpKinds> tally;
  std::uint64_t attempted = 0;  // user operations (batch entries each)
  std::uint64_t failed = 0;     // non-OK Status or wrong answer
  std::uint64_t checked = 0;    // operations re-evaluated by the oracle
  std::vector<std::string> failures;  // the first few, for stderr
  double loop_seconds = 0.0;          // wall clock of the measured loop
  std::vector<double> setup_seconds;  // one per engine construction
  /// (record pages + index pages) x page size / (live series x length x
  /// 8 B), taken after kSpaceCycles cycles (or at the end of a shorter
  /// run), so a faster engine's extra writes do not read as space growth.
  double space_amp = 0.0;
  /// Traced run only: summed operation latency of the cycles run with span
  /// recording on [1] and off [0], and their cycle counts.
  std::array<double, 2> cycle_ms{};
  std::array<std::uint64_t, 2> cycles{};
  /// Sequence ids the run's answers contain (fetched by the engine), for
  /// the Dataset::FetchSpectrum probe.
  std::vector<std::size_t> fetched_ids;
  /// The first read queries of the run, replayed by the per-layer probes.
  std::vector<tsq::core::QuerySpec> replay;

  void Fail(std::string what);
};

/// One benchmark workload: a data set, an engine over it, and a closed loop
/// of user operations issued by one client. Subclasses define the data and
/// the operation mix; the base class owns set-up, timing, spans and the
/// measured loop.
class Workload {
 public:
  Workload(std::uint64_t seed, SpanLog& spans) : seed_(seed), spans_(spans) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the data (untimed), then constructs the engine
  /// `SetupRepetitions()` times, timing each construction. With
  /// `keep_spare`, the next-to-last engine stays alive as spare().
  void SetUp(RunLog& log, bool keep_spare);

  /// Runs cycles until `seconds` of wall clock have passed (at least one).
  /// With `alternate_spans`, even cycles record spans and odd ones do not.
  void RunLoop(double seconds, bool alternate_spans, RunLog& log);

  /// Re-evaluates the sampled operations with testing::Oracle (untimed).
  virtual void Check(RunLog& log) = 0;

  tsq::core::SimilarityEngine& engine() { return *engine_; }
  tsq::core::SimilarityEngine* spare() { return spare_.get(); }

 protected:
  virtual std::vector<tsq::ts::Series> MakeData() = 0;
  virtual std::size_t SetupRepetitions() const = 0;
  /// Untimed preparation after the engine exists.
  virtual void Prepare() {}
  /// One closed-loop cycle of the operation mix.
  virtual void Cycle(RunLog& log) = 0;

  /// Runs `call` as one timed operation of `kind`, inside a span.
  template <typename Call>
  auto Timed(OpKind kind, const char* span_name, RunLog& log, Call&& call) {
    const std::int64_t span = spans_.Begin(span_name, next_op_);
    const std::uint64_t start = NowNanos();
    auto result = call();
    const std::uint64_t nanos = NowNanos() - start;
    spans_.End(span);
    ++next_op_;
    ++log.tally[static_cast<std::size_t>(kind)].calls;
    const double ms = static_cast<double>(nanos) / 1e6;
    log.latency_ms[static_cast<std::size_t>(kind)].push_back(ms);
    timed_ms_ += ms;
    return result;
  }

  /// Folds a read operation's result into the tallies; false (and the
  /// failure counted) when it carries a non-OK Status.
  bool FoldRead(OpKind kind, const tsq::Result<tsq::core::QueryResult>& result,
                RunLog& log);

  /// The query series of dataset member `id`, as a user would submit it.
  tsq::ts::Series MemberQuery(std::size_t id) const;

  std::uint64_t Stream(std::uint64_t stream) const;

  /// Bytes stored per byte of live user data (see RunLog::space_amp).
  double SpaceAmp() const;

  std::uint64_t seed_;
  SpanLog& spans_;
  std::vector<tsq::ts::Series> data_;
  std::unique_ptr<tsq::core::SimilarityEngine> engine_;
  std::unique_ptr<tsq::core::SimilarityEngine> spare_;
  std::uint64_t next_op_ = 0;
  double timed_ms_ = 0.0;  // summed latency of every timed call so far
  // Index nodes right after construction: the index page file's size then
  // (construction resets its I/O counters, so later allocations add on).
  std::size_t index_pages_at_setup_ = 0;
};

/// The cycle after which RunLog::space_amp is taken.
inline constexpr std::uint64_t kSpaceCycles = 64;

/// The workload named `name` ("walk_range", "stock_mix",
/// "walk_write_mix"), or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, SpanLog& spans);

}  // namespace perfbench

#endif  // TSQ_PERFBENCH_WORKLOADS_H_
