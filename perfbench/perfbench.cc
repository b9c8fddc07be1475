// perfbench: in-memory end-to-end benchmark of the similarity engine.
//
//   perfbench --workload <walk_range|stock_mix|walk_write_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Generates the workload's inputs from the seed, constructs the engine through
// its public API (no simulated disk latency, no fault hooks, no buffer
// pool), drives one closed-loop client for --seconds, then re-checks a
// seeded sample of the answers against testing::Oracle. The last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A traced run also writes its spans to
// <dir>/spans-<workload>-<seed>.json (default dir .bench_out).
// See perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "kernels/kernels.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

#ifndef TSQ_BUILD_TYPE
#define TSQ_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

/// What the numbers depend on besides the code: the kernel ISA alone moves
/// verification time about 2.45x.
std::string StampJson(const Args& args) {
  const char* isa_env = std::getenv("TSQ_KERNEL_ISA");
  std::ostringstream out;
  out << "{\"workload\": " << Quoted(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
      << ", \"kernel_isa\": "
      << Quoted(tsq::kernels::IsaName(tsq::kernels::ActiveIsa()))
      << ", \"TSQ_KERNEL_ISA\": " << Quoted(isa_env ? isa_env : "")
      << ", \"nproc\": " << OnlineCpus()
      << ", \"compiler\": " << Quoted(__VERSION__)
      << ", \"build_type\": " << Quoted(TSQ_BUILD_TYPE)
      << ", \"ndebug\": true, \"simulated_latency_ns\": 0, \"fault_hook\": false}";
  return out.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The end-to-end metrics; every workload reports each of them. Latency is
/// summarized per operation type, then combined across the workload's types
/// by geometric mean, so each type weighs the same whatever its speed. The
/// tail is p90: p99 moves by a quarter between identical runs on a shared
/// host, too much to bound. Per-type p50/p90/p99 are printed in the report.
std::vector<Metric> EndToEnd(const RunLog& log, double peak_rss_mb) {
  std::vector<double> p50s, p90s;
  for (const auto& samples : log.latency_ms) {
    if (samples.empty()) continue;
    p50s.push_back(Median(samples));
    p90s.push_back(Percentile(samples, 90.0));
  }
  return {
      {"lat_p50_ms", GeometricMean(p50s), "ms"},
      {"lat_p90_ms", GeometricMean(p90s), "ms"},
      {"ops_per_s",
       Ratio(static_cast<double>(log.attempted), log.loop_seconds), "1/s"},
      {"setup_s", Median(log.setup_seconds), "s"},
      {"space_amp", log.space_amp, "ratio"},
      {"rss_mb", peak_rss_mb, "MB"},
  };
}

void PrintReport(const Args& args, const RunLog& log,
                 const std::vector<Metric>& metrics) {
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  // Per operation type, and for inserts and removes pooled as "write": the
  // median, and each tail percentile the sample supports with at least ten
  // calls beyond it.
  auto print_type = [](const char* op, const std::vector<double>& samples) {
    if (samples.empty()) return;
    std::printf("%s_calls %zu count\n", op, samples.size());
    std::printf("%s_p50_ms %.6g ms\n", op, Median(samples));
    if (samples.size() >= 100) {
      std::printf("%s_p90_ms %.6g ms\n", op, Percentile(samples, 90.0));
    }
    if (samples.size() >= 1000) {
      std::printf("%s_p99_ms %.6g ms\n", op, Percentile(samples, 99.0));
    }
  };
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    print_type(OpName(static_cast<OpKind>(k)), log.latency_ms[k]);
  }
  std::vector<double> writes =
      log.latency_ms[static_cast<std::size_t>(OpKind::kInsert)];
  const auto& removes = log.latency_ms[static_cast<std::size_t>(OpKind::kRemove)];
  writes.insert(writes.end(), removes.begin(), removes.end());
  print_type("write", writes);
  std::printf("fail_ratio %.6g ratio\n",
              Ratio(static_cast<double>(log.failed),
                    static_cast<double>(log.attempted)));
  for (const Metric& m : metrics) {
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# attempted=%llu failed=%llu oracle_checked=%llu\n",
              static_cast<unsigned long long>(log.attempted),
              static_cast<unsigned long long>(log.failed),
              static_cast<unsigned long long>(log.checked));
}

std::string ResultJson(const RunLog& log, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (log.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << log.attempted << ", \"failed\": " << log.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quoted(metrics[i].name)
        << ": {\"value\": " << metrics[i].value
        << ", \"unit\": " << Quoted(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

int Run(const Args& args) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run a build without NDEBUG\n");
  return 2;
#endif
  SpanLog spans(args.trace);
  const auto workload = MakeWorkload(args.workload, args.seed, spans);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string stamp = StampJson(args);
  std::printf("# stamp %s\n", stamp.c_str());

  RunLog log;
  workload->SetUp(log, /*keep_spare=*/args.trace);
  // Every configuration call that could add simulated latency, a fault
  // hook or a buffer pool bumps the config epoch; none may have run.
  const tsq::core::SimilarityEngine& engine = workload->engine();
  if (engine.config_epoch() != 0 || engine.index_buffer_pool() != nullptr) {
    std::fprintf(stderr, "perfbench: engine is not in the plain in-memory "
                         "configuration; refusing to measure\n");
    return 2;
  }

  workload->RunLoop(args.seconds, args.trace, log);
  // Metrics first: the peak RSS so far covers set-up and the measured loop,
  // and the layer probes must read the registry before the oracle runs.
  const std::vector<Metric> metrics =
      args.trace ? MeasureLayers(*workload, log, spans, args.seed)
                 : EndToEnd(log, PeakRssMb());
  workload->Check(log);

  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (ec || !spans.WriteJson(path, stamp)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# %zu spans written to %s\n", spans.spans().size(),
                path.c_str());
  }
  for (const std::string& failure : log.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  PrintReport(args, log, metrics);
  std::printf("%s\n", ResultJson(log, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <walk_range|stock_mix|"
                 "walk_write_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
