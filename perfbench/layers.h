#ifndef TSQ_PERFBENCH_LAYERS_H_
#define TSQ_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics of a traced run: ratios folded from the run's
/// QueryStats / QueryTrace / PlannerTrace and the metrics registry, then
/// probes that call each layer's public functions directly (page file,
/// buffer pool, dataset fetch, R*-tree, FFT, kernels, planner) and replays
/// of the run's own read queries under other settings. Must be called right
/// after the measured loop: it reads the registry before probing. Metrics
/// that need an operation type the workload lacks read 0.
std::vector<Metric> MeasureLayers(Workload& workload, const RunLog& log,
                                  SpanLog& spans, std::uint64_t seed);

}  // namespace perfbench

#endif  // TSQ_PERFBENCH_LAYERS_H_
