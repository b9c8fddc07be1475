#ifndef TSQ_PERFBENCH_CHECKS_H_
#define TSQ_PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "testing/oracle.h"

namespace perfbench {

// Each check re-evaluates one query with testing::Oracle (brute force, no
// index) and returns "" when the engine's answer agrees, else a one-line
// description of the first difference. Distances and correlations agree to
// a relative 1e-6; a pair present on one side only is tolerated only when
// its value lies within that tolerance of the query's threshold, where the
// two evaluation orders may legitimately round to opposite sides.
// `live` selects the sequences live when the query ran (nullptr: the
// dataset's current tombstones).

std::string CheckRange(const tsq::testing::Oracle& oracle,
                       const tsq::core::RangeQuerySpec& spec,
                       const std::vector<tsq::core::Match>& got,
                       const std::vector<bool>* live = nullptr);

std::string CheckKnn(const tsq::testing::Oracle& oracle,
                     const tsq::core::KnnQuerySpec& spec,
                     const std::vector<tsq::core::KnnMatch>& got);

/// An indexed correlation join may miss pairs (its filter is documented as
/// lossy), so unless `exact` (a sequential-scan plan) only the pairs the
/// engine reports are checked.
std::string CheckJoin(const tsq::testing::Oracle& oracle,
                      const tsq::core::JoinQuerySpec& spec,
                      const std::vector<tsq::core::JoinMatch>& got,
                      bool exact);

}  // namespace perfbench

#endif  // TSQ_PERFBENCH_CHECKS_H_
