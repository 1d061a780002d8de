#pragma once
// The reference LNS: the historical copy-and-reevaluate search (every
// candidate is a full plan copy, normalized, validated and costed from
// scratch by the reference completer). For a fixed seed, options and a
// warm start with dense supersteps it returns what improve_plan returns;
// it is the differential oracle of the tests and the baseline of
// bench_lns_throughput.

#include "src/holistic/lns.hpp"
#include "src/model/schedule.hpp"

namespace mbsp {

/// evaluate_plan on the reference completer: completes `plan` with the
/// Completer and prices it with sync_cost / async_cost (cost.hpp).
double reference_evaluate_plan(const MbspInstance& inst,
                               const ComputePlan& plan,
                               const LnsOptions& options,
                               MbspSchedule* out = nullptr);

/// improve_plan's oracle: the same plan, cost, counters and schedule.
LnsResult improve_plan_reference(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const LnsOptions& options);

}  // namespace mbsp
