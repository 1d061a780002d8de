#pragma once
// The reference memory completion: the historical Completer, kept as the
// test oracle of the library's one completion engine (IncrementalEvaluator,
// behind complete_memory and evaluate_plan). It plans the same segments in
// the same order (Section 4 of the paper; see memory_completion.hpp), so
// tests require its schedule to equal complete_memory's bitwise. It asks
// an EvictionPolicy for each victim instead of inlining the two orders.

#include "src/model/schedule.hpp"
#include "src/twostage/compute_plan.hpp"
#include "tests/support/eviction_policy.hpp"

namespace mbsp {

/// Completes `plan` into a full MBSP schedule. The plan must satisfy
/// validate_plan(); every processor's memory capacity must be at least
/// min_memory_r0(dag).
MbspSchedule complete_memory(const MbspInstance& inst, const ComputePlan& plan,
                             const EvictionPolicy& policy);

}  // namespace mbsp
