#pragma once
// Memory completion: turns a ComputePlan (fixed COMPUTE occurrences) into a
// full, valid MBSP schedule by deciding every LOAD / SAVE / DELETE and the
// splitting of plan supersteps into MBSP supersteps. This implements the
// conversion described in Section 4 of the paper:
//
//   "we form new supersteps for MBSP by splitting each BSP compute phase
//    into maximally long segments of compute steps that can still be
//    executed without a new I/O operation [...] always loading the new
//    values needed for the next superstep, and evicting e.g. the least
//    recently used values when required by the memory constraint."
//
// Guarantees (checked by tests against validate()):
//  * a value is never lost: evicting a red value that is still needed and
//    has no blue pebble first SAVEs it (lazy save-before-evict);
//  * values computed for consumers on other processors (and sinks) are
//    saved in their computing superstep — the first opportunity, which is
//    also what the asynchronous Gamma function rewards;
//  * dead values (no further use, considering upcoming recomputation) are
//    deleted eagerly, as in the paper's implementation;
//  * the per-processor memory bound holds after every operation, provided
//    every processor's capacity (Machine::memory(p); fast_memory on the
//    uniform machine) is at least r0 (min_memory_r0).
//
// The eviction *choice* is the policy (clairvoyant or LRU), which is stage
// 2's only degree of freedom in the paper. The completion runs on the
// IncrementalEvaluator (src/holistic/incremental_eval.hpp), the engine the
// LNS re-costs its moves with; complete_memory is its one-shot call. The
// historical stand-alone completer is kept under tests/support/ as the
// oracle the tests compare this one against, bitwise.

#include "src/cache/policy.hpp"
#include "src/model/schedule.hpp"
#include "src/model/validate.hpp"
#include "src/twostage/compute_plan.hpp"

namespace mbsp {

/// Completes `plan` into a full MBSP schedule. The plan must satisfy
/// validate_plan(); every processor's memory capacity must be at least
/// min_memory_r0(dag). Superstep labels may have gaps: empty supersteps
/// produce nothing.
MbspSchedule complete_memory(const MbspInstance& inst, const ComputePlan& plan,
                             PolicyKind kind);

}  // namespace mbsp
