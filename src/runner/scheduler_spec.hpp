#pragma once
// Scheduler specs `<scheduler>[:key=value,...]` (`sharded:shards=32`,
// `lns-portfolio:workers=8,epochs=4`) on the workload/machine spec grammar
// of src/model/spec.hpp: one field table maps each key to a
// SchedulerOptions member (keys and values: docs/CLI.md#scheduler-specs).
// Every key applies to every scheduler, which ignores what it does not
// read; caller-owned pointers and the fields that never change an
// iteration-capped plan have no key.

#include <string>
#include <vector>

#include "src/runner/scheduler.hpp"

namespace mbsp {

/// A spec resolved against base options.
struct SchedulerSpec {
  std::string name;          ///< the spec's head: a registry name
  SchedulerOptions options;  ///< the base options with the spec's keys set
};

/// Sets each key of `spec` on a copy of `base` (a bare name returns
/// `base`). Throws std::invalid_argument naming the offending token on a
/// malformed spec, an unknown key or a bad value (outside the key's
/// range: docs/CLI.md). The name is not looked up.
SchedulerSpec resolve_scheduler_spec(const std::string& spec,
                                     const SchedulerOptions& base = {});

/// `name` plus every key whose value differs from SchedulerOptions{},
/// sorted by key; resolving it reproduces every table field exactly.
std::string canonical_scheduler_spec(const std::string& name,
                                     const SchedulerOptions& options);

/// Splits a comma-separated spec list; an item with '=' but no ':'
/// continues the previous spec ("a,lns:workers=8,epochs=4,b" is three).
std::vector<std::string> split_scheduler_list(const std::string& list);

}  // namespace mbsp
