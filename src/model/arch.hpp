#pragma once
// Machine model of the MBSP architecture (Section 3), generalized beyond
// the paper's uniform tuple. The paper's machine is P identical processors,
// each with a private fast memory of capacity r, plus the BSP parameters g
// (cost per transferred data unit) and L (per-superstep synchronization).
//
// `Machine` keeps that uniform machine as the exact special case (empty
// heterogeneity vectors; `Machine::make` builds it) and adds three
// orthogonal axes, each opt-in:
//
//  * per-processor compute speeds — a superstep's compute phase costs
//    work(p) / speed(p) on processor p instead of raw work;
//  * per-processor fast-memory capacities — `memory(p)` bounds the red
//    set of processor p in validation and memory completion;
//  * a two-level communication hierarchy — processors are partitioned
//    into groups; every saved value is "homed" in the group segment of
//    its first saver, and a transfer costs `g_in` when the operating
//    processor's group matches the value's home group, `g_out` when it
//    does not (DAG sources live in far memory: loads cost `g_out`).
//    Each group additionally contributes `L_group` to every superstep's
//    synchronization latency (on top of the global `L`).
//
// On a uniform machine every accessor degenerates to the flat tuple
// (speed 1, memory r, a single group with g_in == g_out == g), and the
// generalized cost paths are bitwise identical to the historical ones —
// asserted by tests/test_machine.cpp. Machines are built by hand via
// `make`, or from a spec string ("numa:groups=2x4,gin=1,gout=4") via
// MachineRegistry (machine_registry.hpp); docs/MACHINES.md specifies the
// grammar and the exact cost semantics.

#include <string>
#include <vector>

namespace mbsp {

/// Tolerance of every memory-bound test, so accumulated floating-point
/// weights never spuriously violate an exactly tight memory(p). Completion
/// and validation share it: a schedule the completion emits validates.
constexpr double kMemEps = 1e-9;

struct Machine {
  int num_processors = 1;  ///< P >= 1
  double fast_memory = 0;  ///< r, per-processor cache capacity (base)
  double g = 1;            ///< cost of moving one unit of data (uniform)
  double L = 0;            ///< per-superstep synchronization cost (global)

  /// Per-processor relative compute speeds (size P, all > 0), or empty
  /// for the uniform machine (every processor at speed 1).
  std::vector<double> speeds;
  /// Per-processor fast-memory capacities (size P), or empty for the
  /// uniform machine (every processor at `fast_memory`).
  std::vector<double> memories;
  /// Per-processor communication-group ids (size P, dense from 0), or
  /// empty for the uniform machine (a single group).
  std::vector<int> group_of;
  double g_in = 1;    ///< intra-group transfer cost (groups only)
  double g_out = 1;   ///< cross-group / far-memory transfer cost
  double L_group = 0; ///< extra latency contributed per group per superstep

  /// Canonical machine-spec name ("" for ad-hoc uniform machines); set by
  /// MachineRegistry so batch cells and tables can key results by machine.
  std::string name;

  /// The paper's uniform machine — the historical Architecture::make.
  static Machine make(int P, double r, double g = 1, double L = 0) {
    Machine m;
    m.num_processors = P;
    m.fast_memory = r;
    m.g = g;
    m.L = L;
    return m;
  }

  /// True when no heterogeneity axis is active: the flat (P, r, g, L)
  /// machine whose cost paths the uniform code reproduces verbatim.
  bool is_uniform() const {
    return speeds.empty() && memories.empty() && group_of.empty();
  }

  /// Relative compute speed of processor p (1 on uniform machines).
  double speed(int p) const {
    return speeds.empty() ? 1.0 : speeds[static_cast<std::size_t>(p)];
  }

  /// Fast-memory capacity of processor p (`fast_memory` on uniform).
  double memory(int p) const {
    return memories.empty() ? fast_memory
                            : memories[static_cast<std::size_t>(p)];
  }

  /// Communication group of processor p (0 on uniform machines).
  int group(int p) const {
    return group_of.empty() ? 0 : group_of[static_cast<std::size_t>(p)];
  }

  /// Number of communication groups (1 on uniform machines). group_of is
  /// dense from 0, so this is max + 1.
  int num_groups() const {
    int groups = 1;
    for (int grp : group_of) groups = groups > grp + 1 ? groups : grp + 1;
    return groups;
  }

  /// Per-transfer-unit cost for processor p touching a value homed in
  /// group `home` (-1 = far memory / never saved). Single-group machines
  /// always pay `g` — the uniform path bitwise.
  double comm_g(int p, int home) const {
    if (group_of.empty()) return g;
    return home == group(p) ? g_in : g_out;
  }

  /// Effective per-superstep synchronization latency: the global barrier
  /// plus every group's contribution. Uniform machines: exactly L.
  double sync_L() const {
    return group_of.empty() ? L : L + L_group * num_groups();
  }
};

/// Historical name: every pre-heterogeneity call site constructed an
/// Architecture; the alias keeps that spelling valid.
using Architecture = Machine;

}  // namespace mbsp
