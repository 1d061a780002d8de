#include "src/model/cost.hpp"

#include <algorithm>
#include <limits>

namespace mbsp {

std::vector<int> home_groups(const MbspInstance& inst,
                             const MbspSchedule& sched) {
  std::vector<int> home(static_cast<std::size_t>(inst.dag.num_nodes()), -1);
  const Machine& m = inst.arch;
  for (const Superstep& step : sched.steps) {
    for (std::size_t p = 0; p < step.proc.size(); ++p) {
      for (NodeId v : step.proc[p].saves) {
        if (home[static_cast<std::size_t>(v)] < 0) {
          home[static_cast<std::size_t>(v)] = m.group(static_cast<int>(p));
        }
      }
    }
  }
  return home;
}

namespace {

/// Folds per-processor field values (SoA scratch rows) into a SyncStepCost.
/// One contiguous sweep per field: max over non-NaN doubles is order-free,
/// so splitting the fold is bitwise identical to the historical interleaved
/// loop while giving the compiler straight-line vectorizable reductions.
SyncStepCost fold_step_row(const double* comp, const double* save,
                           const double* load, std::size_t np) {
  SyncStepCost row;
  for (std::size_t p = 0; p < np; ++p) {
    row.max_compute = std::max(row.max_compute, comp[p]);
  }
  for (std::size_t p = 0; p < np; ++p) {
    row.max_save = std::max(row.max_save, save[p]);
  }
  for (std::size_t p = 0; p < np; ++p) {
    row.max_load = std::max(row.max_load, load[p]);
  }
  return row;
}

/// home_groups on multi-group machines; empty (and never read) on
/// single-group ones, where every transfer costs g.
std::vector<int> multi_group_homes(const MbspInstance& inst,
                                   const MbspSchedule& sched) {
  if (inst.arch.group_of.empty()) return {};
  return home_groups(inst, sched);
}

/// The price per unit of mu of processor p saving or loading v.
double transfer_g(const Machine& m, const std::vector<int>& home, int p,
                  NodeId v) {
  return home.empty() ? m.g : m.comm_g(p, home[static_cast<std::size_t>(v)]);
}

}  // namespace

std::vector<SyncStepCost> sync_cost_table(const MbspInstance& inst,
                                          const MbspSchedule& sched) {
  const ComputeDag& dag = inst.dag;
  std::vector<SyncStepCost> table;
  table.reserve(sched.steps.size());
  std::size_t max_p = 0;
  for (const Superstep& step : sched.steps) {
    max_p = std::max(max_p, step.proc.size());
  }
  // Gather-then-fold: per-proc field values land in structure-of-arrays
  // scratch rows, then each field folds in its own sweep (fold_step_row).
  std::vector<double> comp(max_p), save(max_p), load(max_p);
  // Per-processor speed scaling, per-operation group-aware transfer costs
  // against the home assignment (a uniform machine's speed is 1 and its
  // transfers cost g, so the same formulas price it exactly). The home of
  // a value is fixed by its first save, which always precedes every load
  // of it (validity), so a single upfront pass prices every transfer
  // exactly as an in-order scan would.
  const Machine& m = inst.arch;
  const std::vector<int> home = multi_group_homes(inst, sched);
  for (const Superstep& step : sched.steps) {
    const std::size_t np = step.proc.size();
    for (std::size_t p = 0; p < np; ++p) {
      const ProcStep& ps = step.proc[p];
      const int pi = static_cast<int>(p);
      comp[p] = ps.compute_cost(dag) / m.speed(pi);
      double s = 0, l = 0;
      for (NodeId v : ps.saves) s += transfer_g(m, home, pi, v) * dag.mu(v);
      for (NodeId v : ps.loads) l += transfer_g(m, home, pi, v) * dag.mu(v);
      save[p] = s;
      load[p] = l;
    }
    table.push_back(fold_step_row(comp.data(), save.data(), load.data(), np));
  }
  return table;
}

SyncCostBreakdown sum_sync_cost_table(const std::vector<SyncStepCost>& table,
                                      double L) {
  // Field-major sweeps: the three accumulators are independent, so
  // splitting the loop keeps every accumulator's own add sequence — and
  // therefore the result — bitwise identical to the interleaved fold,
  // while each sweep reads one strided stream the vectorizer can handle.
  SyncCostBreakdown out;
  for (const SyncStepCost& row : table) out.compute += row.max_compute;
  for (const SyncStepCost& row : table) out.io += row.max_save + row.max_load;
  for (std::size_t i = 0; i < table.size(); ++i) out.sync += L;
  return out;
}

SyncCostBreakdown sync_cost_breakdown(const MbspInstance& inst,
                                      const MbspSchedule& sched) {
  return sum_sync_cost_table(sync_cost_table(inst, sched),
                             inst.arch.sync_L());
}

double sync_cost(const MbspInstance& inst, const MbspSchedule& sched) {
  return sync_cost_breakdown(inst, sched).total();
}

double async_cost(const MbspInstance& inst, const MbspSchedule& sched) {
  const ComputeDag& dag = inst.dag;
  const Machine& m = inst.arch;
  const int P = m.num_processors;
  constexpr double kUnset = std::numeric_limits<double>::infinity();
  const std::vector<int> home = multi_group_homes(inst, sched);

  std::vector<double> gets_blue(dag.num_nodes(), kUnset);
  std::vector<int> first_save_step(dag.num_nodes(), -1);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.is_source(v)) gets_blue[v] = 0;  // sources start in slow memory
  }

  std::vector<double> now(P, 0.0);  // finishing time of last op per proc

  for (std::size_t s = 0; s < sched.steps.size(); ++s) {
    const Superstep& step = sched.steps[s];
    // Compute phases (delete ops cost 0, computes cost omega / speed).
    for (int p = 0; p < P; ++p) {
      for (const PhaseOp& op : step.proc[p].compute_phase) {
        if (op.kind != OpKind::kCompute) continue;
        now[p] += dag.omega(op.node) / m.speed(p);
      }
    }
    // Save phases: record Gamma candidates for the *first* saving superstep.
    for (int p = 0; p < P; ++p) {
      for (NodeId v : step.proc[p].saves) {
        now[p] += transfer_g(m, home, p, v) * dag.mu(v);
        if (first_save_step[v] == -1) first_save_step[v] = static_cast<int>(s);
        if (first_save_step[v] == static_cast<int>(s)) {
          gets_blue[v] = std::min(gets_blue[v], now[p]);
        }
      }
    }
    // Delete phases are free. Load phases wait for availability.
    for (int p = 0; p < P; ++p) {
      for (NodeId v : step.proc[p].loads) {
        now[p] = std::max(now[p], gets_blue[v]) +
                 transfer_g(m, home, p, v) * dag.mu(v);
      }
    }
  }
  double makespan = 0;
  for (int p = 0; p < P; ++p) makespan = std::max(makespan, now[p]);
  return makespan;
}

double io_volume(const MbspInstance& inst, const MbspSchedule& sched) {
  const ComputeDag& dag = inst.dag;
  double volume = 0;
  for (const Superstep& step : sched.steps) {
    for (const ProcStep& ps : step.proc) {
      for (NodeId v : ps.saves) volume += dag.mu(v);
      for (NodeId v : ps.loads) volume += dag.mu(v);
    }
  }
  return volume;
}

}  // namespace mbsp
