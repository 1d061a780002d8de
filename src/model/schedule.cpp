#include "src/model/schedule.hpp"

#include <sstream>

namespace mbsp {

double ProcStep::compute_cost(const ComputeDag& dag) const {
  double sum = 0;
  for (const PhaseOp& op : compute_phase) {
    if (op.kind == OpKind::kCompute) sum += dag.omega(op.node);
  }
  return sum;
}

bool Superstep::empty() const {
  for (const ProcStep& ps : proc) {
    if (!ps.empty()) return false;
  }
  return true;
}

Superstep& MbspSchedule::append(int num_procs) {
  steps.emplace_back(num_procs);
  return steps.back();
}

void MbspSchedule::drop_empty_supersteps() {
  std::erase_if(steps, [](const Superstep& s) { return s.empty(); });
}

std::size_t MbspSchedule::num_ops() const {
  std::size_t count = 0;
  for (const Superstep& step : steps) {
    for (const ProcStep& ps : step.proc) {
      count += ps.compute_phase.size() + ps.saves.size() + ps.deletes.size() +
               ps.loads.size();
    }
  }
  return count;
}

std::size_t MbspSchedule::compute_count(NodeId v) const {
  std::size_t count = 0;
  for (const Superstep& step : steps) {
    for (const ProcStep& ps : step.proc) {
      for (const PhaseOp& op : ps.compute_phase) {
        if (op.kind == OpKind::kCompute && op.node == v) ++count;
      }
    }
  }
  return count;
}

std::string MbspSchedule::to_string(const MbspInstance& inst) const {
  std::ostringstream out;
  out << "MBSP schedule for '" << inst.name() << "' (" << steps.size()
      << " supersteps, P=" << inst.arch.num_processors << ")\n";
  for (std::size_t s = 0; s < steps.size(); ++s) {
    out << "superstep " << s << ":\n";
    for (std::size_t p = 0; p < steps[s].proc.size(); ++p) {
      const ProcStep& ps = steps[s].proc[p];
      if (ps.empty()) continue;
      out << "  p" << p << ": ";
      for (const PhaseOp& op : ps.compute_phase) {
        out << (op.kind == OpKind::kCompute ? "C" : "D") << op.node << ' ';
      }
      if (!ps.saves.empty()) {
        out << "| save:";
        for (NodeId v : ps.saves) out << ' ' << v;
        out << ' ';
      }
      if (!ps.deletes.empty()) {
        out << "| del:";
        for (NodeId v : ps.deletes) out << ' ' << v;
        out << ' ';
      }
      if (!ps.loads.empty()) {
        out << "| load:";
        for (NodeId v : ps.loads) out << ' ' << v;
      }
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace mbsp
