#include "src/model/validate.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace mbsp {

namespace {

struct SimState {
  std::vector<std::vector<char>> red;   // red[p][v]
  std::vector<double> red_weight;       // cached sum of mu over red[p]
  std::vector<char> blue;               // blue[v]
};

std::string where(std::size_t step, std::size_t proc) {
  std::ostringstream out;
  out << "superstep " << step << ", processor " << proc << ": ";
  return out.str();
}

}  // namespace

ValidationResult validate(const MbspInstance& inst,
                          const MbspSchedule& sched) {
  const ComputeDag& dag = inst.dag;
  const int P = inst.arch.num_processors;
  const NodeId n = dag.num_nodes();
  // Per-processor capacities (all equal to fast_memory on uniform machines).
  std::vector<double> r(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    r[static_cast<std::size_t>(p)] = inst.arch.memory(p);
  }

  SimState st;
  st.red.assign(P, std::vector<char>(n, 0));
  st.red_weight.assign(P, 0.0);
  st.blue.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (dag.is_source(v)) st.blue[v] = 1;
  }

  auto fail = [](std::string msg) {
    return ValidationResult{false, std::move(msg)};
  };

  for (std::size_t s = 0; s < sched.steps.size(); ++s) {
    const Superstep& step = sched.steps[s];
    if (static_cast<int>(step.proc.size()) != P) {
      return fail("superstep " + std::to_string(s) +
                  ": wrong number of processors");
    }
    // Compute phase (COMPUTE / DELETE), independently per processor.
    for (int p = 0; p < P; ++p) {
      for (const PhaseOp& op : step.proc[p].compute_phase) {
        const NodeId v = op.node;
        if (v < 0 || v >= n) return fail(where(s, p) + "bad node id");
        if (op.kind == OpKind::kDelete) {
          if (!st.red[p][v]) {
            return fail(where(s, p) + "DELETE " + std::to_string(v) +
                        " without red pebble");
          }
          st.red[p][v] = 0;
          st.red_weight[p] -= dag.mu(v);
          continue;
        }
        if (dag.is_source(v)) {
          return fail(where(s, p) + "COMPUTE on source node " +
                      std::to_string(v));
        }
        for (NodeId u : dag.parents(v)) {
          if (!st.red[p][u]) {
            return fail(where(s, p) + "COMPUTE " + std::to_string(v) +
                        " missing red parent " + std::to_string(u));
          }
        }
        if (!st.red[p][v]) {
          st.red[p][v] = 1;
          st.red_weight[p] += dag.mu(v);
          if (st.red_weight[p] > r[p] + kMemEps) {
            return fail(where(s, p) + "memory bound exceeded at COMPUTE " +
                        std::to_string(v));
          }
        }
      }
    }
    // Save phase; B is updated as the union of all processors' saves.
    std::vector<NodeId> newly_blue;
    for (int p = 0; p < P; ++p) {
      for (NodeId v : step.proc[p].saves) {
        if (v < 0 || v >= n) return fail(where(s, p) + "bad node id");
        if (!st.red[p][v]) {
          return fail(where(s, p) + "SAVE " + std::to_string(v) +
                      " without red pebble");
        }
        newly_blue.push_back(v);
      }
    }
    for (NodeId v : newly_blue) st.blue[v] = 1;
    // Delete phase.
    for (int p = 0; p < P; ++p) {
      for (NodeId v : step.proc[p].deletes) {
        if (v < 0 || v >= n) return fail(where(s, p) + "bad node id");
        if (!st.red[p][v]) {
          return fail(where(s, p) + "DELETE " + std::to_string(v) +
                      " without red pebble");
        }
        st.red[p][v] = 0;
        st.red_weight[p] -= dag.mu(v);
      }
    }
    // Load phase.
    for (int p = 0; p < P; ++p) {
      for (NodeId v : step.proc[p].loads) {
        if (v < 0 || v >= n) return fail(where(s, p) + "bad node id");
        if (!st.blue[v]) {
          return fail(where(s, p) + "LOAD " + std::to_string(v) +
                      " without blue pebble");
        }
        if (!st.red[p][v]) {
          st.red[p][v] = 1;
          st.red_weight[p] += dag.mu(v);
          if (st.red_weight[p] > r[p] + kMemEps) {
            return fail(where(s, p) + "memory bound exceeded at LOAD " +
                        std::to_string(v));
          }
        }
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (dag.is_sink(v) && !st.blue[v]) {
      return fail("terminal configuration: sink " + std::to_string(v) +
                  " has no blue pebble");
    }
  }
  return {};
}

void validate_or_die(const MbspInstance& inst, const MbspSchedule& sched) {
  const ValidationResult res = validate(inst, sched);
  if (!res.ok) {
    std::fprintf(stderr, "invalid MBSP schedule: %s\n%s", res.error.c_str(),
                 sched.to_string(inst).c_str());
    std::abort();
  }
}

}  // namespace mbsp
