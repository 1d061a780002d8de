#include "src/workload/trace.hpp"

#include <algorithm>

#include "src/graph/dag_io.hpp"
#include "src/model/machine_registry.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp {

namespace {

constexpr const char* kTraceFamilies[] = {
    "trace-churn", "trace-drift", "trace-dropout", "trace-grow",
    "trace-mixed",
};

struct TraceParams {
  std::string family;
  std::string canonical;
  std::string base = "random-layered";
  int events = 8;
  int batch = 3;
};

bool set_error(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

bool parse_trace_spec(const std::string& spec, TraceParams* out,
                      std::string* error) {
  std::string parse_error;
  const auto parsed = WorkloadSpec::parse(spec, &parse_error);
  if (!parsed) return set_error(error, "bad trace spec: " + parse_error);
  const auto names = trace_family_names();
  if (std::find(names.begin(), names.end(), parsed->family) == names.end()) {
    std::string known;
    for (const std::string& name : names) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return set_error(error, "unknown trace family '" + parsed->family +
                                "' (known: " + known + ")");
  }
  out->family = parsed->family;
  for (const auto& [key, value] : parsed->params) {
    if (key == "base") {
      // Bare family name at its defaults: the spec grammar reserves ':'
      // and ',' so nested parameterized specs cannot be expressed here.
      if (value.find(':') != std::string::npos ||
          value.find(',') != std::string::npos ||
          !WorkloadRegistry::global().contains(value)) {
        return set_error(error, "trace base '" + value +
                                    "' is not a workload family name");
      }
      out->base = value;
    } else if (key == "events" || key == "batch") {
      try {
        const int parsed_value = std::stoi(value);
        if (parsed_value < 1) throw std::invalid_argument(value);
        (key == "events" ? out->events : out->batch) = parsed_value;
      } catch (const std::exception&) {
        return set_error(error, "trace parameter " + key + "=" + value +
                                    " is not a positive integer");
      }
    } else {
      return set_error(error, "unknown trace parameter '" + key +
                                  "' (known: base, batch, events)");
    }
  }
  // Canonical spelling: sorted keys, textual defaults dropped — the same
  // rule the workload/machine registries apply.
  out->canonical = out->family;
  std::string params;
  auto append = [&params](const std::string& key, const std::string& value) {
    params += params.empty() ? "" : ",";
    params += key + "=" + value;
  };
  if (out->base != "random-layered") append("base", out->base);
  if (out->batch != 3) append("batch", std::to_string(out->batch));
  if (out->events != 8) append("events", std::to_string(out->events));
  if (!params.empty()) out->canonical += ":" + params;
  return true;
}

double min_capacity(const Machine& m) {
  double cap = m.memory(0);
  for (int p = 1; p < m.num_processors; ++p) {
    cap = std::min(cap, m.memory(p));
  }
  return cap;
}

/// Appends an add_node (plus incoming edges) to `out`, clamped so the
/// new node's working set mu + sum(parent mu) fits the smallest
/// fast-memory capacity — growth can never push min_memory_r0 above what
/// the machine holds. `next_id` is the id the node will get.
void gen_grow_node(const MbspInstance& sim, NodeId next_id, Rng& rng,
                   InstanceDelta* out) {
  const double budget = min_capacity(sim.arch);
  auto mu_of = [&](NodeId v) {
    if (v < sim.dag.num_nodes()) return sim.dag.mu(v);
    // A parent created earlier in this same delta: find its add_node op.
    NodeId id = sim.dag.num_nodes();
    for (const InstanceDeltaOp& op : out->ops) {
      if (op.kind != InstanceDeltaOpKind::kAddNode) continue;
      if (id == v) return op.mu;
      ++id;
    }
    return 1.0;
  };
  std::vector<NodeId> parents;
  const int want = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < want; ++i) {
    const NodeId parent = static_cast<NodeId>(rng.index(
        static_cast<std::size_t>(next_id)));
    if (std::find(parents.begin(), parents.end(), parent) == parents.end()) {
      parents.push_back(parent);
    }
  }
  double mu = static_cast<double>(rng.uniform_int(1, 5));
  double parent_mu = 0;
  for (NodeId parent : parents) parent_mu += mu_of(parent);
  while (!parents.empty() && mu + parent_mu > budget) {
    if (mu > 1) {
      mu = 1;
      continue;
    }
    parent_mu -= mu_of(parents.back());
    parents.pop_back();
  }
  if (mu > budget) mu = std::max(1.0, budget);
  const double omega = static_cast<double>(rng.uniform_int(1, 4));
  out->add_node(omega, mu);
  for (NodeId parent : parents) out->add_edge(parent, next_id);
}

/// Omega-only drift: mu is left untouched so min_memory_r0 never grows
/// (see the file comment's feasibility invariant).
void gen_drift_node(const MbspInstance& sim, Rng& rng, InstanceDelta* out) {
  const NodeId v = static_cast<NodeId>(
      rng.index(static_cast<std::size_t>(sim.dag.num_nodes())));
  const double omega = static_cast<double>(rng.uniform_int(1, 6));
  out->set_node_weight(v, omega, sim.dag.mu(v));
}

InstanceDelta gen_event(const TraceParams& params, const MbspInstance& sim,
                        Rng& rng) {
  InstanceDelta delta;
  NodeId next_id = sim.dag.num_nodes();
  if (params.family == "trace-grow") {
    for (int i = 0; i < params.batch; ++i) {
      gen_grow_node(sim, next_id++, rng, &delta);
    }
  } else if (params.family == "trace-drift") {
    for (int i = 0; i < params.batch; ++i) gen_drift_node(sim, rng, &delta);
  } else if (params.family == "trace-dropout") {
    if (sim.arch.num_processors > 1) {
      delta.drop_processor(static_cast<int>(
          rng.index(static_cast<std::size_t>(sim.arch.num_processors))));
    } else {
      gen_drift_node(sim, rng, &delta);  // nothing left to drop
    }
  } else if (params.family == "trace-churn") {
    for (int i = 0; i < params.batch; ++i) {
      if (rng.chance(0.5)) {
        gen_grow_node(sim, next_id++, rng, &delta);
      } else {
        gen_drift_node(sim, rng, &delta);
      }
    }
  } else {  // trace-mixed
    const double roll = rng.uniform01();
    if (roll < 0.2 && sim.arch.num_processors > 2) {
      delta.drop_processor(static_cast<int>(
          rng.index(static_cast<std::size_t>(sim.arch.num_processors))));
    } else if (roll < 0.4) {
      // Shrink every processor toward (but never past) the feasibility
      // floor; later growth clamps against the shrunk capacity.
      const double r0 = min_memory_r0(sim.dag);
      const double cap = std::max(
          r0, min_capacity(sim.arch) * (0.85 + 0.1 * rng.uniform01()));
      delta.shrink_memory(-1, cap);
    } else {
      for (int i = 0; i < params.batch; ++i) {
        if (rng.chance(0.5)) {
          gen_grow_node(sim, next_id++, rng, &delta);
        } else {
          gen_drift_node(sim, rng, &delta);
        }
      }
    }
  }
  return delta;
}

}  // namespace

std::vector<std::string> trace_family_names() {
  return {std::begin(kTraceFamilies), std::end(kTraceFamilies)};
}

bool is_trace_spec(const std::string& spec) {
  return spec.rfind("trace-", 0) == 0;
}

bool for_each_trace_event(const std::string& spec, std::uint64_t seed,
                          const std::string& machine_spec,
                          const std::function<bool(const TraceEvent&)>& fn,
                          MbspInstance* base_out, std::string* error) {
  TraceParams params;
  if (!parse_trace_spec(spec, &params, error)) return false;
  std::string sub_error;
  auto dag = WorkloadRegistry::global().make_dag(params.base, seed,
                                                &sub_error);
  if (!dag) return set_error(error, "trace base: " + sub_error);
  auto machine = MachineRegistry::global().make_machine(
      machine_spec, min_memory_r0(*dag), &sub_error);
  if (!machine) return set_error(error, "trace machine: " + sub_error);

  MbspInstance sim;
  sim.dag = std::move(*dag);
  sim.arch = std::move(*machine);
  if (base_out) *base_out = sim;

  // The RNG is seeded from the canonical spec (like DAG families), so
  // every spelling of the same trace replays identically.
  Rng rng(fnv1a_64(params.canonical.data(), params.canonical.size(), seed));
  double at = 0;
  for (int e = 0; e < params.events; ++e) {
    TraceEvent event;
    at += 10.0 * (0.5 + rng.uniform01());
    event.at_ms = at;
    event.delta = gen_event(params, sim, rng);
    if (!apply_instance_delta(sim, event.delta, nullptr, &sub_error)) {
      return set_error(error,
                       "trace generator produced an invalid delta (event " +
                           std::to_string(e) + "): " + sub_error);
    }
    if (!fn(event)) break;
  }
  return true;
}

std::optional<RepairTrace> make_trace(const std::string& spec,
                                      std::uint64_t seed,
                                      const std::string& machine_spec,
                                      std::string* error) {
  TraceParams params;
  if (!parse_trace_spec(spec, &params, error)) return std::nullopt;
  RepairTrace trace;
  trace.name = params.canonical;
  const bool ok = for_each_trace_event(
      spec, seed, machine_spec,
      [&trace](const TraceEvent& event) {
        trace.events.push_back(event);
        return true;
      },
      &trace.base, error);
  if (!ok) return std::nullopt;
  return trace;
}

std::uint64_t trace_canonical_hash(const RepairTrace& trace) {
  std::uint64_t h = dag_canonical_hash(trace.base.dag);
  h = fnv1a_64(trace.base.arch.name.data(), trace.base.arch.name.size(), h);
  for (const TraceEvent& event : trace.events) {
    h = fnv1a_f64(event.at_ms, h);
    h = instance_delta_hash(event.delta, h);
  }
  return h;
}

}  // namespace mbsp
