#include "src/holistic/repair.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <deque>
#include <limits>
#include <numeric>

#include "src/graph/dag_io.hpp"
#include "src/graph/topology.hpp"
#include "src/twostage/two_stage.hpp"

namespace mbsp {

namespace {

std::string format_edge(NodeId u, NodeId v) {
  return std::to_string(u) + "->" + std::to_string(v);
}

void set_error(std::string* error, std::string message) {
  if (error) *error = std::move(message);
}

/// True iff u is reachable from v over children — i.e. adding u -> v
/// would close a cycle. BFS over the (current) successor spans.
bool reachable(const ComputeDag& dag, NodeId v, NodeId u) {
  if (v == u) return true;
  std::vector<char> seen(static_cast<std::size_t>(dag.num_nodes()), 0);
  std::deque<NodeId> frontier{v};
  seen[static_cast<std::size_t>(v)] = 1;
  while (!frontier.empty()) {
    const NodeId w = frontier.front();
    frontier.pop_front();
    for (NodeId c : dag.children(w)) {
      if (c == u) return true;
      if (!seen[static_cast<std::size_t>(c)]) {
        seen[static_cast<std::size_t>(c)] = 1;
        frontier.push_back(c);
      }
    }
  }
  return false;
}

/// %.17g like the rest of the canonical-spec machinery (machine specs,
/// scheduler cache specs): round-trips doubles exactly.
std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

void snapshot_machine(MbspInstance& inst, AppliedInstanceDelta& undo) {
  if (undo.machine_snapshot) return;
  undo.machine_before = inst.arch;
  undo.machine_snapshot = true;
}

}  // namespace

void InstanceDelta::add_node(double omega, double mu) {
  InstanceDeltaOp op;
  op.kind = InstanceDeltaOpKind::kAddNode;
  op.omega = omega;
  op.mu = mu;
  ops.push_back(op);
}

void InstanceDelta::add_edge(NodeId u, NodeId v) {
  InstanceDeltaOp op;
  op.kind = InstanceDeltaOpKind::kAddEdge;
  op.u = u;
  op.v = v;
  ops.push_back(op);
}

void InstanceDelta::set_node_weight(NodeId u, double omega, double mu) {
  InstanceDeltaOp op;
  op.kind = InstanceDeltaOpKind::kSetNodeWeight;
  op.u = u;
  op.omega = omega;
  op.mu = mu;
  ops.push_back(op);
}

void InstanceDelta::drop_processor(int proc) {
  InstanceDeltaOp op;
  op.kind = InstanceDeltaOpKind::kDropProcessor;
  op.proc = proc;
  ops.push_back(op);
}

void InstanceDelta::shrink_memory(int proc, double capacity) {
  InstanceDeltaOp op;
  op.kind = InstanceDeltaOpKind::kShrinkMemory;
  op.proc = proc;
  op.capacity = capacity;
  ops.push_back(op);
}

std::size_t InstanceDelta::num_added_nodes() const {
  std::size_t n = 0;
  for (const InstanceDeltaOp& op : ops) {
    if (op.kind == InstanceDeltaOpKind::kAddNode) ++n;
  }
  return n;
}

bool InstanceDelta::touches_machine() const {
  for (const InstanceDeltaOp& op : ops) {
    if (op.kind == InstanceDeltaOpKind::kDropProcessor ||
        op.kind == InstanceDeltaOpKind::kShrinkMemory) {
      return true;
    }
  }
  return false;
}

std::uint64_t instance_delta_hash(const InstanceDelta& delta,
                                  std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const InstanceDeltaOp& op : delta.ops) {
    const unsigned char kind = static_cast<unsigned char>(op.kind);
    h = fnv1a_64(&kind, 1, h);
    h = fnv1a_u64(static_cast<std::uint64_t>(std::int64_t{op.u}), h);
    h = fnv1a_u64(static_cast<std::uint64_t>(std::int64_t{op.v}), h);
    h = fnv1a_f64(op.omega, h);
    h = fnv1a_f64(op.mu, h);
    h = fnv1a_u64(static_cast<std::uint64_t>(std::int64_t{op.proc}), h);
    h = fnv1a_f64(op.capacity, h);
  }
  return h;
}

bool apply_instance_delta(MbspInstance& inst, const InstanceDelta& delta,
                          AppliedInstanceDelta* undo, std::string* error) {
  // Always build the undo record locally: a mid-delta failure rolls back
  // through it so the caller sees an unchanged instance either way.
  AppliedInstanceDelta local;
  auto fail = [&](std::string message) {
    set_error(error, std::move(message));
    undo_instance_delta(inst, local);
    return false;
  };

  for (const InstanceDeltaOp& op : delta.ops) {
    AppliedInstanceDelta::OpUndo rec;
    rec.op = op;
    switch (op.kind) {
      case InstanceDeltaOpKind::kAddNode: {
        if (op.omega < 0 || op.mu <= 0) {
          return fail("add_node rejected: weights (omega=" + num(op.omega) +
                      ", mu=" + num(op.mu) +
                      ") must satisfy omega >= 0, mu > 0");
        }
        inst.dag.add_node(op.omega, op.mu);
        break;
      }
      case InstanceDeltaOpKind::kAddEdge: {
        if (op.u < 0 || op.u >= inst.dag.num_nodes() || op.v < 0 ||
            op.v >= inst.dag.num_nodes()) {
          return fail("add_edge " + format_edge(op.u, op.v) +
                      " out of range (num_nodes=" +
                      std::to_string(inst.dag.num_nodes()) + ")");
        }
        if (op.u == op.v) {
          return fail("add_edge " + format_edge(op.u, op.v) +
                      " is a self-loop");
        }
        if (reachable(inst.dag, op.v, op.u)) {
          return fail("add_edge " + format_edge(op.u, op.v) +
                      " would create a cycle");
        }
        const std::size_t before = inst.dag.num_edges();
        inst.dag.add_edge(op.u, op.v);
        rec.edge_added = inst.dag.num_edges() != before;
        break;
      }
      case InstanceDeltaOpKind::kSetNodeWeight: {
        if (op.u < 0 || op.u >= inst.dag.num_nodes()) {
          return fail("set_node_weight: node " + std::to_string(op.u) +
                      " out of range (num_nodes=" +
                      std::to_string(inst.dag.num_nodes()) + ")");
        }
        if (op.omega < 0 || op.mu <= 0) {
          return fail("set_node_weight " + std::to_string(op.u) +
                      " rejected: weights (omega=" + num(op.omega) +
                      ", mu=" + num(op.mu) +
                      ") must satisfy omega >= 0, mu > 0");
        }
        rec.old_omega = inst.dag.omega(op.u);
        rec.old_mu = inst.dag.mu(op.u);
        inst.dag.set_omega(op.u, op.omega);
        inst.dag.set_mu(op.u, op.mu);
        break;
      }
      case InstanceDeltaOpKind::kDropProcessor: {
        Machine& m = inst.arch;
        if (op.proc < 0 || op.proc >= m.num_processors) {
          return fail("drop_processor " + std::to_string(op.proc) +
                      " out of range (P=" + std::to_string(m.num_processors) +
                      ")");
        }
        if (m.num_processors <= 1) {
          return fail("drop_processor " + std::to_string(op.proc) +
                      " rejected: cannot drop the last processor");
        }
        snapshot_machine(inst, local);
        const std::size_t p = static_cast<std::size_t>(op.proc);
        if (!m.speeds.empty()) m.speeds.erase(m.speeds.begin() + p);
        if (!m.memories.empty()) m.memories.erase(m.memories.begin() + p);
        if (!m.group_of.empty()) {
          m.group_of.erase(m.group_of.begin() + p);
          // Renumber group ids densely (num_groups() assumes max + 1),
          // preserving their relative order.
          std::vector<int> ids(m.group_of.begin(), m.group_of.end());
          std::sort(ids.begin(), ids.end());
          ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
          for (int& grp : m.group_of) {
            grp = static_cast<int>(std::lower_bound(ids.begin(), ids.end(),
                                                    grp) -
                                   ids.begin());
          }
        }
        m.num_processors -= 1;
        m.name += "#drop(" + std::to_string(op.proc) + ")";
        break;
      }
      case InstanceDeltaOpKind::kShrinkMemory: {
        Machine& m = inst.arch;
        if (op.proc < -1 || op.proc >= m.num_processors) {
          return fail("shrink_memory: processor " + std::to_string(op.proc) +
                      " out of range (P=" + std::to_string(m.num_processors) +
                      ")");
        }
        const double r0 = min_memory_r0(inst.dag);
        if (op.capacity < r0) {
          return fail("shrink_memory to " + num(op.capacity) +
                      " rejected: below the minimal feasible capacity r0=" +
                      num(r0));
        }
        snapshot_machine(inst, local);
        if (op.proc < 0) {
          m.fast_memory = op.capacity;
          for (double& cap : m.memories) cap = op.capacity;
        } else {
          if (m.memories.empty()) {
            m.memories.assign(static_cast<std::size_t>(m.num_processors),
                              m.fast_memory);
          }
          m.memories[static_cast<std::size_t>(op.proc)] = op.capacity;
        }
        m.name += "#mem(" + std::to_string(op.proc) + "," + num(op.capacity) +
                  ")";
        break;
      }
    }
    local.ops.push_back(std::move(rec));
  }
  if (undo) *undo = std::move(local);
  return true;
}

void undo_instance_delta(MbspInstance& inst,
                         const AppliedInstanceDelta& undo) {
  for (auto it = undo.ops.rbegin(); it != undo.ops.rend(); ++it) {
    const AppliedInstanceDelta::OpUndo& rec = *it;
    switch (rec.op.kind) {
      case InstanceDeltaOpKind::kAddNode:
        // Any edges on the new node were added by later ops, already
        // undone above, so the node is isolated again.
        inst.dag.remove_last_node();
        break;
      case InstanceDeltaOpKind::kAddEdge:
        if (rec.edge_added) inst.dag.remove_edge(rec.op.u, rec.op.v);
        break;
      case InstanceDeltaOpKind::kSetNodeWeight:
        inst.dag.set_omega(rec.op.u, rec.old_omega);
        inst.dag.set_mu(rec.op.u, rec.old_mu);
        break;
      case InstanceDeltaOpKind::kDropProcessor:
      case InstanceDeltaOpKind::kShrinkMemory:
        break;  // restored wholesale from the snapshot below
    }
  }
  if (undo.machine_snapshot) inst.arch = undo.machine_before;
}

namespace {

/// The relocation target of a dropped processor: the plan processor with
/// the least omega sum over the speed the mutated machine gives it (ties
/// -> lowest id). `slot` maps plan processors to their mutated-machine
/// index, -1 for those the delta drops (the dropped one included), which
/// are no target.
int argmin_load(const MbspInstance& inst, const ComputePlan& plan,
                const std::vector<int>& slot) {
  int best = -1;
  double best_load = std::numeric_limits<double>::infinity();
  for (int p = 0; p < plan.num_procs; ++p) {
    const int s = slot[static_cast<std::size_t>(p)];
    if (s < 0) continue;
    double load = 0;
    for (const PlannedCompute& pc : plan.seq[static_cast<std::size_t>(p)]) {
      load += inst.dag.omega(pc.node);
    }
    load /= inst.arch.speed(s);
    if (load < best_load) {
      best_load = load;
      best = p;
    }
  }
  return best;
}

/// Context of the structural patch: the plan being edited, its occurrence
/// index, and the touched-node set feeding the polish mask.
struct PatchContext {
  const MbspInstance* inst = nullptr;
  ComputePlan* plan = nullptr;
  PlanOccurrenceIndex* index = nullptr;
  std::vector<char>* touched = nullptr;

  void insert(int p, std::size_t pos, NodeId node, int superstep) {
    PlanDeltaOp op;
    op.kind = PlanDeltaOpKind::kInsert;
    op.proc = p;
    op.pos = pos;
    op.pc = PlannedCompute{node, superstep};
    apply_delta_op(*plan, op);
    index->on_apply(op);
    (*touched)[static_cast<std::size_t>(node)] = 1;
  }

  /// Makes node u available to the occurrence at seq[p][pos] (superstep s):
  /// free if u is a source, already computed locally before pos, or
  /// globally done in a strictly earlier superstep; otherwise inserts a
  /// local occurrence of u at superstep s right before pos — recursively
  /// ensuring u's own parents first. Returns how many occurrences were
  /// inserted at/before pos (the caller's position shift).
  std::size_t ensure(NodeId u, int p, std::size_t pos, int s) {
    if (inst->dag.is_source(u)) return 0;
    if (index->has_local_comp_before(p, u, pos)) return 0;
    const int done = index->earliest_done(u);
    if (done != -1 && done < s) return 0;
    std::size_t inserted = 0;
    for (NodeId parent : inst->dag.parents(u)) {
      inserted += ensure(parent, p, pos + inserted, s);
    }
    insert(p, pos + inserted, u, s);
    return inserted + 1;
  }
};

}  // namespace

std::optional<RepairResult> repair_plan(const MbspInstance& inst,
                                        const ComputePlan& incumbent,
                                        const InstanceDelta& delta,
                                        const RepairOptions& options,
                                        std::string* error) {
  const NodeId n = inst.dag.num_nodes();
  int drops = 0;
  for (const InstanceDeltaOp& op : delta.ops) {
    if (op.kind == InstanceDeltaOpKind::kDropProcessor) ++drops;
  }
  const int pre_procs = inst.arch.num_processors + drops;
  if (incumbent.num_procs != pre_procs) {
    set_error(error, "repair_plan: incumbent has " +
                         std::to_string(incumbent.num_procs) +
                         " processors but the delta implies " +
                         std::to_string(pre_procs) + " pre-delta processors");
    return std::nullopt;
  }
  const NodeId nodes_before =
      n - static_cast<NodeId>(delta.num_added_nodes());
  if (nodes_before < 0) {
    set_error(error, "repair_plan: delta adds more nodes than the instance "
                     "holds");
    return std::nullopt;
  }
  double min_capacity = std::numeric_limits<double>::infinity();
  for (int p = 0; p < inst.arch.num_processors; ++p) {
    min_capacity = std::min(min_capacity, inst.arch.memory(p));
  }
  if (min_capacity < min_memory_r0(inst.dag)) {
    set_error(error, "repair_plan: mutated instance infeasible (fast memory " +
                         num(min_capacity) + " below r0=" +
                         num(min_memory_r0(inst.dag)) + ")");
    return std::nullopt;
  }

  RepairResult result;
  ComputePlan& patched = result.patched;
  patched = incumbent;
  normalize_supersteps(patched);

  std::vector<char> touched(static_cast<std::size_t>(n), 0);

  // --- 1. Dropped processors: relocate each dropped sequence onto the
  // least-loaded survivor, merging by superstep so the relative order of
  // both sequences (and with it every same-processor dependency) is kept.
  // op.proc indices refer to the numbering at the op's apply time, exactly
  // as apply_instance_delta interpreted them. Replaying the drops on the
  // pre-delta processor ids first gives each plan processor its index in
  // the mutated machine (`slot`, renumbered alongside the plan), so every
  // candidate is priced with its own post-delta speed.
  std::vector<int> slot;
  {
    std::vector<int> survivors(static_cast<std::size_t>(pre_procs));
    std::iota(survivors.begin(), survivors.end(), 0);
    for (const InstanceDeltaOp& op : delta.ops) {
      if (op.kind != InstanceDeltaOpKind::kDropProcessor) continue;
      if (op.proc < 0 || op.proc >= static_cast<int>(survivors.size()) ||
          survivors.size() <= 1) {
        set_error(error, "repair_plan: drop_processor " +
                             std::to_string(op.proc) +
                             " does not match the incumbent's shape");
        return std::nullopt;
      }
      survivors.erase(survivors.begin() + op.proc);
    }
    slot.assign(static_cast<std::size_t>(pre_procs), -1);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      slot[static_cast<std::size_t>(survivors[i])] = static_cast<int>(i);
    }
  }
  for (const InstanceDeltaOp& op : delta.ops) {
    if (op.kind != InstanceDeltaOpKind::kDropProcessor) continue;
    const std::size_t p = static_cast<std::size_t>(op.proc);
    const int target = argmin_load(inst, patched, slot);
    auto& src = patched.seq[p];
    auto& dst = patched.seq[static_cast<std::size_t>(target)];
    for (const PlannedCompute& pc : src) {
      touched[static_cast<std::size_t>(pc.node)] = 1;
    }
    std::vector<PlannedCompute> merged;
    merged.reserve(src.size() + dst.size());
    std::merge(dst.begin(), dst.end(), src.begin(), src.end(),
               std::back_inserter(merged),
               [](const PlannedCompute& a, const PlannedCompute& b) {
                 return a.superstep < b.superstep;
               });
    dst = std::move(merged);
    patched.seq.erase(patched.seq.begin() + static_cast<std::ptrdiff_t>(p));
    slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(p));
    patched.num_procs -= 1;
  }

  PlanOccurrenceIndex index;
  index.attach(&inst.dag, &patched);
  PatchContext ctx;
  ctx.inst = &inst;
  ctx.plan = &patched;
  ctx.index = &index;
  ctx.touched = &touched;

  // --- 2. Certification sweep: re-establish availability of every
  // occurrence's parents under the mutated DAG. Satisfied parents cost a
  // pair of index lookups; violated ones (retrofitted edges, nodes that
  // stopped being sources) get recompute-style local inserts at the
  // consumer's superstep. Inserted occurrences are certified by the
  // ensure() recursion itself, so the scan can skip over them.
  for (int p = 0; p < patched.num_procs; ++p) {
    auto& seq = patched.seq[static_cast<std::size_t>(p)];
    for (std::size_t j = 0; j < seq.size();) {
      const PlannedCompute pc = seq[j];
      std::size_t inserted = 0;
      for (NodeId parent : inst.dag.parents(pc.node)) {
        inserted += ctx.ensure(parent, p, j + inserted, pc.superstep);
      }
      j += inserted + 1;
    }
  }

  // --- 3. Completeness sweep: nodes with no occurrence (new arrivals, or
  // isolated nodes that just gained a parent) are placed in topological
  // order into fresh top supersteps. Each goes to the processor holding
  // most of its parents (communication locality; load breaks ties), so a
  // growth batch spreads across the machine instead of piling onto one
  // least-loaded processor. Availability holds through superstep order: a
  // pre-batch parent finished strictly before `top`, a same-batch parent
  // on the chosen processor is local and earlier in the sequence, and a
  // same-batch parent anywhere else forces a strictly later superstep.
  // The per-processor floor keeps appended supersteps monotone.
  {
    std::vector<NodeId> pending;
    for (NodeId v : topological_order(inst.dag)) {
      if (!inst.dag.is_source(v) && index.node_count(v) == 0) {
        pending.push_back(v);
      }
    }
    if (!pending.empty()) {
      const int top = index.num_supersteps();
      const int procs = patched.num_procs;
      std::vector<int> home(static_cast<std::size_t>(n), -1);
      std::vector<int> step(static_cast<std::size_t>(n), -1);
      std::vector<double> load(static_cast<std::size_t>(procs), 0);
      for (int p = 0; p < procs; ++p) {
        for (const PlannedCompute& pc :
             patched.seq[static_cast<std::size_t>(p)]) {
          if (home[static_cast<std::size_t>(pc.node)] < 0) {
            home[static_cast<std::size_t>(pc.node)] = p;
          }
          load[static_cast<std::size_t>(p)] +=
              inst.dag.omega(pc.node) / inst.arch.speed(p);
        }
      }
      std::vector<int> floor_step(static_cast<std::size_t>(procs), top);
      std::vector<double> score(static_cast<std::size_t>(procs), 0);
      for (NodeId v : pending) {
        std::fill(score.begin(), score.end(), 0.0);
        for (NodeId u : inst.dag.parents(v)) {
          const int h = home[static_cast<std::size_t>(u)];
          if (h >= 0) score[static_cast<std::size_t>(h)] += 1;
        }
        int target = 0;
        for (int p = 1; p < procs; ++p) {
          const std::size_t sp = static_cast<std::size_t>(p);
          const std::size_t st = static_cast<std::size_t>(target);
          if (score[sp] > score[st] ||
              (score[sp] == score[st] && load[sp] < load[st])) {
            target = p;
          }
        }
        int s = top;
        for (NodeId u : inst.dag.parents(v)) {
          const std::size_t su = static_cast<std::size_t>(u);
          if (step[su] < 0) continue;  // pre-batch parent: done before top
          s = std::max(s, home[su] == target ? step[su] : step[su] + 1);
        }
        s = std::max(s, floor_step[static_cast<std::size_t>(target)]);
        ctx.insert(target,
                   patched.seq[static_cast<std::size_t>(target)].size(), v,
                   s);
        home[static_cast<std::size_t>(v)] = target;
        step[static_cast<std::size_t>(v)] = s;
        floor_step[static_cast<std::size_t>(target)] = s;
        load[static_cast<std::size_t>(target)] +=
            inst.dag.omega(v) / inst.arch.speed(target);
      }
    }
  }

  const PlanValidation validation = validate_plan(inst.dag, patched);
  if (!validation) {
    set_error(error, "repair_plan: patched plan failed validation: " +
                         validation.error);
    return std::nullopt;
  }

  // --- 4. Polish mask: the delta's blast radius. Every touched node
  // (relocated, retrofitted, weight-changed, edge endpoint, newly placed)
  // plus `mask_radius` DAG hops; machine deltas reprice every superstep,
  // so they unmask the whole DAG.
  std::vector<char> mask;
  result.full_mask = delta.touches_machine();
  if (result.full_mask) {
    mask.assign(static_cast<std::size_t>(n), 1);
  } else {
    for (const InstanceDeltaOp& op : delta.ops) {
      switch (op.kind) {
        case InstanceDeltaOpKind::kAddEdge:
          touched[static_cast<std::size_t>(op.u)] = 1;
          touched[static_cast<std::size_t>(op.v)] = 1;
          break;
        case InstanceDeltaOpKind::kSetNodeWeight:
          touched[static_cast<std::size_t>(op.u)] = 1;
          break;
        default:
          break;
      }
    }
    for (NodeId v = nodes_before; v < n; ++v) {
      touched[static_cast<std::size_t>(v)] = 1;
    }
    mask = touched;
    expand_mask(inst.dag, mask, options.mask_radius);
  }
  for (char bit : mask) result.masked_nodes += bit != 0;

  // --- 5. Polish seeded from the patch, in two stages: two thirds of the
  // budget run under the locality mask (the delta's blast radius, where
  // moves are most likely to pay), the rest unmasked — the global pass is
  // what merges away the fresh supersteps the patch appends, which no
  // masked move can do once repairs chain along a trace. A full mask
  // makes the stages identical, so the whole budget runs in one pass.
  // An empty mask means the delta changed nothing a move could exploit.
  //
  // The patched plan is priced once: by the masked polish that starts
  // from it (its initial cost is bitwise evaluate_plan's), by the final
  // evaluation when nothing polishes it, and up front only when a
  // machine delta must compare it with a fresh baseline first.
  const bool run_polish = options.polish && result.masked_nodes > 0;
  if (run_polish) {
    // A machine delta invalidates the incumbent's load balance wholesale,
    // and the order-preserving relocation can leave a seed a fresh
    // two-stage baseline on the mutated machine beats outright. Polish
    // from whichever is cheaper — deterministic, and it bounds how far a
    // repair can trail a from-scratch re-solve at equal polish budget.
    const ComputePlan* polish_seed = &patched;
    ComputePlan rebalanced;
    if (result.full_mask) {
      result.patched_cost = evaluate_plan(inst, patched, options.lns);
      rebalanced = baseline_plan(inst, BaselineKind::kGreedyClairvoyant);
      if (evaluate_plan(inst, rebalanced, options.lns) <
          result.patched_cost) {
        polish_seed = &rebalanced;
      }
    }
    LnsOptions masked = options.lns;
    masked.node_mask = &mask;
    LnsOptions global = options.lns;
    const long global_iters =
        result.full_mask ? 0 : options.lns.max_iterations / 3;
    masked.max_iterations = options.lns.max_iterations - global_iters;
    global.max_iterations = global_iters;
    if (global_iters > 0 && options.lns.budget_ms > 0) {
      masked.budget_ms = options.lns.budget_ms * 2 / 3;
      global.budget_ms = options.lns.budget_ms - masked.budget_ms;
    }
    LnsSearchResult masked_run = search_plan(inst, *polish_seed, masked);
    if (!result.full_mask) result.patched_cost = masked_run.initial_cost;
    result.plan = std::move(masked_run.plan);
    result.polish_iterations = masked_run.iterations;
    if (global_iters > 0) {
      LnsSearchResult global_run = search_plan(inst, result.plan, global);
      result.plan = std::move(global_run.plan);
      result.polish_iterations += global_run.iterations;
    }
  } else {
    result.plan = patched;
  }

  // The reported cost is always a from-scratch evaluation of the returned
  // plan on the mutated instance — the differential-oracle contract.
  result.cost = evaluate_plan(inst, result.plan, options.lns, &result.schedule);
  if (!run_polish) result.patched_cost = result.cost;
  return result;
}

}  // namespace mbsp
