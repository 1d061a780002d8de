#include "tests/support/reference_completion.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

namespace mbsp {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// One planned maximal segment of computes on one processor, together with
/// the I/O that realizes it and the processor-state delta after it. The
/// segment carries only its *changes* (never an O(n) cache snapshot), so a
/// planning attempt costs O(segment), not O(graph) — the property that
/// keeps completion tractable on 10^6-node plans (docs/SCALE.md). The
/// completer owns two and swaps them, so its vectors keep their capacity
/// across attempts and a try allocates nothing once they have grown.
struct SegmentPlan {
  std::vector<NodeId> loads;
  std::vector<NodeId> pre_saves;    // dirty upfront evictions (prev slot)
  std::vector<NodeId> pre_deletes;  // upfront evictions (prev slot)
  std::vector<PhaseOp> ops;         // computes + interleaved deletes
  std::vector<NodeId> post_saves;   // outputs needing a blue pebble
  std::vector<NodeId> post_deletes; // dead values dropped after the segment
  std::int64_t count = 0;           // number of plan entries consumed
  // State delta after the segment.
  std::vector<std::pair<NodeId, char>> cache_changes;  // final vs committed
  double cache_weight = 0;
  std::vector<NodeId> made_blue;  // pre_saves + post_saves (commit order)
  std::vector<std::pair<NodeId, std::int64_t>> touched;  // last_active, deduped

  void clear() {
    loads.clear();
    pre_saves.clear();
    pre_deletes.clear();
    ops.clear();
    post_saves.clear();
    post_deletes.clear();
    count = 0;
    cache_changes.clear();
    cache_weight = 0;
    made_blue.clear();
    touched.clear();
  }
};

/// Per-processor static index: node -> ascending positions in seq[p],
/// CSR-flattened (offset array + one flat position pool) instead of a
/// vector-of-vectors per (proc, node), which at 10^6 nodes costs hundreds
/// of MB in empty vector headers alone.
struct PlanIndex {
  std::vector<std::uint32_t> offset;  // n + 1
  std::vector<std::int64_t> pos;      // ascending per node
  std::vector<std::uint32_t> cursor;  // n: index into pos of v's last seek

  bool empty(NodeId v) const { return offset[v + 1] == offset[v]; }
  const std::int64_t* end(NodeId v) const {
    return pos.data() + offset[v + 1];
  }

  /// lower_bound(from) over v's positions, walked from v's cursor instead
  /// of bisected: queries move forward with the completion, plus short
  /// steps back when a try restarts at its segment start, so a seek is
  /// amortized O(1).
  const std::int64_t* seek(NodeId v, std::int64_t from) {
    std::uint32_t c = cursor[v];
    while (c < offset[v + 1] && pos[c] < from) ++c;
    while (c > offset[v] && pos[c - 1] >= from) --c;
    cursor[v] = c;
    return pos.data() + c;
  }
};

class Completer {
 public:
  Completer(const MbspInstance& inst, const ComputePlan& plan,
            const EvictionPolicy& policy)
      : inst_(inst), dag_(inst.dag), plan_(plan), policy_(policy),
        P_(plan.num_procs) {
    r_.resize(static_cast<std::size_t>(P_));
    for (int p = 0; p < P_; ++p) {
      r_[static_cast<std::size_t>(p)] = inst.arch.memory(p);
    }
    precompute();
  }

  MbspSchedule run();

 private:
  void precompute();
  /// Plans the first `count` computes of p's current superstep into cur_;
  /// false when they cannot form one I/O-free segment.
  bool try_segment(int p, std::int64_t count);
  const SegmentPlan& plan_largest_segment(int p, int superstep);
  void commit(int p, const SegmentPlan& seg);

  /// Position (in seq[p]) of the next *need* of the current copy of v at or
  /// after `from`: the next use as a parent, unless v is recomputed on p
  /// before that use (then the current copy is not needed). kNever if none.
  std::int64_t effective_next_need(int p, NodeId v, std::int64_t from);

  bool save_required(NodeId v) const { return save_required_[v] != 0; }

  // -- Epoch-stamped per-attempt overlays -----------------------------------
  // One epoch per try_segment attempt: a slot is live iff its stamp equals
  // the current epoch, so "clearing" every per-attempt array is a counter
  // increment. All reads fall back to the committed base state when the
  // stamp is stale. This is the same dense-overlay idiom as the LNS
  // evaluator's scratch state (docs/PERFORMANCE.md).
  bool in_seg_cache(int p, NodeId v) const {
    return cache_st_[v] == epoch_ ? cache_ov_[v] != 0 : cache_[p][v] != 0;
  }
  void set_seg_cache(NodeId v, char state) {
    if (cache_st_[v] != epoch_) {
      cache_st_[v] = epoch_;
      cache_touched_.push_back(v);
    }
    cache_ov_[v] = state;
  }
  bool seg_blue(NodeId v) const {
    return blue_[v] != 0 || blueadd_st_[v] == epoch_;
  }
  void seg_make_blue(NodeId v) { blueadd_st_[v] = epoch_; }
  int seg_need(NodeId v) const {
    return need_st_[v] == epoch_ ? need_ov_[v] : 0;
  }
  void seg_need_add(NodeId v, int delta) {
    if (need_st_[v] != epoch_) {
      need_st_[v] = epoch_;
      need_ov_[v] = 0;
    }
    need_ov_[v] += delta;
  }
  void seg_touch(NodeId v, std::int64_t when) {
    if (touch_st_[v] != epoch_) {
      touch_st_[v] = epoch_;
      touch_list_.push_back(v);
    }
    touch_ov_[v] = when;
  }

  const MbspInstance& inst_;
  const ComputeDag& dag_;
  const ComputePlan& plan_;
  const EvictionPolicy& policy_;
  const int P_;
  std::vector<double> r_;  ///< per-proc capacity (uniform: all fast_memory)

  // Static plan indexes.
  std::vector<PlanIndex> use_idx_;   // [p]: node -> use positions
  std::vector<PlanIndex> comp_idx_;  // [p]: node -> compute positions
  std::vector<char> save_required_;  // sink or used on a non-computing proc

  // Dynamic state.
  std::vector<std::vector<char>> cache_;
  std::vector<std::vector<NodeId>> cache_list_;  // sorted cache contents [p]
  std::vector<double> cache_weight_;
  std::vector<char> blue_;          // visible for loads staged this round
  std::vector<NodeId> pending_blue_;  // post_saves; visible next round
  std::vector<std::int64_t> pos_;
  std::vector<std::vector<std::int64_t>> last_active_;

  // Per-attempt overlays (see above) + reused scratch.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> produced_st_, load_st_, needed_st_, hoist_st_;
  std::vector<std::uint32_t> blueadd_st_, cache_st_, need_st_, touch_st_;
  std::vector<char> cache_ov_;
  std::vector<int> need_ov_;
  std::vector<std::int64_t> touch_ov_;
  std::vector<NodeId> cache_touched_;  // nodes with a stamped cache slot
  std::vector<NodeId> touch_list_;
  std::vector<NodeId> candidates_;  // sorted superset of in-cache nodes
  std::vector<NodeId> sorted_;      // sorted scratch merged into the above
  std::vector<NodeId> merged_;
  std::vector<VictimInfo> victims_;
  SegmentPlan best_, cur_;  // largest feasible segment so far / this try
};

void Completer::precompute() {
  const NodeId n = dag_.num_nodes();
  // CSR-ify the (proc, node) -> positions maps: one counting pass, prefix
  // sums, one fill pass. Ascending fill order preserves ascending position
  // lists per node.
  use_idx_.resize(static_cast<std::size_t>(P_));
  comp_idx_.resize(static_cast<std::size_t>(P_));
  for (int p = 0; p < P_; ++p) {
    auto& uses = use_idx_[static_cast<std::size_t>(p)];
    auto& comps = comp_idx_[static_cast<std::size_t>(p)];
    uses.offset.assign(n + 1, 0);
    comps.offset.assign(n + 1, 0);
    const auto& seq = plan_.seq[p];
    for (const PlannedCompute& pc : seq) {
      ++comps.offset[pc.node + 1];
      for (NodeId u : dag_.parents(pc.node)) ++uses.offset[u + 1];
    }
    for (NodeId v = 0; v < n; ++v) {
      uses.offset[v + 1] += uses.offset[v];
      comps.offset[v + 1] += comps.offset[v];
    }
    uses.pos.resize(uses.offset[n]);
    comps.pos.resize(comps.offset[n]);
    // The seek cursors double as fill cursors, then rewind to each
    // list's start.
    uses.cursor.assign(uses.offset.begin(), uses.offset.end() - 1);
    comps.cursor.assign(comps.offset.begin(), comps.offset.end() - 1);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const NodeId v = seq[i].node;
      comps.pos[comps.cursor[v]++] = static_cast<std::int64_t>(i);
      for (NodeId u : dag_.parents(v)) {
        uses.pos[uses.cursor[u]++] = static_cast<std::int64_t>(i);
      }
    }
    uses.cursor.assign(uses.offset.begin(), uses.offset.end() - 1);
    comps.cursor.assign(comps.offset.begin(), comps.offset.end() - 1);
  }
  save_required_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (dag_.is_source(v)) continue;
    if (dag_.is_sink(v)) {
      save_required_[v] = 1;
      continue;
    }
    // Used on some processor that is not the only computing processor.
    int computing = -1, computing_count = 0;
    for (int p = 0; p < P_; ++p) {
      if (!comp_idx_[static_cast<std::size_t>(p)].empty(v)) {
        computing = p;
        ++computing_count;
      }
    }
    for (int p = 0; p < P_ && !save_required_[v]; ++p) {
      if (!use_idx_[static_cast<std::size_t>(p)].empty(v) &&
          (computing_count > 1 || p != computing)) {
        save_required_[v] = 1;
      }
    }
  }
  cache_.assign(P_, std::vector<char>(n, 0));
  cache_list_.assign(P_, {});
  cache_weight_.assign(P_, 0.0);
  blue_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (dag_.is_source(v)) blue_[v] = 1;
  }
  pos_.assign(P_, 0);
  last_active_.assign(P_, std::vector<std::int64_t>(n, -1));

  produced_st_.assign(n, 0);
  load_st_.assign(n, 0);
  needed_st_.assign(n, 0);
  hoist_st_.assign(n, 0);
  blueadd_st_.assign(n, 0);
  cache_st_.assign(n, 0);
  need_st_.assign(n, 0);
  touch_st_.assign(n, 0);
  cache_ov_.assign(n, 0);
  need_ov_.assign(n, 0);
  touch_ov_.assign(n, 0);
}

std::int64_t Completer::effective_next_need(int p, NodeId v,
                                            std::int64_t from) {
  auto& uses = use_idx_[static_cast<std::size_t>(p)];
  const std::int64_t* uit = uses.seek(v, from);
  if (uit == uses.end(v)) return kNever;
  auto& comps = comp_idx_[static_cast<std::size_t>(p)];
  const std::int64_t* cit = comps.seek(v, from);
  if (cit != comps.end(v) && *cit < *uit) return kNever;  // recomputed first
  return *uit;
}

bool Completer::try_segment(int p, std::int64_t count) {
  ++epoch_;
  cache_touched_.clear();
  touch_list_.clear();
  const auto& seq = plan_.seq[p];
  const std::int64_t i0 = pos_[p];
  SegmentPlan& seg = cur_;
  seg.clear();
  seg.count = count;
  seg.cache_weight = cache_weight_[p];

  // Collect upfront loads and the set of start-cache values the segment
  // consumes (those must not be evicted upfront).
  double load_weight = 0;
  for (std::int64_t j = 0; j < count; ++j) {
    const NodeId v = seq[i0 + j].node;
    for (NodeId u : dag_.parents(v)) {
      if (produced_st_[u] == epoch_ || load_st_[u] == epoch_) continue;
      if (cache_[p][u]) {
        needed_st_[u] = epoch_;
        continue;
      }
      if (!blue_[u]) return false;  // not loadable yet
      load_st_[u] = epoch_;
      seg.loads.push_back(u);
      load_weight += dag_.mu(u);
    }
    produced_st_[v] = epoch_;
  }

  // Sorted superset of everything that can ever be red during this
  // segment: the committed cache contents plus the loads and computes.
  // Victim enumeration and the post-delete sweep walk this list (filtered
  // by the live cache overlay) in ascending node order — the same victims
  // in the same order as a full 0..n scan, at O(candidates) cost. Only the
  // small loads + computes tail is sorted; the cache list already is.
  sorted_.assign(seg.loads.begin(), seg.loads.end());
  for (std::int64_t j = 0; j < count; ++j) {
    sorted_.push_back(seq[i0 + j].node);
  }
  std::sort(sorted_.begin(), sorted_.end());
  sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
  candidates_.clear();
  std::set_union(cache_list_[p].begin(), cache_list_[p].end(),
                 sorted_.begin(), sorted_.end(),
                 std::back_inserter(candidates_));

  auto make_victims = [&](const auto& allowed, std::int64_t from)
      -> const std::vector<VictimInfo>& {
    victims_.clear();
    for (NodeId v : candidates_) {
      if (!in_seg_cache(p, v) || !allowed(v)) continue;
      VictimInfo info;
      info.node = v;
      const std::int64_t need = effective_next_need(p, v, from);
      info.next_use = need == kNever ? kNoNextUse : need;
      info.last_active = last_active_[p][v];
      victims_.push_back(info);
    }
    return victims_;
  };

  // Phase A: upfront evictions so start cache + loads fit.
  const double r_p = r_[static_cast<std::size_t>(p)];
  while (seg.cache_weight + load_weight > r_p + kMemEps) {
    const auto& victims = make_victims(
        [&](NodeId v) { return needed_st_[v] != epoch_; }, i0);
    if (victims.empty()) return false;
    const NodeId victim = policy_.choose_victim(victims);
    const bool live = effective_next_need(p, victim, i0) != kNever;
    if (!seg_blue(victim) && (live || save_required(victim))) {
      seg.pre_saves.push_back(victim);
      seg_make_blue(victim);
      seg.made_blue.push_back(victim);
    }
    seg.pre_deletes.push_back(victim);
    set_seg_cache(victim, 0);
    seg.cache_weight -= dag_.mu(victim);
  }

  // Apply loads.
  for (NodeId u : seg.loads) {
    if (!in_seg_cache(p, u)) {
      set_seg_cache(u, 1);
      seg.cache_weight += dag_.mu(u);
    }
    seg_touch(u, i0);
  }

  // Phase B: replay the computes with mid-segment evictions. Mid-phase
  // evictions cannot SAVE (the save phase comes after the compute phase),
  // so a dirty value that is still live is only evictable by *hoisting*
  // its eviction before the segment (pre_saves / pre_deletes). Hoisting is
  // retroactively sound: every earlier capacity check passed with the
  // value present, so it also holds without it. Only untouched start-cache
  // values that the segment never consumes are hoistable.
  for (NodeId v : candidates_) {
    if (in_seg_cache(p, v) && needed_st_[v] != epoch_ &&
        load_st_[v] != epoch_) {
      hoist_st_[v] = epoch_;
    }
  }
  for (std::int64_t j = 0; j < count; ++j) {
    for (NodeId u : dag_.parents(seq[i0 + j].node)) seg_need_add(u, 1);
  }
  for (std::int64_t j = 0; j < count; ++j) {
    const NodeId v = seq[i0 + j].node;
    const std::int64_t gpos = i0 + j;
    if (!in_seg_cache(p, v)) {
      while (seg.cache_weight + dag_.mu(v) > r_p + kMemEps) {
        const auto& victims = make_victims(
            [&](NodeId c) {
              if (seg_need(c) > 0) return false;  // still a parent here
              if (seg_blue(c)) return true;
              if (hoist_st_[c] == epoch_) return true;
              // No blue pebble: only evictable if truly dead and never
              // needing a save (otherwise we would lose the value).
              return effective_next_need(p, c, gpos) == kNever &&
                     !save_required(c);
            },
            gpos + 1);
        if (victims.empty()) return false;
        const NodeId victim = policy_.choose_victim(victims);
        const bool dirty_live =
            !seg_blue(victim) &&
            (effective_next_need(p, victim, gpos) != kNever ||
             save_required(victim));
        if (dirty_live) {
          // Hoist: evict before the segment, saving first.
          seg.pre_saves.push_back(victim);
          seg_make_blue(victim);
          seg.made_blue.push_back(victim);
          seg.pre_deletes.push_back(victim);
        } else {
          seg.ops.push_back(PhaseOp::erase(victim));
        }
        set_seg_cache(victim, 0);
        seg.cache_weight -= dag_.mu(victim);
      }
      seg.ops.push_back(PhaseOp::compute(v));
      set_seg_cache(v, 1);
      seg.cache_weight += dag_.mu(v);
    }
    // else: value already red; the occurrence is redundant, skip the op.
    seg_touch(v, gpos);
    for (NodeId u : dag_.parents(v)) {
      seg_need_add(u, -1);
      seg_touch(u, gpos);
    }
    // Eager cleanup: drop parents that just died (free DELETE ops).
    for (NodeId u : dag_.parents(v)) {
      if (!in_seg_cache(p, u) || seg_need(u) > 0) continue;
      if (effective_next_need(p, u, gpos + 1) != kNever) continue;
      if (!seg_blue(u) && save_required(u)) continue;  // save pending
      seg.ops.push_back(PhaseOp::erase(u));
      set_seg_cache(u, 0);
      seg.cache_weight -= dag_.mu(u);
    }
  }

  // Post phase: save outputs that need a blue pebble, then drop dead values.
  for (std::int64_t j = 0; j < count; ++j) {
    const NodeId v = seq[i0 + j].node;
    if (in_seg_cache(p, v) && !seg_blue(v) && save_required(v)) {
      seg.post_saves.push_back(v);
      seg_make_blue(v);
      seg.made_blue.push_back(v);
    }
  }
  const std::int64_t after = i0 + count;
  for (NodeId v : candidates_) {
    if (!in_seg_cache(p, v)) continue;
    if (effective_next_need(p, v, after) != kNever) continue;
    if (!seg_blue(v) && save_required(v)) continue;
    seg.post_deletes.push_back(v);
    set_seg_cache(v, 0);
    seg.cache_weight -= dag_.mu(v);
  }

  // Materialize the deltas the commit applies.
  for (NodeId v : cache_touched_) {
    if (cache_ov_[v] != cache_[p][v]) seg.cache_changes.push_back({v, cache_ov_[v]});
  }
  for (NodeId v : touch_list_) seg.touched.push_back({v, touch_ov_[v]});
  return true;
}

const SegmentPlan& Completer::plan_largest_segment(int p, int superstep) {
  const auto& seq = plan_.seq[p];
  std::int64_t limit = 0;
  while (pos_[p] + limit < static_cast<std::int64_t>(seq.size()) &&
         seq[pos_[p] + limit].superstep == superstep) {
    ++limit;
  }
  assert(limit > 0);
  std::int64_t best = 0;
  for (std::int64_t count = 1; count <= limit; ++count) {
    if (!try_segment(p, count)) break;
    std::swap(best_, cur_);
    best = count;
  }
  assert(best > 0 && "first compute of a segment must always be schedulable");
  (void)best;
  return best_;
}

void Completer::commit(int p, const SegmentPlan& seg) {
  for (const auto& [node, state] : seg.cache_changes) {
    cache_[p][node] = state;
  }
  cache_weight_[p] = seg.cache_weight;
  pos_[p] += seg.count;
  for (const auto& [node, when] : seg.touched) last_active_[p][node] = when;
  for (NodeId v : seg.pre_saves) blue_[v] = 1;  // same-slot save phase
  for (NodeId v : seg.post_saves) pending_blue_.push_back(v);
  // Restore the sorted-cache-contents invariant: drop evicted nodes, fold
  // in the additions (which were absent before, so a merge of two sorted
  // runs keeps the list duplicate-free).
  auto& list = cache_list_[p];
  std::erase_if(list, [&](NodeId v) { return cache_[p][v] == 0; });
  sorted_.clear();
  for (const auto& [node, state] : seg.cache_changes) {
    if (state != 0) sorted_.push_back(node);
  }
  std::sort(sorted_.begin(), sorted_.end());
  merged_.clear();
  std::merge(list.begin(), list.end(), sorted_.begin(), sorted_.end(),
             std::back_inserter(merged_));
  list.swap(merged_);
}

MbspSchedule Completer::run() {
  MbspSchedule out;
  out.append(P_);  // slot 0 carries the very first loads
  std::size_t cur = 0;
  const int K = plan_.num_supersteps();
  for (int k = 0; k < K; ++k) {
    for (;;) {
      bool any_remaining = false;
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[p];
        if (pos_[p] < static_cast<std::int64_t>(seq.size()) &&
            seq[pos_[p]].superstep == k) {
          any_remaining = true;
        }
      }
      if (!any_remaining) break;
      if (out.steps.size() < cur + 2) out.append(P_);
      bool progress = false;
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[p];
        if (pos_[p] >= static_cast<std::int64_t>(seq.size()) ||
            seq[pos_[p]].superstep != k) {
          continue;
        }
        const SegmentPlan& seg = plan_largest_segment(p, k);
        ProcStep& stage = out.steps[cur].proc[p];
        stage.saves.insert(stage.saves.end(), seg.pre_saves.begin(),
                           seg.pre_saves.end());
        stage.deletes.insert(stage.deletes.end(), seg.pre_deletes.begin(),
                             seg.pre_deletes.end());
        stage.loads.insert(stage.loads.end(), seg.loads.begin(),
                           seg.loads.end());
        ProcStep& body = out.steps[cur + 1].proc[p];
        body.compute_phase.insert(body.compute_phase.end(), seg.ops.begin(),
                                  seg.ops.end());
        body.saves.insert(body.saves.end(), seg.post_saves.begin(),
                          seg.post_saves.end());
        body.deletes.insert(body.deletes.end(), seg.post_deletes.begin(),
                            seg.post_deletes.end());
        commit(p, seg);
        progress = true;
      }
      assert(progress);
      (void)progress;
      // post_saves become visible for loads staged from the next round on
      // (their save phase is the slot the next round stages loads into).
      for (NodeId v : pending_blue_) blue_[v] = 1;
      pending_blue_.clear();
      ++cur;
    }
  }
  out.drop_empty_supersteps();
  return out;
}

}  // namespace

MbspSchedule complete_memory(const MbspInstance& inst, const ComputePlan& plan,
                             const EvictionPolicy& policy) {
  Completer completer(inst, plan, policy);
  return completer.run();
}

}  // namespace mbsp
