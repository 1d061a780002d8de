#include "tests/support/eviction_policy.hpp"

#include <cassert>

namespace mbsp {

NodeId ClairvoyantPolicy::choose_victim(
    std::span<const VictimInfo> candidates) const {
  assert(!candidates.empty());
  const VictimInfo* best = &candidates[0];
  for (const VictimInfo& c : candidates) {
    if (c.next_use > best->next_use ||
        (c.next_use == best->next_use && c.node < best->node)) {
      best = &c;
    }
  }
  return best->node;
}

NodeId LruPolicy::choose_victim(std::span<const VictimInfo> candidates) const {
  assert(!candidates.empty());
  const VictimInfo* best = &candidates[0];
  for (const VictimInfo& c : candidates) {
    // Dead values always go first; otherwise least recently active.
    const bool c_dead = c.next_use == kNoNextUse;
    const bool b_dead = best->next_use == kNoNextUse;
    if (c_dead != b_dead) {
      if (c_dead) best = &c;
      continue;
    }
    if (c.last_active < best->last_active ||
        (c.last_active == best->last_active && c.node < best->node)) {
      best = &c;
    }
  }
  return best->node;
}

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kClairvoyant:
      return std::make_unique<ClairvoyantPolicy>();
    case PolicyKind::kLru:
      return std::make_unique<LruPolicy>();
  }
  return nullptr;
}

}  // namespace mbsp
