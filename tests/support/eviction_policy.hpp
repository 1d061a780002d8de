#pragma once
// The eviction policies as stateless rankers over victim candidates: the
// reference completer (reference_completion.hpp) and the cache simulator
// (cache_sim.hpp) supply the next-use / last-active information and ask a
// policy for the victim. The library's completion engine inlines the same
// two orders (src/cache/policy.hpp); tests hold the two to each other.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "src/cache/policy.hpp"
#include "src/graph/dag.hpp"

namespace mbsp {

/// Sentinel meaning "no further use".
constexpr std::int64_t kNoNextUse = std::numeric_limits<std::int64_t>::max();

/// Per-candidate information available at eviction time.
struct VictimInfo {
  NodeId node = kInvalidNode;
  std::int64_t next_use = kNoNextUse;  ///< position of the next use, or kNoNextUse
  std::int64_t last_active = -1;       ///< position of the most recent activity
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Chooses the eviction victim among `candidates` (non-empty). Dead
  /// values (next_use == kNoNextUse) should be preferred by every policy.
  virtual NodeId choose_victim(std::span<const VictimInfo> candidates) const = 0;

  virtual std::string name() const = 0;
};

/// The paper's strong baseline: farthest next use wins.
class ClairvoyantPolicy final : public EvictionPolicy {
 public:
  NodeId choose_victim(std::span<const VictimInfo> candidates) const override;
  std::string name() const override { return "clairvoyant"; }
};

/// Least-recently-used: smallest last_active wins (dead values first).
class LruPolicy final : public EvictionPolicy {
 public:
  NodeId choose_victim(std::span<const VictimInfo> candidates) const override;
  std::string name() const override { return "lru"; }
};

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind);

}  // namespace mbsp
