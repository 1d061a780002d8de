#pragma once
// Open-addressing hash table with integer keys for the evaluator's sparse
// per-processor state (docs/PERFORMANCE.md). Replaces the dense
// vector<int>-per-processor validator rows whose memory footprint was
// O(P * n) regardless of how few nodes actually cross processors.
//
// Design: power-of-two capacity, linear probing, a tombstone-free "clear
// by epoch" scheme (clear() bumps an epoch instead of touching every
// slot), keys are non-negative integers. The table never shrinks;
// capacity is retained across clears, so steady-state use allocates
// nothing. Iteration walks the compact insertion log, not the buckets,
// which keeps "visit every live entry" O(entries).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mbsp {

template <typename Key, typename Value>
class FlatMap {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  FlatMap() { rehash(16); }

  /// Drops every entry in O(1) (epoch bump); keeps capacity.
  void clear() {
    ++epoch_;
    log_.clear();
    size_ = 0;
    if (epoch_ == 0) {  // wrapped: slots may alias the new epoch
      std::fill(slot_epoch_.begin(), slot_epoch_.end(), std::uint32_t(0));
      epoch_ = 1;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Returns the value for `key`, inserting `fallback` first if absent.
  Value& get_or_insert(Key key, const Value& fallback) {
    if ((size_ + 1) * 4 > cap_ * 3) rehash(cap_ * 2);
    std::size_t at = probe(key);
    if (slot_epoch_[at] != epoch_) {
      slot_epoch_[at] = epoch_;
      keys_[at] = key;
      values_[at] = fallback;
      log_.push_back(at);
      ++size_;
    }
    return values_[at];
  }

  /// Pointer to the value for `key`, or nullptr when absent.
  Value* find(Key key) {
    const std::size_t at = probe(key);
    return slot_epoch_[at] == epoch_ ? &values_[at] : nullptr;
  }
  const Value* find(Key key) const {
    const std::size_t at = probe(key);
    return slot_epoch_[at] == epoch_ ? &values_[at] : nullptr;
  }

  bool contains(Key key) const { return find(key) != nullptr; }

  /// Visits every live entry (insertion order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::size_t at : log_) {
      fn(keys_[at], values_[at]);
    }
  }

 private:
  std::size_t probe(Key key) const {
    std::size_t at = hash(key) & (cap_ - 1);
    while (slot_epoch_[at] == epoch_ && keys_[at] != key) {
      at = (at + 1) & (cap_ - 1);
    }
    return at;
  }

  static std::size_t hash(Key key) {
    // Fibonacci hashing: spreads consecutive integer keys.
    std::uint64_t h = static_cast<std::uint64_t>(key);
    h *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32);
  }

  void rehash(std::size_t new_cap) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    std::vector<std::uint32_t> old_epoch = std::move(slot_epoch_);
    std::vector<std::size_t> old_log = std::move(log_);
    const std::uint32_t old_mark = epoch_;
    cap_ = new_cap;
    keys_.assign(cap_, Key{});
    values_.assign(cap_, Value{});
    slot_epoch_.assign(cap_, 0);
    log_.clear();
    // The insertion log holds at most the entries the new capacity admits
    // before the next rehash: one allocation, not a regrowth per doubling.
    log_.reserve(cap_ * 3 / 4);
    epoch_ = 1;
    size_ = 0;
    for (const std::size_t at : old_log) {
      if (old_epoch[at] != old_mark) continue;
      get_or_insert(old_keys[at], old_values[at]);
    }
  }

  std::size_t cap_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> slot_epoch_;
  std::vector<std::size_t> log_;  ///< bucket indices in insertion order
};

}  // namespace mbsp
