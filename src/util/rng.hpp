#pragma once
// Deterministic pseudo-random number generation for reproducible experiments.
//
// We use xoshiro256** (Blackman & Vigna) rather than std::mt19937 so that
// every platform and standard library produces bit-identical instance
// datasets: the benchmark DAGs are *generated*, and the experiment tables
// are only comparable across runs if generation is deterministic.

#include <cstdint>
#include <vector>

namespace mbsp {

/// The SplitMix64 step (Steele, Lea & Flood) as a pure function: one
/// well-mixed 64-bit output per distinct input. Rng seeds its lanes from
/// it, and the shard and portfolio pipelines derive their per-task seeds
/// with it.
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four lanes of state from `seed`'s SplitMix64 stream: lane i
  /// is splitmix64_mix(seed + i * 0x9E3779B97F4A7C15).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Uniformly chosen index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace mbsp
