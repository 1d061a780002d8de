#include "src/runner/scheduler_spec.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "src/model/spec.hpp"

namespace mbsp {

namespace {

using Names = std::vector<std::string>;

/// An int row's inclusive bounds.
struct Range {
  int lo;
  int hi = INT_MAX;
};

/// A whole number >= 0 as wide as its member (seed, iters).
struct Whole {};

/// Ceilings of the portfolio rows, so a spec (which mbspd takes from the
/// wire) cannot ask for unbounded threads (one per worker) or barriers.
constexpr int kMaxWorkers = 64;
constexpr int kMaxEpochs = 1024;

/// The field table: visit(key, member, how) for every row, where `how` is
/// a Range, a double's minimum, Whole, or the names of an enum's values
/// (indexed by value) or of the move mask's bits.
template <typename Options, typename Visit>
void for_each_field(Options& o, Visit&& visit) {
  const Names kBool{"0", "1"};
  visit("cost", o.cost, Names{"sync", "async"});
  visit("rec", o.allow_recompute, kBool);
  visit("policy", o.completion_policy, Names{"clairvoyant", "lru"});
  visit("seed", o.seed, Whole{});
  visit("temp", o.initial_temperature_frac, 0.0);
  visit("moves", o.move_mask,  // lns_move_class_name, in bit order
        Names{"proc", "step", "swap", "merge", "split", "recompute", "drop"});
  visit("warm", o.warm_start, Names{"bspg+clairvoyant", "cilk+lru",
                                    "ilp-bsp+clairvoyant", "dfs+clairvoyant"});
  visit("s1", o.stage1_budget_ms, 0.0);
  visit("cold", o.cold_start, kBool);
  visit("shards", o.shards, Range{1});
  visit("workers", o.workers, Range{1, kMaxWorkers});
  visit("epochs", o.epochs, Range{1, kMaxEpochs});
  visit("profile", o.portfolio_profile, Names{"uniform", "diverse"});
  visit("radius", o.repair_mask_radius, Range{0});
  visit("budget_ms", o.budget_ms, 0.0);  // effort
  visit("iters", o.max_iterations, Whole{});  // effort
}

/// Sets `member` from the spec's `key`, when the spec has it.
template <typename T, typename How>
void parse_field(const SpecString& spec, const std::string& key, T& member,
                 const How& how) {
  const std::string* text = spec.find(key);
  if (text == nullptr) return;
  const std::string bad = "parameter '" + key + "': ";
  if constexpr (std::is_same_v<How, Range>) {
    member = spec_get_int(spec.params, key, member, how.lo, how.hi);
  } else if constexpr (std::is_same_v<How, double>) {
    member = spec_get_double(spec.params, key, member, how);
  } else if constexpr (std::is_same_v<How, Whole>) {
    const char* end = text->data() + text->size();
    const auto [stop, ec] = std::from_chars(text->data(), end, member);
    if (ec != std::errc{} || stop != end || text->front() == '-') {
      throw std::invalid_argument(bad + "'" + *text +
                                  "' is not a whole number in range");
    }
  } else if constexpr (std::is_same_v<T, unsigned>) {  // the move mask
    std::string unknown;
    if (!parse_move_mask(*text, &member, &unknown)) {
      throw std::invalid_argument(
          bad + spec_unknown_name_error(unknown, "move class", how));
    }
  } else {
    const auto it = std::find(how.begin(), how.end(), *text);
    if (it == how.end()) {
      throw std::invalid_argument(bad +
                                  spec_unknown_name_error(*text, key, how));
    }
    member = static_cast<T>(it - how.begin());
  }
}

/// The shortest text that parses back to exactly `member`.
template <typename T, typename How>
std::string render_field(const T& member, const How& how) {
  if constexpr (!std::is_same_v<How, Names>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, member).ptr);
  } else if constexpr (std::is_same_v<T, unsigned>) {
    std::string out;
    for (std::size_t c = 0; c < how.size(); ++c) {
      if (member & (1u << c)) out += (out.empty() ? "" : "+") + how[c];
    }
    return out.empty() ? "none" : out;
  } else {
    return how.at(static_cast<std::size_t>(member));
  }
}

/// Every row as (key, rendered value), in table order.
SpecParamList rendered(const SchedulerOptions& options) {
  SpecParamList out;
  for_each_field(options, [&](const char* key, const auto& member,
                              const auto& how) {
    out.emplace_back(key, render_field(member, how));
  });
  return out;
}

}  // namespace

SchedulerSpec resolve_scheduler_spec(const std::string& text,
                                     const SchedulerOptions& base) {
  std::string error;
  const auto spec = SpecString::parse(text, &error, "scheduler name");
  if (!spec) throw std::invalid_argument(error);
  SchedulerSpec out{spec->head, base};
  std::vector<std::string> keys;
  for_each_field(out.options, [&](const char* key, auto& member,
                                  const auto& how) {
    keys.emplace_back(key);
    parse_field(*spec, key, member, how);
  });
  for (const auto& param : spec->params) {
    if (std::find(keys.begin(), keys.end(), param.first) == keys.end()) {
      throw std::invalid_argument(spec_unknown_key_error(
          param.first, "scheduler '" + out.name + "'", std::move(keys)));
    }
  }
  return out;
}

std::string canonical_scheduler_spec(const std::string& name,
                                     const SchedulerOptions& options) {
  static const SpecParamList defaults = rendered(SchedulerOptions{});
  const SpecParamList values = rendered(options);
  SpecString spec{name, {}};
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != defaults[i]) spec.params.push_back(values[i]);
  }
  return spec.canonical();
}

std::vector<std::string> split_scheduler_list(const std::string& list) {
  std::vector<std::string> specs;
  std::istringstream items(list);
  for (std::string item; std::getline(items, item, ',');) {
    if (!specs.empty() && item.find('=') != std::string::npos &&
        item.find(':') == std::string::npos) {
      specs.back() += "," + item;  // a key of the previous spec
    } else if (!item.empty()) {
      specs.push_back(item);
    }
  }
  return specs;
}

}  // namespace mbsp
