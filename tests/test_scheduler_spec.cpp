// Tests for scheduler spec strings (src/runner/scheduler_spec.hpp): the
// canonical form round-trips every table field, bad values are rejected
// at parse time naming the key, --schedulers lists split with key-only
// continuations, and — the property the schedule cache relies on — an
// option that changes a registry scheduler's iteration-capped plan also
// changes its canonical spec, while default options key as the bare name.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "src/daemon/schedule_cache.hpp"
#include "src/graph/generators.hpp"
#include "src/model/instance.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/runner/scheduler_spec.hpp"

namespace mbsp {
namespace {

/// One non-default value per table key, written in canonical form.
const std::map<std::string, std::string>& perturbed_values() {
  static const std::map<std::string, std::string> values = {
      {"budget_ms", "250"},   {"cold", "1"},
      {"cost", "async"},      {"epochs", "5"},
      {"iters", "1500"},      {"moves", "step+swap+merge+split+recompute+drop"},
      {"policy", "lru"},      {"profile", "uniform"},
      {"radius", "2"},        {"rec", "0"},
      {"s1", "12.5"},         {"seed", "18446744073709551615"},
      {"shards", "3"},        {"temp", "0.125"},
      {"warm", "dfs+clairvoyant"}, {"workers", "2"},
  };
  return values;
}

/// Every SchedulerOptions member the table covers.
void expect_table_fields_eq(const SchedulerOptions& a,
                            const SchedulerOptions& b) {
  EXPECT_EQ(a.budget_ms, b.budget_ms);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.allow_recompute, b.allow_recompute);
  EXPECT_EQ(a.completion_policy, b.completion_policy);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.max_iterations, b.max_iterations);
  EXPECT_EQ(a.initial_temperature_frac, b.initial_temperature_frac);
  EXPECT_EQ(a.move_mask, b.move_mask);
  EXPECT_EQ(a.warm_start, b.warm_start);
  EXPECT_EQ(a.stage1_budget_ms, b.stage1_budget_ms);
  EXPECT_EQ(a.cold_start, b.cold_start);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.portfolio_profile, b.portfolio_profile);
  EXPECT_EQ(a.repair_mask_radius, b.repair_mask_radius);
}

MbspInstance tiny_instance(int P, int nodes, int layers) {
  Rng rng(17);
  ComputeDag dag = random_layered_dag(nodes, layers, rng);
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(P, 3 * r0, 1, 5)};
}

TEST(SchedulerSpec, CanonicalRoundTripsEveryTableField) {
  // The unknown-key error lists the table's keys, sorted.
  std::string keys;
  for (const auto& [key, value] : perturbed_values()) {
    keys += (keys.empty() ? "" : ", ") + key;
  }
  try {
    resolve_scheduler_spec("lns:no-such-key=1");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(valid: " + keys + ")"),
              std::string::npos)
        << e.what() << "\na table key has no test value";
  }

  std::string all = "lns:";
  for (const auto& [key, value] : perturbed_values()) {
    // One key at a time: it alone appears, rendered as written.
    const std::string one = "lns:" + key + "=" + value;
    const SchedulerOptions options = resolve_scheduler_spec(one).options;
    EXPECT_EQ(canonical_scheduler_spec("lns", options), one);
    expect_table_fields_eq(
        resolve_scheduler_spec(canonical_scheduler_spec("lns", options))
            .options,
        options);
    all += key + "=" + value + ",";
  }
  all.pop_back();
  // All keys at once (the map iterates in key order, the canonical order).
  const SchedulerSpec spec = resolve_scheduler_spec(all);
  EXPECT_EQ(spec.name, "lns");
  EXPECT_EQ(canonical_scheduler_spec("lns", spec.options), all);
  expect_table_fields_eq(
      resolve_scheduler_spec(canonical_scheduler_spec("lns", spec.options))
          .options,
      spec.options);
  EXPECT_EQ(spec.options.seed, 18446744073709551615ull);
  EXPECT_EQ(spec.options.move_mask, kAllMoves & ~kMoveProc);
}

TEST(SchedulerSpec, BareNameIsTheDefaultSpec) {
  EXPECT_EQ(canonical_scheduler_spec("sharded", SchedulerOptions{}),
            "sharded");
  SchedulerOptions base;
  base.workers = 7;
  base.budget_ms = 0;
  const SchedulerSpec spec = resolve_scheduler_spec("lns-portfolio", base);
  EXPECT_EQ(spec.name, "lns-portfolio");
  expect_table_fields_eq(spec.options, base);
  // Spec keys override the base; the rest of it carries through.
  const SchedulerSpec over = resolve_scheduler_spec("lns-portfolio:epochs=2",
                                                    base);
  EXPECT_EQ(over.options.epochs, 2);
  EXPECT_EQ(over.options.workers, 7);
  EXPECT_EQ(canonical_scheduler_spec(over.name, over.options),
            "lns-portfolio:budget_ms=0,epochs=2,workers=7");
  // The cache key leaves the effort keys out.
  EXPECT_EQ(daemon::make_cache_key(tiny_instance(2, 8, 3), over.name,
                                   over.options)
                .scheduler_spec,
            "lns-portfolio:epochs=2,workers=7");
}

TEST(SchedulerSpec, BadValuesAreRejectedNamingTheKey) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"lns-portfolio:workers=0", "workers"},
      {"lns-portfolio:workers=-2", "workers"},
      {"lns-portfolio:workers=abc", "workers"},
      {"lns-portfolio:workers=2.5", "workers"},
      {"lns-portfolio:epochs=0", "epochs"},
      {"lns-portfolio:epochs=-1", "epochs"},
      {"sharded:shards=0", "shards"},
      {"lns:workers=99999999999", "workers"},
      {"lns-portfolio:workers=65", "workers"},
      {"lns-portfolio:workers=1000000", "workers"},
      {"lns-portfolio:epochs=1025", "epochs"},
      {"lns:iters=99999999999999999999", "iters"},
      {"lns:seed=-1", "seed"},
      {"lns:iters=-5", "iters"},
      {"lns:temp=nan", "temp"},
      {"lns:budget_ms=inf", "budget_ms"},
      {"lns:s1=-1", "s1"},
      {"lns:radius=-1", "radius"},
      {"lns:cost=fast", "cost"},
      {"lns:rec=yes", "rec"},
      {"lns:warm=bspg", "warm"},
      {"lns:profile=hot", "profile"},
      {"lns:moves=proc+stepp", "stepp"},
      {"lns:bogus=1", "bogus"},
      {"lns:workers", "workers"},
      {"lns:seed=1,seed=2", "seed"},
  };
  // The portfolio ceilings themselves are accepted.
  const SchedulerOptions most =
      resolve_scheduler_spec("lns-portfolio:workers=64,epochs=1024").options;
  EXPECT_EQ(most.workers, 64);
  EXPECT_EQ(most.epochs, 1024);
  for (const auto& [spec, token] : bad) {
    try {
      resolve_scheduler_spec(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(SchedulerSpec, ListItemsWithoutAColonContinueThePreviousSpec) {
  using List = std::vector<std::string>;
  EXPECT_EQ(split_scheduler_list("a,lns-portfolio:workers=8,epochs=4,b"),
            (List{"a", "lns-portfolio:workers=8,epochs=4", "b"}));
  // The golden-plan command line splits as plain names.
  EXPECT_EQ(split_scheduler_list(
                "bspg+clairvoyant,lns,lns-portfolio,holistic,sharded,repair"),
            (List{"bspg+clairvoyant", "lns", "lns-portfolio", "holistic",
                  "sharded", "repair"}));
  EXPECT_EQ(split_scheduler_list("lns:moves=proc+swap,budget_ms=0,"),
            (List{"lns:moves=proc+swap,budget_ms=0"}));
  EXPECT_EQ(split_scheduler_list("sharded:shards=2,sharded:shards=4"),
            (List{"sharded:shards=2", "sharded:shards=4"}));
  EXPECT_EQ(split_scheduler_list(",a,,b"), (List{"a", "b"}));
}

/// A tiny-dataset DAG under tight memory: small enough to run every
/// scheduler quickly, sensitive enough that nearly every option moves
/// some scheduler's plan (evictions make the completion policy matter).
MbspInstance tight_instance() {
  ComputeDag dag = tiny_dataset(2025)[3];
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(4, 1.2 * r0, 1, 10)};
}

TEST(SchedulerSpec, DefaultOptionsKeyAsTheBareName) {
  const MbspInstance inst = tiny_instance(2, 14, 4);
  for (const std::string& name : SchedulerRegistry::global().names()) {
    EXPECT_EQ(daemon::make_cache_key(inst, name, SchedulerOptions{})
                  .scheduler_spec,
              name);
  }
}

TEST(SchedulerSpec, EveryPlanChangingOptionChangesTheCanonicalSpec) {
  // Perturbs every SchedulerOptions field that is not a caller-owned
  // pointer (warm_start_plan, repair_delta, node_mask) and runs every
  // registry scheduler iteration-capped: whenever the plan moves, the
  // canonical spec must move too, or the schedule cache would serve one
  // configuration's plan for another. "ilp" is left out: it has no
  // iteration cap, so at budget_ms = 0 its branch-and-bound runs for
  // minutes even on 6 nodes, and under a deadline its plan depends on the
  // wall clock. The P = 1 instance is small enough for the exact pebbler
  // to finish without a deadline.
  //
  // The property is only as strong as the instances are sensitive, so
  // every field with a spec key must move at least one plan here, except
  // radius (no repair delta, so "repair" runs the plain LNS), s1 (the
  // refined baseline converges well inside either budget) and budget_ms
  // (whether 5 ms cuts 300 iterations short depends on the machine).
  using Perturb = std::function<void(SchedulerOptions&)>;
  const std::vector<std::pair<const char*, Perturb>> perturbations = {
      {"budget_ms", [](SchedulerOptions& o) { o.budget_ms = 5; }},
      {"cost", [](SchedulerOptions& o) { o.cost = CostModel::kAsynchronous; }},
      {"allow_recompute",
       [](SchedulerOptions& o) { o.allow_recompute = false; }},
      {"completion_policy",
       [](SchedulerOptions& o) { o.completion_policy = PolicyKind::kLru; }},
      {"seed", [](SchedulerOptions& o) { o.seed = 99; }},
      {"max_iterations", [](SchedulerOptions& o) { o.max_iterations = 40; }},
      {"initial_temperature_frac",
       [](SchedulerOptions& o) { o.initial_temperature_frac = 0.5; }},
      {"move_mask", [](SchedulerOptions& o) { o.move_mask = kMoveProc; }},
      {"warm_start",
       [](SchedulerOptions& o) { o.warm_start = BaselineKind::kCilkLru; }},
      {"stage1_budget_ms", [](SchedulerOptions& o) { o.stage1_budget_ms = 1; }},
      {"cold_start", [](SchedulerOptions& o) { o.cold_start = true; }},
      {"shards", [](SchedulerOptions& o) { o.shards = 2; }},
      {"workers", [](SchedulerOptions& o) { o.workers = 2; }},
      {"epochs", [](SchedulerOptions& o) { o.epochs = 2; }},
      {"portfolio_profile",
       [](SchedulerOptions& o) {
         o.portfolio_profile = PortfolioProfile::kUniform;
       }},
      {"repair_mask_radius",
       [](SchedulerOptions& o) { o.repair_mask_radius = 3; }},
  };
  SchedulerOptions base;
  base.budget_ms = 0;
  base.max_iterations = 300;
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  std::set<std::string> moved;
  for (const MbspInstance& inst : {tiny_instance(1, 6, 3), tight_instance()}) {
    for (const std::string& name : registry.names()) {
      const MbspScheduler& scheduler = registry.at(name);
      if (name == "ilp" || !scheduler.supports(inst)) continue;
      const ScheduleResult reference = scheduler.run(inst, base);
      for (const auto& [field, perturb] : perturbations) {
        SchedulerOptions options = base;
        perturb(options);
        const ScheduleResult result = scheduler.run(inst, options);
        const bool plan_changed = result.cost != reference.cost ||
                                  result.io_volume != reference.io_volume ||
                                  !(result.plan.seq == reference.plan.seq);
        if (plan_changed) {
          moved.insert(field);
          EXPECT_NE(canonical_scheduler_spec(name, options),
                    canonical_scheduler_spec(name, base))
              << name << " P=" << inst.arch.num_processors << ": " << field
              << " changes the plan but not the canonical spec";
        }
      }
    }
  }
  const std::set<std::string> sensitive = {
      "allow_recompute", "cold_start", "completion_policy", "cost", "epochs",
      "initial_temperature_frac", "max_iterations", "move_mask",
      "portfolio_profile", "seed", "shards", "warm_start", "workers"};
  for (const std::string& field : sensitive) {
    EXPECT_TRUE(moved.count(field)) << field << " moved no plan";
  }
}

}  // namespace
}  // namespace mbsp
