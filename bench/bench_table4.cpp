// Regenerates Table 4: baseline / ILP cost under alternative parameters:
// r = 5*r0, r = r0, P = 8, L = 0, and the asynchronous cost model.
// Paper reference geomeans: 0.76x (r=5r0), 0.97x (r=r0), 0.82x (P=8),
// 0.85x (L=0), 0.91x (async).
#include "bench/bench_common.hpp"

using namespace mbsp;
using namespace mbsp::bench;

namespace {

struct Variant {
  const char* label;
  int P;
  double r_factor, L;
  const char* scheduler;
};

constexpr Variant kVariants[] = {
    {"r=5r0", 4, 5.0, 10, "holistic"},
    {"r=r0", 4, 1.0, 10, "holistic"},
    {"P=8", 8, 3.0, 10, "holistic"},
    {"L=0", 4, 3.0, 0, "holistic"},
    {"async", 4, 3.0, 0, "holistic:cost=async"},
};

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::from_env();
  auto dataset = tiny_dataset(config.seed);
  const std::size_t count = dataset.size();
  constexpr std::size_t kNumVariants = std::size(kVariants);

  // Materialize every (instance, variant) pair with its own architecture;
  // the cell list is i-major, k-minor.
  std::vector<MbspInstance> instances;
  std::vector<BatchRunner::CellSpec> specs;
  instances.reserve(count * kNumVariants);
  for (std::size_t i = 0; i < count; ++i) {
    for (const Variant& variant : kVariants) {
      instances.push_back(make_instance(dataset[i], variant.P,
                                        variant.r_factor, 1, variant.L));
    }
  }
  for (std::size_t i = 0; i < count * kNumVariants; ++i) {
    specs.push_back({&instances[i], kVariants[i % kNumVariants].scheduler});
  }
  const std::vector<BatchCell> cells = make_runner(config).run_cells(specs);

  Table table({"Instance", "r=5r0", "r=r0", "P=8", "L=0", "async"});
  std::array<std::vector<double>, kNumVariants> ratios;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::string> row_cells{dataset[i].name()};
    for (std::size_t k = 0; k < kNumVariants; ++k) {
      const ScheduleResult& res = cell_or_die(cells[i * kNumVariants + k]);
      row_cells.push_back(cost_str(res.baseline_cost) + " / " +
                          cost_str(res.cost));
      ratios[k].push_back(res.cost / res.baseline_cost);
    }
    table.add_row(std::move(row_cells));
  }
  emit(table, "Table 4: baseline / our ILP under alternative parameters",
       config, "table4");
  for (std::size_t k = 0; k < kNumVariants; ++k) {
    print_geomean(ratios[k], kVariants[k].label);
  }
  return 0;
}
