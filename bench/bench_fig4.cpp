// Regenerates Figure 4: the distribution of per-instance cost-reduction
// ratios (ILP / baseline) for the base case and the four parameter
// variants. The paper shows box plots; we print the five-number summary
// per case (an ASCII rendition of the same figure).
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
    {"base", 4, 3.0, 10, "holistic"},
    {"r=5r0", 4, 5.0, 10, "holistic"},
    {"P=8", 8, 3.0, 10, "holistic"},
    {"L=0", 4, 3.0, 0, "holistic"},
    {"async", 4, 3.0, 0, "holistic:cost=async"},
};

std::string ascii_box(double lo, double q1, double med, double q3, double hi) {
  // Render the [0.5, 1.05] ratio range into a 44-char strip.
  const auto pos = [](double x) {
    const int p = static_cast<int>((x - 0.5) / (1.05 - 0.5) * 43.0);
    return std::min(43, std::max(0, p));
  };
  std::string strip(44, ' ');
  for (int c = pos(lo); c <= pos(hi); ++c) strip[c] = '-';
  for (int c = pos(q1); c <= pos(q3); ++c) strip[c] = '=';
  strip[pos(med)] = '#';
  return strip;
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::from_env();
  auto dataset = tiny_dataset(config.seed);
  const std::size_t count = dataset.size();
  constexpr std::size_t kNumVariants = std::size(kVariants);

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

  Table table({"case", "min", "q25", "median", "q75", "max", "geomean",
               "0.5 ........ ratio scale ........ 1.05"});
  for (std::size_t k = 0; k < kNumVariants; ++k) {
    std::vector<double> rs;
    for (std::size_t i = 0; i < count; ++i) {
      const ScheduleResult& res = cell_or_die(cells[i * kNumVariants + k]);
      rs.push_back(res.cost / res.baseline_cost);
    }
    const double lo = quantile(rs, 0), q1 = quantile(rs, 0.25),
                 med = quantile(rs, 0.5), q3 = quantile(rs, 0.75),
                 hi = quantile(rs, 1);
    table.add_row({kVariants[k].label, fmt(lo, 2), fmt(q1, 2), fmt(med, 2),
                   fmt(q3, 2), fmt(hi, 2), fmt(geometric_mean(rs), 2),
                   ascii_box(lo, q1, med, q3, hi)});
  }
  emit(table,
       "Figure 4: distribution of cost-reduction ratios (ILP / baseline)",
       config, "fig4");
  return 0;
}
