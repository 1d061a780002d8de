// Corpus CLI: the command-line face of the workload subsystem. Generates
// any registered family from a spec string, converts between the text (v1)
// and binary (v2) DAG formats, prints canonical instance hashes, and
// drives the parallel BatchRunner over workload x scheduler grids.
//
//   corpus list
//   corpus describe [family]
//   corpus generate <spec> [--seed n] [-o out.dag] [--binary] [--stream]
//   corpus hash <file-or-spec> ...
//   corpus convert <in> <out> [--text | --binary]
//   corpus sweep --workload spec [--workload spec ...]
//               [--machine spec ...] [--list-machines]
//               [--schedulers spec,...] [--P n] [--r-factor x]
//               [--g x] [--L x] [--cost sync|async] [--seed n]
//               [--budget-ms x] [--max-iterations n] [--threads n]
//               [--wall] [--csv path]
//
// Specs are `family` or `family:key=value,...` (see `corpus describe`).
// `--machine` runs every workload on each named machine model (shared
// grammar, see docs/MACHINES.md; `sweep --list-machines` lists the
// registered kinds); without it the legacy --P/--r-factor/--g/--L flags
// build one ad-hoc uniform machine. Sweeps default to budget_ms = 0 with
// a finite iteration cap, so the result table is bitwise identical for
// any thread count and machine.
//
// `generate --stream` emits the binary through the out-of-core writer
// (docs/SCALE.md): O(1) memory, so 10^6..10^7-node instances fit in a few
// hundred MB of RSS. `sweep --schedulers sharded:shards=k` sizes the
// "sharded" scheduler's partition (scheduler specs: docs/CLI.md).
//
// Examples:
//   corpus generate stencil2d:nx=16,ny=16,steps=4 -o stencil.dag --binary
//   corpus convert stencil.dag stencil.txt
//   corpus hash stencil.dag stencil.txt fft:n=16
//   corpus sweep --workload lu:blocks=4 --workload fft:n=16 \
//                --schedulers bspg+clairvoyant,cilk+lru,lns

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "include/mbsp/mbsp.hpp"

namespace {

using namespace mbsp;

int usage() {
  std::fprintf(
      stderr,
      "usage: corpus <command> ...\n"
      "  list                         registered workload families\n"
      "  describe [family]            family parameters and defaults\n"
      "  generate <spec> [--seed n] [-o out.dag] [--binary] [--stream]\n"
      "                               --stream: O(1)-memory binary writer\n"
      "  hash <file-or-spec> ...      canonical instance hashes\n"
      "  convert <in> <out> [--text | --binary]\n"
      "  sweep --workload spec [--workload spec ...]\n"
      "        [--machine spec ...] [--list-machines]\n"
      "        [--schedulers spec,...] [--P n] [--r-factor x]\n"
      "        [--g x] [--L x] [--cost sync|async] [--seed n]\n"
      "        [--budget-ms x] [--max-iterations n] [--threads n]\n"
      "        [--wall] [--csv path]\n");
  return 2;
}

void describe_family(const WorkloadFamily& family) {
  std::printf("%s — %s\n", family.name().c_str(),
              family.description().c_str());
  for (const WorkloadParamInfo& p : family.params()) {
    std::printf("  %-10s default %-6s %s\n", p.key.c_str(),
                p.default_value.empty() ? "-" : p.default_value.c_str(),
                p.help.c_str());
  }
  std::printf("  %-10s default %-6s %s\n", "mu", "rand",
              "memory weights: rand (uniform {1..5}) or unit");
}

/// Loads `arg` as a DAG file when one exists at that path, otherwise
/// treats it as a workload spec.
std::optional<ComputeDag> load_file_or_spec(const std::string& arg,
                                            std::uint64_t seed,
                                            std::string* error) {
  if (std::ifstream(arg).good()) return read_dag_file(arg, error);
  return WorkloadRegistry::global().make_dag(arg, seed, error);
}

int cmd_list() {
  for (const std::string& name : WorkloadRegistry::global().names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_describe(int argc, char** argv) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  if (argc > 0) {
    const WorkloadFamily* family = registry.find(argv[0]);
    if (family == nullptr) {
      std::fprintf(stderr, "unknown workload family '%s' (see corpus list)\n",
                   argv[0]);
      return 2;
    }
    describe_family(*family);
    return 0;
  }
  for (const std::string& name : registry.names()) {
    describe_family(registry.at(name));
  }
  return 0;
}

int cmd_generate(int argc, char** argv) {
  std::string spec, out_path;
  std::uint64_t seed = 2025;
  bool binary = false;
  bool stream = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--binary") {
      binary = true;
    } else if (arg == "--stream") {
      stream = true;
    } else if (spec.empty() && arg[0] != '-') {
      spec = arg;
    } else {
      return usage();
    }
  }
  if (spec.empty()) return usage();
  if (binary && out_path.empty()) {
    std::fprintf(stderr, "--binary requires -o <file> (stdout is text)\n");
    return 2;
  }
  if (stream) {
    // Out-of-core path: never materializes the DAG, emits the binary
    // incrementally (docs/SCALE.md). Same (spec, seed) -> same canonical
    // hash as the in-memory path below.
    if (out_path.empty()) {
      std::fprintf(stderr, "--stream requires -o <file> (binary only)\n");
      return 2;
    }
    std::string error;
    DagStreamWriter writer(out_path);
    if (!WorkloadRegistry::global().make_dag_stream(spec, seed, writer,
                                                    &error)) {
      std::fprintf(stderr, "cannot stream '%s': %s\n", spec.c_str(),
                   error.c_str());
      return 1;
    }
    std::uint64_t hash = 0;
    if (!writer.finish(&hash)) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                   writer.error().c_str());
      return 1;
    }
    std::printf("%s  %s  (streamed binary)\n", dag_hash_hex(hash).c_str(),
                out_path.c_str());
    return 0;
  }
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(spec, seed, &error);
  if (!dag) {
    std::fprintf(stderr, "cannot generate '%s': %s\n", spec.c_str(),
                 error.c_str());
    return 1;
  }
  if (out_path.empty()) {
    std::fputs(dag_to_text(*dag).c_str(), stdout);
  } else if (!write_dag_file(*dag, out_path, binary)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  } else {
    std::printf("%s  %s  (%d nodes, %zu edges, %s)\n",
                dag_hash_hex(dag_canonical_hash(*dag)).c_str(), out_path.c_str(),
                dag->num_nodes(), dag->num_edges(),
                binary ? "binary" : "text");
  }
  return 0;
}

int cmd_hash(int argc, char** argv) {
  std::uint64_t seed = 2025;
  std::vector<std::string> targets;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) return usage();
  int failures = 0;
  for (const std::string& target : targets) {
    std::string error;
    const auto dag = load_file_or_spec(target, seed, &error);
    if (!dag) {
      std::fprintf(stderr, "%s: %s\n", target.c_str(), error.c_str());
      ++failures;
      continue;
    }
    std::printf("%s  %s  %s\n", dag_hash_hex(dag_canonical_hash(*dag)).c_str(),
                dag->name().c_str(), target.c_str());
  }
  return failures == 0 ? 0 : 1;
}

int cmd_convert(int argc, char** argv) {
  std::string in_path, out_path;
  int format = -1;  // -1 auto (flip), 0 text, 1 binary
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--text") {
      format = 0;
    } else if (arg == "--binary") {
      format = 1;
    } else if (in_path.empty()) {
      in_path = arg;
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      return usage();
    }
  }
  if (in_path.empty() || out_path.empty()) return usage();
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  std::string error;
  const auto dag = dag_from_bytes(bytes, &error);
  if (!dag) {
    std::fprintf(stderr, "cannot parse %s: %s\n", in_path.c_str(),
                 error.c_str());
    return 1;
  }
  const bool to_binary = format == -1 ? !is_binary_dag(bytes) : format == 1;
  if (!write_dag_file(*dag, out_path, to_binary)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s  %s -> %s (%s)\n",
              dag_hash_hex(dag_canonical_hash(*dag)).c_str(), in_path.c_str(),
              out_path.c_str(), to_binary ? "binary" : "text");
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  std::vector<std::string> workloads;
  std::vector<std::string> machines;
  std::vector<std::string> schedulers{"bspg+clairvoyant", "cilk+lru",
                                      "holistic"};
  std::string csv_path;
  int P = 4;
  double r_factor = 3.0, g = 1.0, L = 10.0;
  std::uint64_t seed = 2025;
  bool wall = false;
  BatchOptions batch;
  // Deterministic by default: iteration-capped instead of wall-clocked.
  batch.scheduler.budget_ms = 0;
  batch.scheduler.max_iterations = 20'000;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workloads.push_back(value());
    } else if (arg == "--machine") {
      machines.push_back(value());
    } else if (arg == "--list-machines") {
      for (const std::string& name : MachineRegistry::global().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--schedulers") {
      schedulers = split_scheduler_list(value());
      for (const std::string& spec : schedulers) {  // fail before any work
        try {
          SchedulerRegistry::global().at(resolve_scheduler_spec(spec).name);
        } catch (const std::logic_error& e) {
          std::fprintf(stderr, "--schedulers: %s\n", e.what());
          return 2;
        }
      }
    } else if (arg == "--P") {
      P = std::atoi(value());
    } else if (arg == "--r-factor") {
      r_factor = std::atof(value());
    } else if (arg == "--g") {
      g = std::atof(value());
    } else if (arg == "--L") {
      L = std::atof(value());
    } else if (arg == "--cost") {
      const std::string cost = value();
      if (cost != "sync" && cost != "async") return usage();
      batch.scheduler.cost = cost == "sync" ? CostModel::kSynchronous
                                            : CostModel::kAsynchronous;
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--budget-ms") {
      batch.scheduler.budget_ms = std::atof(value());
    } else if (arg == "--max-iterations") {
      batch.scheduler.max_iterations = std::atol(value());
    } else if (arg == "--threads") {
      batch.threads = static_cast<std::size_t>(std::atol(value()));
    } else if (arg == "--wall") {
      wall = true;
    } else if (arg == "--csv") {
      csv_path = value();
    } else {
      return usage();
    }
  }
  if (workloads.empty()) {
    std::fprintf(stderr, "sweep needs at least one --workload spec\n");
    return 2;
  }
  std::vector<MbspInstance> instances;
  instances.reserve(workloads.size() * std::max<std::size_t>(
                                           1, machines.size()));
  for (const std::string& spec : workloads) {
    if (machines.empty()) {
      std::string error;
      auto inst = WorkloadRegistry::global().make_instance(spec, seed, P,
                                                           r_factor, g, L,
                                                           &error);
      if (!inst) {
        std::fprintf(stderr, "cannot generate '%s': %s\n", spec.c_str(),
                     error.c_str());
        return 1;
      }
      instances.push_back(std::move(*inst));
      continue;
    }
    // One instance per (workload, machine): the DAG is generated once and
    // sized per machine from its own min_memory_r0.
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag(spec, seed, &error);
    if (!dag) {
      std::fprintf(stderr, "cannot generate '%s': %s\n", spec.c_str(),
                   error.c_str());
      return 1;
    }
    const double r0 = min_memory_r0(*dag);
    for (const std::string& machine_spec : machines) {
      auto machine = MachineRegistry::global().make_machine(machine_spec, r0,
                                                            &error);
      if (!machine) {
        std::fprintf(stderr, "bad --machine '%s': %s\n", machine_spec.c_str(),
                     error.c_str());
        return 2;
      }
      instances.push_back({*dag, std::move(*machine)});
    }
  }
  const std::vector<BatchCell> cells =
      BatchRunner(batch).run_grid(instances, schedulers);
  const Table table = batch_table(cells, wall, /*include_hash=*/true);
  const std::string title =
      machines.empty()
          ? "corpus sweep: " + std::to_string(instances.size()) +
                " workloads x " + std::to_string(schedulers.size()) +
                " schedulers (P=" + std::to_string(P) + ")"
          : "corpus sweep: " + std::to_string(workloads.size()) +
                " workloads x " + std::to_string(machines.size()) +
                " machines x " + std::to_string(schedulers.size()) +
                " schedulers";
  std::fputs(table.to_text(title).c_str(), stdout);
  if (!csv_path.empty() && !table.write_csv(csv_path)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const BatchCell& cell : cells) failures += !cell.ok;
  if (failures > 0) {
    std::printf("%d of %zu cells failed or were unsupported\n", failures,
                cells.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  argc -= 2;
  argv += 2;
  if (command == "list") return cmd_list();
  if (command == "describe") return cmd_describe(argc, argv);
  if (command == "generate") return cmd_generate(argc, argv);
  if (command == "hash") return cmd_hash(argc, argv);
  if (command == "convert") return cmd_convert(argc, argv);
  if (command == "sweep") return cmd_sweep(argc, argv);
  return usage();
}
