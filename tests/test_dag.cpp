// Unit tests for the DAG container and topological utilities.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/graph/dag.hpp"
#include "src/graph/dag_io.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/topology.hpp"
#include "src/holistic/repair.hpp"
#include "src/workload/trace.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp {
namespace {

ComputeDag diamond() {
  // 0 -> {1, 2} -> 3
  ComputeDag dag("diamond");
  for (int i = 0; i < 4; ++i) dag.add_node(1, 1);
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  return dag;
}

TEST(Dag, BasicStructure) {
  const ComputeDag dag = diamond();
  EXPECT_EQ(dag.num_nodes(), 4);
  EXPECT_EQ(dag.num_edges(), 4u);
  EXPECT_TRUE(dag.is_source(0));
  EXPECT_TRUE(dag.is_sink(3));
  EXPECT_EQ(dag.parents(3).size(), 2u);
  EXPECT_EQ(dag.children(0).size(), 2u);
  EXPECT_EQ(dag.sources(), std::vector<NodeId>{0});
  EXPECT_EQ(dag.sinks(), std::vector<NodeId>{3});
}

TEST(Dag, DuplicateEdgeIgnored) {
  ComputeDag dag;
  dag.add_node();
  dag.add_node();
  dag.add_edge(0, 1);
  dag.add_edge(0, 1);
  EXPECT_EQ(dag.num_edges(), 1u);
}

TEST(Dag, DuplicateEdgeLeavesAdjacencyUntouched) {
  // Idempotence must hold on both adjacency sides, not just the counter.
  ComputeDag dag;
  for (int i = 0; i < 3; ++i) dag.add_node();
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  dag.add_edge(0, 2);  // duplicate, interleaved with distinct edges
  dag.add_edge(0, 2);
  EXPECT_EQ(dag.num_edges(), 2u);
  EXPECT_EQ(dag.children(0).size(), 1u);
  EXPECT_EQ(dag.parents(2).size(), 2u);
  EXPECT_EQ(dag.children(1).size(), 1u);
}

TEST(Dag, NumEdgesAccountsEveryDistinctEdge) {
  // num_edges() must track distinct insertions exactly under a mix of
  // fresh and repeated add_edge calls.
  ComputeDag dag;
  constexpr int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) dag.add_node();
  std::size_t distinct = 0;
  for (int round = 0; round < 3; ++round) {  // re-add the full edge set
    for (int u = 0; u < kNodes; ++u) {
      for (int v = u + 1; v < kNodes; ++v) {
        if ((u + v) % 2 == 0) continue;
        dag.add_edge(u, v);
        if (round == 0) ++distinct;
      }
    }
  }
  EXPECT_EQ(dag.num_edges(), distinct);
}

TEST(Dag, Weights) {
  ComputeDag dag;
  const NodeId v = dag.add_node(2.5, 3.5);
  EXPECT_DOUBLE_EQ(dag.omega(v), 2.5);
  EXPECT_DOUBLE_EQ(dag.mu(v), 3.5);
  dag.set_omega(v, 1);
  dag.set_mu(v, 2);
  EXPECT_DOUBLE_EQ(dag.total_omega(), 1);
  EXPECT_DOUBLE_EQ(dag.total_mu(), 2);
}

TEST(Dag, RandomMemoryWeightsInRange) {
  ComputeDag dag;
  for (int i = 0; i < 100; ++i) dag.add_node();
  Rng rng(3);
  assign_random_memory_weights(dag, rng, 1, 5);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_GE(dag.mu(v), 1);
    EXPECT_LE(dag.mu(v), 5);
  }
}

TEST(Dag, DotOutputContainsNodes) {
  const std::string dot = diamond().to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Topology, TopologicalOrderRespectsEdges) {
  const ComputeDag dag = diamond();
  const auto order = topological_order(dag);
  ASSERT_EQ(order.size(), 4u);
  const auto pos = order_positions(order, dag.num_nodes());
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) EXPECT_LT(pos[u], pos[v]);
  }
}

TEST(Topology, AcyclicCheck) {
  EXPECT_TRUE(is_acyclic(diamond()));
  ComputeDag empty;
  EXPECT_TRUE(is_acyclic(empty));
}

TEST(Topology, Levels) {
  const auto levels = longest_path_levels(diamond());
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], 1);
  EXPECT_EQ(levels[3], 2);
}

TEST(Topology, CriticalPathOmega) {
  ComputeDag dag;
  dag.add_node(1, 1);
  dag.add_node(5, 1);
  dag.add_node(2, 1);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(critical_path_omega(dag), 8.0);
}

TEST(Topology, InducedSubdag) {
  const ComputeDag dag = diamond();
  std::vector<NodeId> local;
  const ComputeDag sub = induced_subdag(dag, {0, 1, 3}, &local);
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 2u);  // 0->1 and 1->3 survive
  EXPECT_EQ(local[2], kInvalidNode);
}

TEST(Topology, QuotientGraph) {
  const ComputeDag dag = diamond();
  const std::vector<int> part{0, 0, 1, 1};
  const ComputeDag q = quotient_graph(dag, part, 2);
  EXPECT_EQ(q.num_nodes(), 2);
  EXPECT_EQ(q.num_edges(), 1u);  // 0 -> 1 (edges 0->2 and 1->3 merge)
  EXPECT_DOUBLE_EQ(q.omega(0), 2.0);
  EXPECT_TRUE(is_acyclic(q));
}

TEST(Topology, CutEdges) {
  const ComputeDag dag = diamond();
  EXPECT_EQ(cut_edges(dag, {0, 0, 1, 1}), 2u);
  EXPECT_EQ(cut_edges(dag, {0, 0, 0, 0}), 0u);
}

TEST(DagIo, RoundTripPreservesEverything) {
  Rng rng(21);
  ComputeDag original = spmv_dag(7, 3, rng, "roundtrip demo");
  assign_random_memory_weights(original, rng);
  original.set_omega(2, 1.25e-3);  // exercise double round-tripping
  std::string error;
  const auto parsed = dag_from_text(dag_to_text(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name(), original.name());
  ASSERT_EQ(parsed->num_nodes(), original.num_nodes());
  EXPECT_EQ(parsed->num_edges(), original.num_edges());
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(parsed->omega(v), original.omega(v));
    EXPECT_DOUBLE_EQ(parsed->mu(v), original.mu(v));
    EXPECT_EQ(parsed->children(v), original.children(v));
  }
}

TEST(DagIo, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(dag_from_text("garbage", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 1\n1 1\nedges 1\n0 5\n",
                    &error)
          .has_value());
  EXPECT_NE(error.find("edge"), std::string::npos);
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 2\n1 1\n1 1\nedges 2\n"
                    "0 1\n0 1\n",
                    &error)
          .has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(DagIo, FileRoundTrip) {
  ComputeDag dag("file demo");
  dag.add_node(1, 2);
  dag.add_node(3, 4);
  dag.add_edge(0, 1);
  const std::string path = ::testing::TempDir() + "/mbsp_dag_io_test.dag";
  ASSERT_TRUE(write_dag_file(dag, path));
  std::string error;
  const auto loaded = read_dag_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_nodes(), 2);
  EXPECT_DOUBLE_EQ(loaded->mu(1), 4);
  EXPECT_FALSE(read_dag_file(path + ".missing").has_value());
}

TEST(DagIo, ErrorsNameTheOffendingLine) {
  std::string error;
  // Truncated node list: 3 declared, only 1 weight line present.
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 3\n1 1\n", &error)
          .has_value());
  EXPECT_NE(error.find("after line 4"), std::string::npos) << error;
  EXPECT_NE(error.find("3 node weight lines, got 1"), std::string::npos)
      << error;
  // Bad node weight line: line 4 is not "<omega> <mu>".
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 1\noops\nedges 0\n", &error)
          .has_value());
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  // Edge id out of range, naming line 6.
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 2\n1 1\n1 1\nedges 1\n0 5\n",
                    &error)
          .has_value());
  EXPECT_NE(error.find("line 7"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  // Truncated edge list.
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 2\n1 1\n1 1\nedges 2\n0 1\n",
                    &error)
          .has_value());
  EXPECT_NE(error.find("2 edge lines, got 1"), std::string::npos) << error;
  // Self-loop.
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 2\n1 1\n1 1\nedges 1\n1 1\n",
                    &error)
          .has_value());
  EXPECT_NE(error.find("self-loop"), std::string::npos) << error;
  // Trailing tokens on node and edge lines are rejected, not ignored.
  EXPECT_FALSE(
      dag_from_text("mbsp-dag v1\nname x\nnodes 1\n1 1 bogus\nedges 0\n",
                    &error)
          .has_value());
  EXPECT_NE(error.find("bad node weight"), std::string::npos) << error;
  EXPECT_FALSE(
      dag_from_text(
          "mbsp-dag v1\nname x\nnodes 3\n1 1\n1 1\n1 1\nedges 2\n0 1 0 2\n",
          &error)
          .has_value());
  EXPECT_NE(error.find("bad edge line"), std::string::npos) << error;
}

TEST(DagIo, BinaryRoundTripPreservesEverything) {
  Rng rng(33);
  ComputeDag original = spmv_dag(6, 3, rng, "binary roundtrip");
  assign_random_memory_weights(original, rng);
  original.set_omega(1, 6.02214076e23);
  const std::string bytes = dag_to_binary(original);
  ASSERT_TRUE(is_binary_dag(bytes));
  std::string error;
  const auto parsed = dag_from_binary(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(dag_to_text(*parsed), dag_to_text(original));
  EXPECT_EQ(dag_canonical_hash(*parsed), dag_canonical_hash(original));
}

TEST(DagIo, TextBinaryTextPropertyRoundTrip) {
  // Property: any generated DAG survives text -> binary -> text bitwise
  // identically, and the canonical hash is stable at every hop.
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    ComputeDag dag = random_layered_dag(30 + trial * 7, 3 + trial % 4, rng);
    assign_random_memory_weights(dag, rng);
    dag.set_name("prop " + std::to_string(trial));
    const std::uint64_t hash = dag_canonical_hash(dag);
    const std::string text = dag_to_text(dag);
    std::string error;
    const auto from_text = dag_from_text(text, &error);
    ASSERT_TRUE(from_text.has_value()) << error;
    EXPECT_EQ(dag_canonical_hash(*from_text), hash);
    const std::string bytes = dag_to_binary(*from_text);
    const auto from_binary = dag_from_binary(bytes, &error);
    ASSERT_TRUE(from_binary.has_value()) << error;
    EXPECT_EQ(dag_canonical_hash(*from_binary), hash);
    EXPECT_EQ(dag_to_text(*from_binary), text);
    // Auto-detection picks the right parser for both encodings.
    EXPECT_TRUE(dag_from_bytes(bytes).has_value());
    EXPECT_TRUE(dag_from_bytes(text).has_value());
  }
}

TEST(DagIo, CanonicalHashIgnoresEdgeInsertionOrder) {
  ComputeDag a("same"), b("same");
  for (int i = 0; i < 3; ++i) a.add_node(1, 2);
  for (int i = 0; i < 3; ++i) b.add_node(1, 2);
  a.add_edge(0, 1);
  a.add_edge(0, 2);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  EXPECT_EQ(dag_canonical_hash(a), dag_canonical_hash(b));
  ComputeDag c("different");
  for (int i = 0; i < 3; ++i) c.add_node(1, 2);
  c.add_edge(0, 1);
  c.add_edge(0, 2);
  EXPECT_NE(dag_canonical_hash(a), dag_canonical_hash(c));
}

TEST(DagIo, CorruptedBinaryRejected) {
  ComputeDag dag("corrupt me");
  dag.add_node(1, 2);
  dag.add_node(3, 4);
  dag.add_edge(0, 1);
  std::string bytes = dag_to_binary(dag);
  std::string error;
  // Flip one weight byte: the stored canonical hash no longer matches.
  std::string flipped = bytes;
  flipped[14] = static_cast<char>(flipped[14] ^ 0x40);
  EXPECT_FALSE(dag_from_binary(flipped, &error).has_value());
  // Truncation is caught by the bounds-checked reader.
  EXPECT_FALSE(
      dag_from_binary(bytes.substr(0, bytes.size() - 3), &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  // Not a binary DAG at all.
  EXPECT_FALSE(dag_from_binary("garbage", &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(DagIo, BinaryFileRoundTrip) {
  Rng rng(17);
  ComputeDag dag = spmv_dag(5, 3, rng, "binary file demo");
  const std::string path = ::testing::TempDir() + "/mbsp_dag_io_test.bin";
  ASSERT_TRUE(write_dag_file(dag, path, /*binary=*/true));
  std::string error;
  const auto loaded = read_dag_file(path, &error);  // auto-detected
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(dag_to_text(*loaded), dag_to_text(dag));
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Pins the codec to recorded values: the canonical hash, the v2 bytes (via
// their FNV-1a digest), the streamed file, the delta hash and the trace
// hash. These are instance identities (corpus rows, cache keys, file
// footers), so any change here is a format break, never a re-recording.
TEST(DagIo, CodecMatchesRecordedHashesAndBytes) {
  struct Pinned {
    std::string label;
    ComputeDag dag;
    const char* hash_hex;
    std::uint64_t bytes_fnv;
  };
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const auto make = [&](const std::string& spec, std::uint64_t seed) {
    std::string error;
    auto dag = registry.make_dag(spec, seed, &error);
    EXPECT_TRUE(dag.has_value()) << spec << ": " << error;
    return dag.value_or(ComputeDag{});
  };
  std::string error;
  // Empty name, children listed out of order (0: 3 1 2; 1: 3 2).
  const auto text_dag = dag_from_text(
      "mbsp-dag v1\nname\nnodes 4\n1 2\n0.5 1e-3\n3 0\n2.25 7\n"
      "edges 5\n0 3\n0 1\n0 2\n1 3\n1 2\n",
      &error);
  ASSERT_TRUE(text_dag.has_value()) << error;
  std::vector<Pinned> pinned = {
      {"stencil2d", make("stencil2d:nx=4,ny=4,steps=2", 1),
       "35accded1afaf987", 0x9b42ef7dc004e34dull},
      {"fft", make("fft:n=8", 1), "7c6fbfa31a80760b", 0x757b7a387922287aull},
      {"lu", make("lu:blocks=3", 1), "8ad135074c97dc3d", 0x12165ee426520e83ull},
      {"random-layered", make("random-layered:nodes=40,width=5", 7),
       "733f528f8a1527c7", 0x3b0998d79b5ae8f6ull},
      {"text", *text_dag, "998a228ba8ab83a1", 0xdadfe7ba99a22828ull},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.label);
    const std::string bytes = dag_to_binary(p.dag);
    EXPECT_EQ(dag_hash_hex(dag_canonical_hash(p.dag)), p.hash_hex);
    EXPECT_EQ(fnv1a_64(bytes.data(), bytes.size()), p.bytes_fnv);
    const std::string path =
        ::testing::TempDir() + "/mbsp_codec_pin_" + p.label + ".bin";
    ASSERT_TRUE(write_dag_file(p.dag, path, /*binary=*/true));
    EXPECT_EQ(slurp_file(path), bytes);
  }
  // The generators' streaming emitters go through the same writer: each
  // streamed file (children in emission order, so its bytes differ from
  // the in-memory DAG's) re-encodes bitwise after a load.
  const std::pair<std::size_t, std::uint64_t> streamed[] = {
      {0, 0xa87611ead7278fcdull}, {1, 0xeed6a97f8b002c7aull}};
  for (const auto& [i, bytes_fnv] : streamed) {
    SCOPED_TRACE(pinned[i].label + " streamed");
    const std::string path = ::testing::TempDir() + "/mbsp_codec_pin_s.bin";
    DagStreamWriter writer(path);
    ASSERT_TRUE(registry.make_dag_stream(pinned[i].dag.name(), 1, writer,
                                         &error))
        << error;
    std::uint64_t hash = 0;
    ASSERT_TRUE(writer.finish(&hash)) << writer.error();
    EXPECT_EQ(dag_hash_hex(hash), pinned[i].hash_hex);
    const std::string bytes = slurp_file(path);
    EXPECT_EQ(fnv1a_64(bytes.data(), bytes.size()), bytes_fnv);
    const auto loaded = read_dag_file(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(dag_to_binary(*loaded), bytes);
  }

  InstanceDelta delta;
  delta.add_node(2.5, 0.75);
  delta.add_edge(3, 4);
  delta.set_node_weight(1, 4, 1.5);
  delta.drop_processor(2);
  delta.shrink_memory(0, 12.5);
  EXPECT_EQ(dag_hash_hex(instance_delta_hash(delta, kFnvOffset)),
            "1e639bd0535f3104");

  const auto trace =
      make_trace("trace-mixed:base=random-layered,events=6,batch=2", 5,
                 "uniform:P=4", &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(dag_hash_hex(trace_canonical_hash(*trace)), "e4ef80909c9a1fe9");
}

TEST(Topology, RandomLayeredDagAcyclic) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const ComputeDag dag = random_layered_dag(60, 5, rng);
    EXPECT_EQ(dag.num_nodes(), 60);
    EXPECT_TRUE(is_acyclic(dag));
  }
}

}  // namespace
}  // namespace mbsp
