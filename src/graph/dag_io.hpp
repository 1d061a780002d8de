#pragma once
// Serialization for computational DAGs, so instances can be exported,
// archived next to experiment results, and reloaded exactly. Two formats:
//
// Plain text ("mbsp-dag v1"), whitespace-separated, one record per line:
//
//   mbsp-dag v1
//   name <string without newline>
//   nodes <n>
//   <omega> <mu>          # one line per node, id = line index
//   edges <m>
//   <u> <v>               # one line per edge
//
// Weights are printed with enough digits to round-trip doubles. Parse
// errors name the offending line number.
//
// Binary ("mbsp-dag v2"), little-endian regardless of host, for fast,
// verifiable corpus load:
//
//   "MBSPDAG2"            8-byte magic
//   u32 name_len, name bytes
//   u32 n, then n x (f64 omega, f64 mu)
//   u64 m, then m x (u32 u, u32 v)    # u-major, stored children order
//   u64 canonical hash               # footer, verified on load
//
// Both formats preserve child order exactly, so text -> binary -> text is
// bitwise identity. `dag_canonical_hash` is an FNV-1a digest over a
// canonicalized stream (edges sorted per node), identical however the DAG
// was built or loaded. dag_io.cpp writes that stream in one place, a
// hasher with four steps (header, node, edge count, one node's sorted
// children) that dag_canonical_hash, the binary parser and the binary
// encoder all feed, and writes the v2 byte layout in one place too, the
// encoder behind both dag_to_binary and DagStreamWriter.
//
// ## Out-of-core paths (docs/SCALE.md)
//
// DagStreamWriter emits the v2 binary incrementally — counts up front,
// then one add_node / add_edge call per record — holding only the current
// node's child list and a 1 MiB write block in memory, with the canonical
// hash folded in on the fly. Workload generators stream 10^6..10^7-node
// instances through it in O(1) extra memory. The binary read path
// (read_dag_file and dag_from_binary) is the mirror image: it decodes
// chunk-wise straight into the CSR arrays of a CSR-native ComputeDag (see
// ComputeDag::from_csr) without ever materializing per-node std::vectors,
// verifying the hash footer as it goes. Binary parse errors report the byte offset, the
// section being decoded, and the file size.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/dag.hpp"

namespace mbsp {

/// 64-bit FNV-1a over a byte range; `seed` chains multiple ranges.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
std::uint64_t fnv1a_64(const void* data, std::size_t size,
                       std::uint64_t seed = kFnvOffset);

/// FNV-1a over the 8 little-endian bytes of `v` (fnv1a_f64: of its IEEE
/// bits), chained from `seed`: the canonical hash's word step, which
/// instance_delta_hash and trace_canonical_hash chain too.
std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t seed = kFnvOffset);
std::uint64_t fnv1a_f64(double v, std::uint64_t seed = kFnvOffset);

/// Canonical instance hash: digests name, weights and the per-node sorted
/// edge lists, so structurally identical DAGs hash identically no matter
/// the edge insertion order or the format they were loaded from.
std::uint64_t dag_canonical_hash(const ComputeDag& dag);

/// The fixed 16-digit lower-case hex rendering of a canonical hash, used
/// by every harness (corpus CLI, batch tables, benches) so hashes join
/// across CSV artifacts.
std::string dag_hash_hex(std::uint64_t hash);

std::string dag_to_text(const ComputeDag& dag);

/// Parses the v1 text format; returns std::nullopt (and fills *error,
/// naming the offending line) on malformed input, bad ids, or a cycle.
std::optional<ComputeDag> dag_from_text(const std::string& text,
                                        std::string* error = nullptr);

/// The v2 binary encoding (with the canonical hash as integrity footer).
std::string dag_to_binary(const ComputeDag& dag);

/// Parses the v2 binary format; verifies the hash footer.
std::optional<ComputeDag> dag_from_binary(const std::string& bytes,
                                          std::string* error = nullptr);

/// True when `bytes` starts with the v2 magic.
bool is_binary_dag(const std::string& bytes);

/// Auto-detecting parse: v2 when the magic matches, v1 text otherwise.
std::optional<ComputeDag> dag_from_bytes(const std::string& bytes,
                                         std::string* error = nullptr);

bool write_dag_file(const ComputeDag& dag, const std::string& path,
                    bool binary = false);

/// Reads either format (auto-detected by magic). Binary files are decoded
/// chunk-wise straight into a CSR-native ComputeDag — peak memory is the
/// CSR arrays plus an O(max-degree) scratch buffer, never the whole file
/// plus per-node vectors.
std::optional<ComputeDag> read_dag_file(const std::string& path,
                                        std::string* error = nullptr);

/// Streaming consumer of a DAG declaration: counts first, then one call
/// per record. DagStreamWriter is the file-backed implementation; the
/// workload registry layers mu-randomization on top of it (see
/// make_dag_stream). Call order contract: begin, num_nodes x add_node,
/// begin_edges, num_edges x add_edge with nondecreasing u.
class DagSink {
 public:
  virtual ~DagSink() = default;
  virtual void begin(const std::string& name, std::uint64_t num_nodes) = 0;
  virtual void add_node(double omega, double mu) = 0;
  virtual void begin_edges(std::uint64_t num_edges) = 0;
  virtual void add_edge(NodeId u, NodeId v) = 0;
};

/// The v2 encoder (dag_io.cpp) that DagStreamWriter and dag_to_binary share.
class DagEncoder;

/// Incremental v2 binary writer: O(1) memory beyond the current node's
/// child list, canonical FNV-1a hash computed on the fly (bitwise equal to
/// dag_canonical_hash of the equivalent in-memory DAG). Errors (I/O
/// failure, protocol misuse, out-of-range ids, duplicate edges,
/// non-u-major edge order) latch: subsequent calls are no-ops and finish()
/// returns false with the first error message.
class DagStreamWriter final : public DagSink {
 public:
  explicit DagStreamWriter(const std::string& path);
  ~DagStreamWriter() override;
  DagStreamWriter(const DagStreamWriter&) = delete;
  DagStreamWriter& operator=(const DagStreamWriter&) = delete;

  void begin(const std::string& name, std::uint64_t num_nodes) override;
  void add_node(double omega, double mu) override;
  void begin_edges(std::uint64_t num_edges) override;
  void add_edge(NodeId u, NodeId v) override;

  /// Flushes the final node's edges, writes the hash footer and closes the
  /// file. Returns false (with error() set) on any latched error or if the
  /// declared node/edge counts were not met. On success *hash_out (when
  /// non-null) receives the canonical hash.
  bool finish(std::uint64_t* hash_out = nullptr);

  bool ok() const;
  const std::string& error() const;

 private:
  std::unique_ptr<DagEncoder> encoder_;
};

}  // namespace mbsp
