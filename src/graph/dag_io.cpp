#include "src/graph/dag_io.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/graph/topology.hpp"
#include "src/util/little_endian.hpp"

namespace mbsp {

namespace {

constexpr char kBinaryMagic[8] = {'M', 'B', 'S', 'P', 'D', 'A', 'G', '2'};
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// DagStreamWriter hands its encoding to the file in blocks of this size.
constexpr std::size_t kWriteBlock = std::size_t{1} << 20;

std::string format_weight(double w) {
  char buf[64];
  // %.17g round-trips IEEE doubles; trim to plain form where possible.
  std::snprintf(buf, sizeof(buf), "%.17g", w);
  return buf;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Byte supplier for the chunked binary parser: a file or an in-memory
/// string, with the total size known up front and the running offset
/// tracked so parse errors can name the exact byte position.
class Feed {
 public:
  virtual ~Feed() = default;
  /// Copies up to `size` bytes into `out`; returns the count delivered
  /// (short only at end of input).
  virtual std::size_t read(void* out, std::size_t size) = 0;
  std::size_t pos() const { return pos_; }
  std::size_t size() const { return size_; }
  std::size_t remaining() const { return size_ - pos_; }

 protected:
  std::size_t pos_ = 0;
  std::size_t size_ = 0;
};

class StringFeed final : public Feed {
 public:
  explicit StringFeed(const std::string& bytes) : bytes_(bytes) {
    size_ = bytes.size();
  }
  std::size_t read(void* out, std::size_t size) override {
    const std::size_t take = std::min(size, bytes_.size() - pos_);
    std::copy_n(bytes_.data() + pos_, take, static_cast<char*>(out));
    pos_ += take;
    return take;
  }

 private:
  const std::string& bytes_;
};

class FileFeed final : public Feed {
 public:
  /// Takes ownership of `file` (must be open, positioned at 0).
  FileFeed(std::FILE* file, std::size_t file_size) : file_(file) {
    size_ = file_size;
    buffer_.resize(1u << 20);
    std::setvbuf(file_, buffer_.data(), _IOFBF, buffer_.size());
  }
  ~FileFeed() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  std::size_t read(void* out, std::size_t size) override {
    const std::size_t got = std::fread(out, 1, size, file_);
    pos_ += got;
    return got;
  }

 private:
  std::FILE* file_;
  std::vector<char> buffer_;
};

template <typename T>
std::uint64_t fnv1a_word(T v, std::uint64_t seed) {
  unsigned char b[sizeof(T)];
  store_le(b, v);
  return fnv1a_64(b, sizeof(b), seed);
}

/// The canonical instance hash (docs/FORMATS.md), written once. FNV-1a
/// over four little-endian steps, fed in this order:
///   header      name bytes, u32 0 (name terminator), u32 n
///   node        f64 omega, f64 mu                  (n times, id order)
///   edge count  u64 m
///   children    u32 u, u32 v per child v ascending (per node u, id order)
/// dag_canonical_hash, the v2 parser and the v2 encoder all feed it, so
/// they agree however the child lists are stored.
class CanonicalHasher {
 public:
  void header(const std::string& name, std::uint32_t n) {
    hash_ = fnv1a_64(name.data(), name.size(), hash_);
    hash_ = fnv1a_word(n, fnv1a_word(std::uint32_t{0}, hash_));
  }
  void node(double omega, double mu) {
    hash_ = fnv1a_f64(mu, fnv1a_f64(omega, hash_));
  }
  void edge_count(std::uint64_t m) { hash_ = fnv1a_u64(m, hash_); }
  /// Folds in u's children in ascending order. Returns a child listed
  /// twice (the value is then meaningless), or kInvalidNode.
  NodeId children(NodeId u, ComputeDag::AdjSpan listed) {
    sorted_.assign(listed.begin(), listed.end());
    std::sort(sorted_.begin(), sorted_.end());
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
      if (i > 0 && sorted_[i] == sorted_[i - 1]) return sorted_[i];
      hash_ = fnv1a_word(static_cast<std::uint32_t>(u), hash_);
      hash_ = fnv1a_word(static_cast<std::uint32_t>(sorted_[i]), hash_);
    }
    return kInvalidNode;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
  std::vector<NodeId> sorted_;  // reused per-node scratch
};

/// Walks an in-memory DAG into `sink` in the DagSink call order, children
/// in stored order: the one emit loop behind dag_to_binary and
/// write_dag_file.
void emit_dag(const ComputeDag& dag, DagSink& sink) {
  sink.begin(dag.name(), static_cast<std::uint64_t>(dag.num_nodes()));
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    sink.add_node(dag.omega(v), dag.mu(v));
  }
  sink.begin_edges(dag.num_edges());
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) sink.add_edge(u, v);
  }
}

/// Chunked v2 binary parser shared by the in-memory and file paths.
/// Decodes straight into CSR arrays (no per-node vectors), folds the
/// canonical hash in on the fly, and reports byte offset + section + file
/// size on truncation or corruption.
std::optional<ComputeDag> parse_binary_stream(Feed& in, std::string* error) {
  CanonicalHasher hasher;

  // Error helpers: every message carries the byte offset where decoding
  // stopped, the section being decoded, and the file size.
  const auto at = [&](const std::string& message, const char* section) {
    return message + " (at byte offset " + std::to_string(in.pos()) +
           ", section '" + section + "', file size " +
           std::to_string(in.size()) + " bytes)";
  };
  const auto truncated = [&](const char* section, std::uint64_t need) {
    fail(error, at("truncated file: " + std::to_string(need) +
                       " more byte(s) expected",
                   section));
    return std::nullopt;
  };
  // Reads exactly `size` bytes or reports truncation of `section`.
  const auto read_exact = [&](void* out, std::size_t size,
                              const char* section) {
    return in.read(out, size) == size ? true
                                      : (fail(error, at("truncated file: " +
                                                            std::to_string(
                                                                size) +
                                                            " more byte(s) "
                                                            "expected",
                                                        section)),
                                         false);
  };

  unsigned char scratch[8];
  char magic[8];
  if (!read_exact(magic, sizeof(magic), "magic")) return std::nullopt;
  if (!std::equal(magic, magic + sizeof(magic), kBinaryMagic)) {
    fail(error, "missing 'MBSPDAG2' magic (not a binary DAG)");
    return std::nullopt;
  }

  if (!read_exact(scratch, 4, "name length")) return std::nullopt;
  const std::uint32_t name_len = load_le<std::uint32_t>(scratch);
  if (name_len > in.remaining()) return truncated("name", name_len);
  std::string name(name_len, '\0');
  if (!read_exact(name.data(), name_len, "name")) return std::nullopt;

  if (!read_exact(scratch, 4, "node count")) return std::nullopt;
  const std::uint32_t n = load_le<std::uint32_t>(scratch);
  hasher.header(name, n);
  if (static_cast<std::uint64_t>(n) * 16 > in.remaining()) {
    return truncated("node weights", static_cast<std::uint64_t>(n) * 16);
  }

  std::vector<double> omega, mu;
  omega.reserve(n);
  mu.reserve(n);
  {
    // Decode node weights in fixed-size chunks (16 bytes per node).
    constexpr std::size_t kNodesPerChunk = 4096;
    std::vector<unsigned char> chunk(kNodesPerChunk * 16);
    std::uint32_t done = 0;
    while (done < n) {
      const std::size_t batch =
          std::min<std::size_t>(kNodesPerChunk, n - done);
      if (!read_exact(chunk.data(), batch * 16, "node weights")) {
        return std::nullopt;
      }
      for (std::size_t i = 0; i < batch; ++i) {
        omega.push_back(std::bit_cast<double>(
            load_le<std::uint64_t>(chunk.data() + i * 16)));
        mu.push_back(std::bit_cast<double>(
            load_le<std::uint64_t>(chunk.data() + i * 16 + 8)));
        hasher.node(omega.back(), mu.back());
      }
      done += static_cast<std::uint32_t>(batch);
    }
  }

  if (!read_exact(scratch, 8, "edge count")) return std::nullopt;
  const std::uint64_t m = load_le<std::uint64_t>(scratch);
  hasher.edge_count(m);
  if (m * 8 > in.remaining()) return truncated("edges", m * 8);

  // Stream edges straight into the successor CSR. The format is u-major
  // (see the header comment), which lets us fill offsets in one pass and
  // hash each node's sorted child list as soon as it completes.
  std::vector<std::size_t> succ_off(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> succ;
  succ.reserve(m);
  std::int64_t prev_u = -1;
  std::size_t u_begin = 0;  // index into succ where prev_u's children start
  const auto flush_u = [&]() -> bool {
    if (prev_u < 0) return true;
    const NodeId repeated = hasher.children(
        static_cast<NodeId>(prev_u),
        {succ.data() + u_begin, succ.size() - u_begin});
    if (repeated == kInvalidNode) return true;
    fail(error, at("duplicate edge " + std::to_string(prev_u) + " -> " +
                       std::to_string(repeated),
                   "edges"));
    return false;
  };
  {
    constexpr std::size_t kEdgesPerChunk = 8192;
    std::vector<unsigned char> chunk(kEdgesPerChunk * 8);
    std::uint64_t done = 0;
    while (done < m) {
      const std::size_t batch =
          std::min<std::uint64_t>(kEdgesPerChunk, m - done);
      if (!read_exact(chunk.data(), batch * 8, "edges")) return std::nullopt;
      for (std::size_t i = 0; i < batch; ++i) {
        const auto u = load_le<std::uint32_t>(chunk.data() + i * 8);
        const auto v = load_le<std::uint32_t>(chunk.data() + i * 8 + 4);
        const std::uint64_t e = done + i;
        if (u >= n || v >= n) {
          fail(error, at("edge " + std::to_string(e) + " endpoint out of "
                             "range [0, " + std::to_string(n) + ")",
                         "edges"));
          return std::nullopt;
        }
        if (u == v) {
          fail(error,
               at("self-loop edge " + std::to_string(u), "edges"));
          return std::nullopt;
        }
        if (static_cast<std::int64_t>(u) < prev_u) {
          fail(error, at("edge " + std::to_string(e) +
                             " breaks u-major order (u=" + std::to_string(u) +
                             " after u=" + std::to_string(prev_u) + ")",
                         "edges"));
          return std::nullopt;
        }
        if (static_cast<std::int64_t>(u) != prev_u) {
          if (!flush_u()) return std::nullopt;
          for (std::int64_t k = prev_u + 1; k <= static_cast<std::int64_t>(u);
               ++k) {
            succ_off[static_cast<std::size_t>(k)] = succ.size();
          }
          prev_u = u;
          u_begin = succ.size();
        }
        succ.push_back(static_cast<NodeId>(v));
      }
      done += batch;
    }
  }
  if (!flush_u()) return std::nullopt;
  for (std::int64_t k = prev_u + 1; k <= static_cast<std::int64_t>(n); ++k) {
    succ_off[static_cast<std::size_t>(k)] = succ.size();
  }

  if (!read_exact(scratch, 8, "hash footer")) return std::nullopt;
  const std::uint64_t stored_hash = load_le<std::uint64_t>(scratch);
  if (in.remaining() != 0) {
    fail(error, at(std::to_string(in.remaining()) +
                       " trailing byte(s) after the hash footer",
                   "footer"));
    return std::nullopt;
  }

  ComputeDag dag = ComputeDag::from_csr(std::move(name), std::move(omega),
                                        std::move(mu), std::move(succ_off),
                                        std::move(succ));
  if (!is_acyclic(dag)) {
    fail(error, "edge set contains a cycle");
    return std::nullopt;
  }
  if (hasher.value() != stored_hash) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 " != stored %016" PRIx64,
                  hasher.value(), stored_hash);
    fail(error, std::string("canonical hash mismatch (corrupt file): ") + buf);
    return std::nullopt;
  }
  return dag;
}

}  // namespace

/// The v2 encoder, written once: DagStreamWriter wraps it around a file and
/// dag_to_binary around a string. It checks the DagSink call order, appends
/// the little-endian layout to bytes() and folds the canonical hash in as
/// each node's children complete. With a file it hands bytes() over in
/// kWriteBlock pieces. Errors latch as DagStreamWriter documents.
class DagEncoder final : public DagSink {
 public:
  /// In memory: the encoding stays in bytes().
  DagEncoder() = default;
  explicit DagEncoder(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) {
      set_error("cannot open " + path + " for writing");
      return;
    }
    // Slack for the record that crosses the block edge, so the buffer
    // never reallocates mid-stream.
    bytes_.reserve(kWriteBlock + 64);
  }
  ~DagEncoder() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  DagEncoder(const DagEncoder&) = delete;
  DagEncoder& operator=(const DagEncoder&) = delete;

  void begin(const std::string& name, std::uint64_t num_nodes) override {
    if (!ok()) return;
    if (state_ != State::kCreated) {
      set_error("begin() called twice");
      return;
    }
    if (num_nodes > 0xFFFFFFFFull) {
      set_error("node count " + std::to_string(num_nodes) +
                " exceeds the format's u32 limit");
      return;
    }
    state_ = State::kNodes;
    declared_nodes_ = num_nodes;
    put(kBinaryMagic, sizeof(kBinaryMagic));
    put_le(static_cast<std::uint32_t>(name.size()));
    put(name.data(), name.size());
    put_le(static_cast<std::uint32_t>(num_nodes));
    hasher_.header(name, static_cast<std::uint32_t>(num_nodes));
  }

  void add_node(double omega, double mu) override {
    if (!ok()) return;
    if (state_ != State::kNodes) {
      set_error("add_node() outside the node section");
      return;
    }
    if (emitted_nodes_ == declared_nodes_) {
      set_error("more add_node() calls than the declared " +
                std::to_string(declared_nodes_));
      return;
    }
    ++emitted_nodes_;
    put_le(std::bit_cast<std::uint64_t>(omega));
    put_le(std::bit_cast<std::uint64_t>(mu));
    hasher_.node(omega, mu);
  }

  void begin_edges(std::uint64_t num_edges) override {
    if (!ok()) return;
    if (state_ != State::kNodes) {
      set_error("begin_edges() outside the node section");
      return;
    }
    if (emitted_nodes_ != declared_nodes_) {
      set_error("begin_edges() after " + std::to_string(emitted_nodes_) +
                " of " + std::to_string(declared_nodes_) + " declared nodes");
      return;
    }
    state_ = State::kEdges;
    declared_edges_ = num_edges;
    put_le(num_edges);
    hasher_.edge_count(num_edges);
  }

  void add_edge(NodeId u, NodeId v) override {
    if (!ok()) return;
    if (state_ != State::kEdges) {
      set_error("add_edge() outside the edge section");
      return;
    }
    if (emitted_edges_ == declared_edges_) {
      set_error("more add_edge() calls than the declared " +
                std::to_string(declared_edges_));
      return;
    }
    if (u < 0 || v < 0 || static_cast<std::uint64_t>(u) >= declared_nodes_ ||
        static_cast<std::uint64_t>(v) >= declared_nodes_) {
      set_error("edge " + std::to_string(u) + " -> " + std::to_string(v) +
                " endpoint out of range [0, " +
                std::to_string(declared_nodes_) + ")");
      return;
    }
    if (u == v) {
      set_error("self-loop edge " + std::to_string(u));
      return;
    }
    if (current_u_ != kInvalidNode && u < current_u_) {
      set_error("edges must be u-major: u=" + std::to_string(u) +
                " after u=" + std::to_string(current_u_));
      return;
    }
    if (u != current_u_) {
      if (!hash_pending_children()) return;
      current_u_ = u;
    }
    ++emitted_edges_;
    pending_children_.push_back(v);
    put_le(static_cast<std::uint32_t>(u));
    put_le(static_cast<std::uint32_t>(v));
  }

  bool finish(std::uint64_t* hash_out) {
    if (ok()) {
      if (state_ != State::kEdges) {
        set_error(state_ == State::kFinished ? "finish() called twice"
                                             : "finish() before begin_edges()");
      } else if (emitted_edges_ != declared_edges_) {
        set_error("finish() after " + std::to_string(emitted_edges_) +
                  " of " + std::to_string(declared_edges_) +
                  " declared edges");
      }
    }
    if (ok() && hash_pending_children()) put_le(hasher_.value());
    if (file_ != nullptr) {
      write_bytes();
      if (ok() && std::fflush(file_) != 0) {
        set_error("flush failed (disk full?)");
      }
      std::fclose(file_);
      file_ = nullptr;
    }
    if (!ok()) return false;
    state_ = State::kFinished;
    if (hash_out != nullptr) *hash_out = hasher_.value();
    return true;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::string& bytes() { return bytes_; }

 private:
  void set_error(const std::string& message) {
    if (error_.empty()) error_ = message;
  }

  void put(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
    if (file_ != nullptr && bytes_.size() >= kWriteBlock) write_bytes();
  }

  template <typename T>
  void put_le(T v) {
    unsigned char b[sizeof(T)];
    store_le(b, v);
    put(b, sizeof(b));
  }

  /// Hands bytes() to the file (dropped after an error).
  void write_bytes() {
    if (ok() &&
        std::fwrite(bytes_.data(), 1, bytes_.size(), file_) != bytes_.size()) {
      set_error("write failed (disk full?)");
    }
    bytes_.clear();
  }

  bool hash_pending_children() {
    if (current_u_ == kInvalidNode) return true;
    const NodeId repeated = hasher_.children(
        current_u_, {pending_children_.data(), pending_children_.size()});
    if (repeated != kInvalidNode) {
      set_error("duplicate edge " + std::to_string(current_u_) + " -> " +
                std::to_string(repeated));
      return false;
    }
    pending_children_.clear();
    return true;
  }

  std::FILE* file_ = nullptr;
  std::string bytes_;  // encoded, not yet handed to file_
  std::string error_;
  enum class State { kCreated, kNodes, kEdges, kFinished } state_ =
      State::kCreated;
  std::uint64_t declared_nodes_ = 0;
  std::uint64_t declared_edges_ = 0;
  std::uint64_t emitted_nodes_ = 0;
  std::uint64_t emitted_edges_ = 0;
  NodeId current_u_ = kInvalidNode;
  std::vector<NodeId> pending_children_;  // current u, stored order
  CanonicalHasher hasher_;
};

std::uint64_t fnv1a_64(const void* data, std::size_t size,
                       std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t seed) {
  return fnv1a_word(v, seed);
}

std::uint64_t fnv1a_f64(double v, std::uint64_t seed) {
  return fnv1a_word(std::bit_cast<std::uint64_t>(v), seed);
}

std::uint64_t dag_canonical_hash(const ComputeDag& dag) {
  CanonicalHasher hasher;
  hasher.header(dag.name(), static_cast<std::uint32_t>(dag.num_nodes()));
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    hasher.node(dag.omega(v), dag.mu(v));
  }
  hasher.edge_count(dag.num_edges());
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    hasher.children(u, dag.children(u));
  }
  return hasher.value();
}

std::string dag_hash_hex(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

std::string dag_to_text(const ComputeDag& dag) {
  std::ostringstream out;
  out << "mbsp-dag v1\n";
  out << "name " << dag.name() << '\n';
  out << "nodes " << dag.num_nodes() << '\n';
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    out << format_weight(dag.omega(v)) << ' ' << format_weight(dag.mu(v))
        << '\n';
  }
  out << "edges " << dag.num_edges() << '\n';
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) out << u << ' ' << v << '\n';
  }
  return out.str();
}

std::optional<ComputeDag> dag_from_text(const std::string& text,
                                        std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  // Reads the next non-blank line (CR-stripped); false at end of input.
  auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") != std::string::npos) return true;
    }
    return false;
  };
  auto at_line = [&](const std::string& message) {
    return "line " + std::to_string(line_no) + ": " + message;
  };
  auto truncated = [&](const std::string& expected) {
    return "unexpected end of input after line " + std::to_string(line_no) +
           ": expected " + expected;
  };

  if (!next_line() || line != "mbsp-dag v1") {
    fail(error, line_no == 0 ? "empty input: missing 'mbsp-dag v1' header"
                             : at_line("missing 'mbsp-dag v1' header"));
    return std::nullopt;
  }
  if (!next_line()) {
    fail(error, truncated("'name <string>'"));
    return std::nullopt;
  }
  if (line.rfind("name", 0) != 0 || (line.size() > 4 && line[4] != ' ')) {
    fail(error, at_line("expected 'name <string>'"));
    return std::nullopt;
  }
  const std::string name = line.size() > 5 ? line.substr(5) : "";

  long long n = 0;
  {
    if (!next_line()) {
      fail(error, truncated("'nodes <count>'"));
      return std::nullopt;
    }
    std::istringstream fields(line);
    std::string token;
    if (!(fields >> token >> n) || token != "nodes" || n < 0) {
      fail(error, at_line("expected 'nodes <count>'"));
      return std::nullopt;
    }
  }
  ComputeDag dag(name);
  for (long long i = 0; i < n; ++i) {
    if (!next_line()) {
      fail(error, truncated(std::to_string(n) + " node weight lines, got " +
                            std::to_string(i)));
      return std::nullopt;
    }
    std::istringstream fields(line);
    double omega = 0, mu = 0;
    std::string extra;
    if (!(fields >> omega >> mu) || fields >> extra) {
      fail(error, at_line("bad node weight line (expected '<omega> <mu>')"));
      return std::nullopt;
    }
    dag.add_node(omega, mu);
  }
  long long m = 0;
  {
    if (!next_line()) {
      fail(error, truncated("'edges <count>'"));
      return std::nullopt;
    }
    std::istringstream fields(line);
    std::string token;
    if (!(fields >> token >> m) || token != "edges" || m < 0) {
      fail(error, at_line("expected 'edges <count>'"));
      return std::nullopt;
    }
  }
  for (long long e = 0; e < m; ++e) {
    if (!next_line()) {
      fail(error, truncated(std::to_string(m) + " edge lines, got " +
                            std::to_string(e)));
      return std::nullopt;
    }
    std::istringstream fields(line);
    long long u = 0, v = 0;
    std::string extra;
    if (!(fields >> u >> v) || fields >> extra) {
      fail(error, at_line("bad edge line (expected '<u> <v>')"));
      return std::nullopt;
    }
    if (u < 0 || u >= n || v < 0 || v >= n) {
      fail(error, at_line("edge endpoint out of range [0, " +
                          std::to_string(n) + ")"));
      return std::nullopt;
    }
    if (u == v) {
      fail(error, at_line("self-loop edge " + std::to_string(u)));
      return std::nullopt;
    }
    const std::size_t before = dag.num_edges();
    dag.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    if (dag.num_edges() == before) {
      fail(error, at_line("duplicate edge " + std::to_string(u) + " -> " +
                          std::to_string(v)));
      return std::nullopt;
    }
  }
  if (next_line()) {
    fail(error, at_line("trailing content after the edge list"));
    return std::nullopt;
  }
  if (!is_acyclic(dag)) {
    fail(error, "edge set contains a cycle");
    return std::nullopt;
  }
  return dag;
}

std::string dag_to_binary(const ComputeDag& dag) {
  DagEncoder encoder;
  emit_dag(dag, encoder);
  encoder.finish(nullptr);
  return std::move(encoder.bytes());
}

bool is_binary_dag(const std::string& bytes) {
  return bytes.size() >= sizeof(kBinaryMagic) &&
         std::equal(kBinaryMagic, kBinaryMagic + sizeof(kBinaryMagic),
                    bytes.begin());
}

std::optional<ComputeDag> dag_from_binary(const std::string& bytes,
                                          std::string* error) {
  if (!is_binary_dag(bytes)) {
    fail(error, "missing 'MBSPDAG2' magic (not a binary DAG)");
    return std::nullopt;
  }
  StringFeed in(bytes);
  return parse_binary_stream(in, error);
}

std::optional<ComputeDag> dag_from_bytes(const std::string& bytes,
                                         std::string* error) {
  return is_binary_dag(bytes) ? dag_from_binary(bytes, error)
                              : dag_from_text(bytes, error);
}

bool write_dag_file(const ComputeDag& dag, const std::string& path,
                    bool binary) {
  if (binary) {
    DagStreamWriter writer(path);
    emit_dag(dag, writer);
    return writer.finish();
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << dag_to_text(dag);
  return static_cast<bool>(out);
}

std::optional<ComputeDag> read_dag_file(const std::string& path,
                                        std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  // Sniff the magic to pick the format, then rewind.
  char magic[8] = {};
  const std::size_t got = std::fread(magic, 1, sizeof(magic), file);
  if (got == sizeof(magic) &&
      std::equal(magic, magic + sizeof(magic), kBinaryMagic)) {
    // Binary: chunked decode straight into CSR (FileFeed owns the handle).
    if (std::fseek(file, 0, SEEK_END) != 0) {
      std::fclose(file);
      if (error != nullptr) *error = "cannot seek " + path;
      return std::nullopt;
    }
    const long file_size = std::ftell(file);
    std::rewind(file);
    FileFeed in(file, static_cast<std::size_t>(file_size));
    return parse_binary_stream(in, error);
  }
  // Text: small by construction; read whole and reuse the line parser.
  std::rewind(file);
  std::string buffer;
  char chunk[1 << 16];
  std::size_t read = 0;
  while ((read = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    buffer.append(chunk, read);
  }
  std::fclose(file);
  return dag_from_text(buffer, error);
}

// ---------------------------------------------------------------------------
// DagStreamWriter

DagStreamWriter::DagStreamWriter(const std::string& path)
    : encoder_(std::make_unique<DagEncoder>(path)) {}

DagStreamWriter::~DagStreamWriter() = default;

void DagStreamWriter::begin(const std::string& name,
                            std::uint64_t num_nodes) {
  encoder_->begin(name, num_nodes);
}

void DagStreamWriter::add_node(double omega, double mu) {
  encoder_->add_node(omega, mu);
}

void DagStreamWriter::begin_edges(std::uint64_t num_edges) {
  encoder_->begin_edges(num_edges);
}

void DagStreamWriter::add_edge(NodeId u, NodeId v) {
  encoder_->add_edge(u, v);
}

bool DagStreamWriter::finish(std::uint64_t* hash_out) {
  return encoder_->finish(hash_out);
}

bool DagStreamWriter::ok() const { return encoder_->ok(); }

const std::string& DagStreamWriter::error() const { return encoder_->error(); }

}  // namespace mbsp
