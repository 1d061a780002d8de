#include "bench_mbsp/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/util/stats.hpp"

namespace mbsp::bench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xC2B2AE3D27D4EB4Full) ^ 0xD6E8FEB86659FD93ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------

LatencySummary LatencySummary::of(const std::vector<double>& samples,
                                  double tail_pct) {
  LatencySummary s;
  s.count = samples.size();
  s.tail_pct = tail_pct;
  s.p50 = quantile(samples, 0.5);
  s.tail = quantile(samples, tail_pct / 100);
  s.beyond_tail = static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(), [&](double v) { return v > s.tail; }));
  for (double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(s.count) * (1 - pct / 100) >= 10) {
      s.supported_pct = pct;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------

namespace {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kTimed: return "timed";
    case Phase::kPost: return "post";
    case Phase::kProbe: return "probe";
  }
  return "?";
}

thread_local std::vector<std::int32_t> t_open_spans;
thread_local std::int64_t t_current_op = -1;
thread_local std::uint32_t t_tid = std::numeric_limits<std::uint32_t>::max();

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(Phase phase) {
  set_phase(phase);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::set_current_op(std::int64_t op) { t_current_op = op; }

std::int32_t Tracer::open(const char* layer, const char* name) {
  if (t_tid == std::numeric_limits<std::uint32_t>::max()) {
    t_tid = next_tid_.fetch_add(1);
  }
  SpanRecord record;
  record.layer = layer;
  record.name = name;
  record.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  record.op = t_current_op;
  record.tid = t_tid;
  record.phase = phase();
  std::int32_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int32_t>(spans_.size());
    record.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
    spans_.push_back(record);
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index, double work) {
  const std::int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  const auto it =
      std::find(t_open_spans.rbegin(), t_open_spans.rend(), index);
  if (it != t_open_spans.rend()) t_open_spans.erase(std::next(it).base());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  spans_[static_cast<std::size_t>(index)].work = work;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  const std::vector<SpanRecord> all = spans();
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%lld,"
                 "\"phase\":\"%s\",\"work\":%.17g}}",
                 first ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid, i,
                 s.parent, static_cast<long long>(s.op), phase_name(s.phase),
                 s.work);
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  if (!ok && error != nullptr) *error = "cannot finish " + path;
  return ok;
}

std::array<double, kLayers.size()> layer_self_ms(
    const std::vector<SpanRecord>& spans, Phase phase) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 && spans[i].end_ns >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::array<double, kLayers.size()> self{};
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.phase != phase || s.end_ns < 0) continue;
    const auto layer = std::find_if(kLayers.begin(), kLayers.end(),
                                    [&](const char* name) {
                                      return std::strcmp(name, s.layer) == 0;
                                    });
    if (layer == kLayers.end()) continue;
    covered.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t child_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) child_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[static_cast<std::size_t>(layer - kLayers.begin())] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns) / 1e6;
  }
  return self;
}

// ---------------------------------------------------------------------------

void LayerSamples::add(const std::string& key, Phase phase, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  data_[key][static_cast<std::size_t>(phase)].push_back(value);
}

void LayerSamples::add(const std::string& key, double value) {
  add(key, Tracer::instance().phase(), value);
}

void LayerSamples::add_spans(const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& s : spans) {
    if (s.end_ns < 0) continue;
    add(s.name, s.phase, static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    if (s.work > 0) add(std::string(s.name) + "#work", s.phase, s.work);
  }
}

Phase LayerSamples::pick_phase(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.find(key);
  if (it == data_.end()) return Phase::kSetup;
  for (Phase phase : {Phase::kTimed, Phase::kPost, Phase::kProbe}) {
    if (!it->second[static_cast<std::size_t>(phase)].empty()) return phase;
  }
  return Phase::kSetup;
}

const std::vector<double>& LayerSamples::get(const std::string& key,
                                             Phase phase) const {
  static const std::vector<double> kEmpty;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.find(key);
  return it == data_.end() ? kEmpty
                           : it->second[static_cast<std::size_t>(phase)];
}

double LayerSamples::sum(const std::string& key, Phase phase) const {
  double total = 0;
  for (double v : get(key, phase)) total += v;
  return total;
}

// ---------------------------------------------------------------------------

void Checks::expect(bool ok, std::int64_t op, const std::string& what) {
  if (ok) {
    ++passed_;
    return;
  }
  failed_ops_.insert(op);
  if (first_failure_.empty()) {
    first_failure_ = "op " + std::to_string(op) + ": " + what;
  }
}

PhaseResult closed_loop(double seconds, std::int64_t min_ops,
                        std::int64_t* next_op,
                        const std::function<void(std::int64_t)>& op,
                        const std::function<void(std::int64_t)>& after) {
  Tracer& tracer = Tracer::instance();
  PhaseResult result;
  const Clock::time_point start = Clock::now();
  Clock::time_point prev_end = start;
  double busy_ms = 0;
  std::int64_t done = 0;
  while (done < min_ops || ms_between(start, Clock::now()) < seconds * 1e3) {
    const std::int64_t id = (*next_op)++;
    const Clock::time_point t0 = Clock::now();
    {
      OpScope scope(id);
      op(id);
    }
    const Clock::time_point t1 = Clock::now();
    result.op_ids.push_back(id);
    result.latency_ms.push_back(ms_between(t0, t1));
    result.lag_ms.push_back(ms_between(prev_end, t0));
    busy_ms += result.latency_ms.back();
    ++done;
    if (after) {
      const Phase phase = tracer.phase();
      tracer.set_phase(Phase::kPost);
      after(id);
      tracer.set_phase(phase);
    }
    prev_end = Clock::now();
  }
  result.elapsed_s = busy_ms / 1e3;
  return result;
}

std::string scratch_path(const std::string& stem, const std::string& ext) {
  static std::atomic<int> counter{0};
  long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<long>(::getpid());
#endif
  return std::string(kRunDir) + "/" + stem + "-" + std::to_string(pid) + "-" +
         std::to_string(counter.fetch_add(1)) + ext;
}

}  // namespace mbsp::bench
