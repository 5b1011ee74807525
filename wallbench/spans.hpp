// In-memory spans and the arithmetic the benchmark report needs.
//
// A span is one timed interval: a call the benchmark makes into the library
// (a step(), a make_job, a checkpoint write) or a library phase recorded by
// trace::Tracer.  Spans are kept in memory while the workload runs and
// written out once at the end, so recording costs one locked push_back.
//
// Parents: a span either names its parent explicitly (cross-thread links,
// e.g. a rank's step under the main thread's episode) or is given the
// innermost span on its own lane (thread) that encloses it — which is how
// library phases land under the benchmark's step spans.  Self time is a
// span's duration minus the part of it covered by its children.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wallbench {

inline constexpr std::int64_t kRoot = -1;     // no parent
inline constexpr std::int64_t kByLane = -2;   // parent = enclosing span on lane

struct Span {
  std::string name;
  std::int64_t id = -1;    // negative: SpanLog::add assigns a fresh one
  std::int64_t parent = kByLane;
  std::int64_t key = -1;   // step index or job id the span belongs to
  int lane = 0;            // thread the span ran on (rank, worker, ...)
  double t0 = 0.0;         // seconds on one steady clock
  double t1 = 0.0;
  double duration() const { return t1 - t0; }
};

// Thread-safe span store.  Ids come from reserve_id() so a parent's id can
// be handed to children before the parent's end time is known.
class SpanLog {
 public:
  std::int64_t reserve_id() { return next_.fetch_add(1); }

  // A span with a negative id gets a fresh one.
  void add(Span s) {
    if (s.id < 0) s.id = reserve_id();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_{0};
};

// Percentile q in [0, 100] with linear interpolation between order
// statistics (numpy's default).  NaN for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0 || q > 100.0) throw std::invalid_argument("percentile: q");
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (v[hi] == v[lo]) return v[lo];  // also keeps infinite samples finite-safe
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

// Resolve kByLane parents: each such span gets the innermost span on the
// same lane whose interval contains it (kRoot when none does).  Among equal
// intervals the one added first is the outer one.
inline void assign_parents(std::vector<Span>& spans) {
  std::unordered_map<int, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    lanes[spans[i].lane].push_back(i);
  }
  for (auto& [lane, idx] : lanes) {
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].t0 != spans[b].t0) return spans[a].t0 < spans[b].t0;
      return spans[a].t1 > spans[b].t1;
    });
    std::vector<std::size_t> open;  // enclosing chain, innermost last
    for (const std::size_t i : idx) {
      while (!open.empty() && spans[open.back()].t1 < spans[i].t1) {
        open.pop_back();
      }
      if (spans[i].parent == kByLane) {
        spans[i].parent = open.empty() ? kRoot : spans[open.back()].id;
      }
      open.push_back(i);
    }
  }
}

// Self time of every span (same order as `spans`): its duration minus the
// union of its children's intervals clipped to it.  Parents must be
// resolved (no kByLane left).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kByLane) {
      throw std::logic_error("self_times: unresolved parent");
    }
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].push_back({s.t0, s.t1});
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -std::numeric_limits<double>::infinity();
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].t0);
      hi = std::min(hi, spans[i].t1);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

// Chrome-trace JSON (chrome://tracing, ui.perfetto.dev): one row per lane,
// span id / parent / key / self time in each event's args.
inline void write_spans(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<double>& self) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.lane
        << ",\"ts\":" << s.t0 * 1e6 << ",\"dur\":" << s.duration() * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"key\":" << s.key << ",\"self_us\":" << self[i] * 1e6 << "}}";
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("short write to span file " + path);
}

}  // namespace wallbench
