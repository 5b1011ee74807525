// Lightweight execution tracing — the OMPItrace/Paraver analogue.
//
// The paper's further-work section profiles the hybrid code with "the
// OMPItrace and Paraver tools from CEPBA to produce and analyse accurate
// traces of performance".  This module provides the same workflow for
// this library: drivers emit begin/end events for each phase (halo swap,
// force loop, position update, rebuild stages, collectives), and the
// tracer renders either a per-phase summary table or a Chrome-trace JSON
// timeline (load chrome://tracing or https://ui.perfetto.dev).
//
// Tracing is globally disabled by default and costs one predicted branch
// per phase when off.  Events are coarse (a handful per iteration per
// rank), so a mutex-protected buffer is plenty.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hdem::trace {

enum class Phase : std::uint8_t {
  kForce,        // force accumulation over links
  kUpdate,       // position update
  kHaloSwap,     // halo swap initiation: pack + post sends/receives
  kHaloWait,     // halo swap completion: exposed wait + corner forwarding
  kMigrate,      // particle re-homing at rebuild
  kHaloBuild,    // halo template construction at rebuild
  kLinkBuild,    // whole list rebuild (outer bracket over the sub-phases)
  kBin,          // counting-sort binning into cells
  kLinkGen,      // link generation over cells (with the color plan)
  kReorder,      // cell-order particle permutation
  kCollective,   // reductions / gathers
  kIteration,    // one whole step (outer bracket)
  kRebalance,    // cost exchange + repartition + block handoff at rebuild
  kHaloShared,   // shared-window halo gathers (zero-copy intra-node path)
};

const char* to_string(Phase p);
inline constexpr int kPhaseCount = 14;

struct Event {
  Phase phase;
  std::int32_t rank;    // -1 when not applicable
  double t_start;       // seconds since tracer epoch
  double t_end;
};

class Tracer {
 public:
  // Process-wide tracer used by the drivers.
  static Tracer& global();

  // Enable/disable collection; enabling resets the epoch.
  void enable(bool on);
  bool enabled() const { return enabled_; }

  void clear();

  // Record a completed event (times in seconds since epoch()).
  void record(Phase phase, std::int32_t rank, double t_start, double t_end);

  // Seconds since the tracer epoch.
  double now() const;

  std::vector<Event> events() const;

  // Aggregate per-phase totals: count, total seconds, mean microseconds.
  struct PhaseSummary {
    Phase phase;
    std::uint64_t count = 0;
    double total_seconds = 0.0;
  };
  std::vector<PhaseSummary> summarize() const;
  std::string summary_table() const;

  // Chrome-trace ("catapult") JSON: one row per rank.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  bool enabled_ = false;
  double epoch_ = 0.0;
  std::vector<Event> events_;
};

// Thread-local tracing mute.  The serving scheduler (src/serve)
// multiplexes many independent jobs over one thread team; their phase
// scopes would interleave meaninglessly in the process-wide timeline, so
// workers hold a Mute around each job quantum and per-job time lives in
// the job's own counters instead.  Nestable; muting one thread never
// affects phases recorded by the others.
class Mute {
 public:
  Mute();
  ~Mute();
  static bool active();
  Mute(const Mute&) = delete;
  Mute& operator=(const Mute&) = delete;
};

// RAII scope: records [construction, destruction) for a phase when the
// global tracer is enabled; near-free otherwise.
class Scope {
 public:
  Scope(Phase phase, std::int32_t rank = -1)
      : active_(Tracer::global().enabled() && !Mute::active()),
        phase_(phase),
        rank_(rank) {
    if (active_) t_start_ = Tracer::global().now();
  }
  ~Scope() {
    if (active_) {
      Tracer::global().record(phase_, rank_, t_start_,
                              Tracer::global().now());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
  Phase phase_;
  std::int32_t rank_;
  double t_start_ = 0.0;
};

}  // namespace hdem::trace
