// Pipeline phase instrumentation — the one way a phase is measured.
//
// obs::PhaseScope brackets one phase of DTaint::Analyze (lift,
// callgraph, summary, link, structsim, relink, pathfind, sanitize,
// teardown) and is the only code that, for a phase:
//  * records its trace span (category "phase", named after the phase);
//  * emits the phase_begin / phase_end event pair, phase_end carrying
//    duration_ms and then the phase's own fields;
//  * observes the registry histogram "phase.<name>_micros";
//  * adds its seconds to the PhaseTimings table a CollectPhases scope
//    routes this thread's phases to — the report's per-phase timings.
//
// All four record one duration, read once when the phase closes, so the
// trace, the event stream, the metrics and the report agree on it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/stopwatch.h"
#include "src/obs/trace.h"

namespace dtaint::obs {

/// Wall seconds per phase, in the order the phases first closed; a phase
/// that closes twice accumulates into its one entry.
class PhaseTimings {
 public:
  void Add(std::string_view phase, double seconds);

  /// 0 when `phase` never closed.
  double Seconds(std::string_view phase) const;

  /// Sum over every phase.
  double Total() const;

  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

/// While alive, the PhaseScopes opened on this thread add their seconds
/// to `timings`. Restores the previously collecting table on exit.
class CollectPhases {
 public:
  explicit CollectPhases(PhaseTimings& timings);
  ~CollectPhases();
  CollectPhases(const CollectPhases&) = delete;
  CollectPhases& operator=(const CollectPhases&) = delete;

 private:
  PhaseTimings* previous_;
};

/// RAII phase: opens at construction, closes at Finish() or
/// destruction. `name` must outlive the scope (the pipeline passes
/// literals).
class PhaseScope {
 public:
  explicit PhaseScope(std::string_view name);
  ~PhaseScope() { Finish(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Appends a field to this phase's phase_end event; `key` must
  /// outlive the scope too.
  PhaseScope& Num(std::string_view key, uint64_t value) {
    fields_.emplace_back(key, value);
    return *this;
  }

  /// Closes the phase now; later calls only return the same seconds.
  double Finish();

 private:
  std::string_view name_;
  Span span_;
  Stopwatch watch_;
  PhaseTimings* timings_;
  std::vector<std::pair<std::string_view, uint64_t>> fields_;
  double seconds_ = -1.0;  // negative while open
};

}  // namespace dtaint::obs
