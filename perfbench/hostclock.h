// Host-normalized timing for the fleet benchmark.
//
// The benchmark runs on shared hosts whose speed for this kind of code
// (hash tables, trees, small allocations) drifts by 20% and more within
// seconds, and differently on each virtual CPU. A wall-clock time
// measured there mostly measures the neighbours. HostClock removes that
// drift: it runs a fixed reference computation (the probe, which calls
// nothing in the DTaint library) between consecutive segments of timed
// work, and scales each segment by
//
//     kProbeNominalNs / mean(probe before the segment, probe after it)
//
// so a segment reads the time it would have taken on a host where the
// probe takes kProbeNominalNs. The probe's own time is never part of a
// segment. The probe keeps its data in a private arena, so the program's
// heap does not change the probe's speed.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// What the probe takes, in ns, on the host the benchmark was tuned on
/// (4-vCPU Xeon VM at an unloaded moment); the unit of normalized time.
inline constexpr double kProbeNominalNs = 1.5e6;

/// Runs the reference computation once; returns its wall time in ns.
int64_t RunProbe();

/// One stretch of timed work between two probes.
struct Lap {
  int64_t raw_ns = 0;   // wall time of the stretch, probes excluded
  double factor = 1.0;  // kProbeNominalNs / mean of the two probes
  double Seconds() const { return static_cast<double>(raw_ns) * 1e-9 * factor; }
};

/// A chain of segments, each ended by Next(), which runs a probe and
/// starts the next segment when the probe is done.
class HostClock {
 public:
  /// Warms the probe up, then runs the probe that opens the first
  /// segment.
  HostClock();

  /// Ends the current segment and starts the next.
  Lap Next();

  /// Normalized and raw seconds of all segments ended so far.
  double total_s() const { return total_s_; }
  double raw_total_s() const { return static_cast<double>(raw_ns_) * 1e-9; }

  /// Every probe's wall time, in ns, in the order they ran.
  const std::vector<int64_t>& probes_ns() const { return probes_ns_; }

 private:
  int64_t segment_start_ns_ = 0;
  double total_s_ = 0.0;
  int64_t raw_ns_ = 0;
  std::vector<int64_t> probes_ns_;
};

/// Pins this process (and the workers it forks later) to the CPU it
/// runs on now, so probes and the work they bracket share one CPU.
void PinToCurrentCpu();

}  // namespace perfbench
