// The per-image scan the benchmark times, in two forms:
//
//  * ScanImage: the production path — FirmwareExtractor::Extract ->
//    BinaryLoader::Load -> DTaint::Analyze -> FindingsToJson;
//  * TracedScanImage: the same work, with DTaint::Analyze replaced by
//    the public calls it makes (CfgBuilder, CallGraph, RunBottomUp,
//    ResolveIndirectCalls, the relink, PathFinder, FilterVulnerable),
//    each wrapped in a span recorded by the benchmark itself.
//
// Both return the verdict and the same deterministic counters, so a
// traced pipeline that drifts from DTaint::Analyze is caught by
// comparing the two (trace.mismatched_images, perfbench/run.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/summary_cache.h"

namespace perfbench {

/// Monotonic nanoseconds. CLOCK_MONOTONIC is system-wide on Linux, so
/// stamps taken in a forked worker and in its parent share one axis.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the owning vector; -1 = root
  uint32_t image = 0;
};

/// In-memory span log; written out once, when the run ends.
class SpanLog {
 public:
  /// Opens a span and returns its index (the handle children name as
  /// their parent).
  int Begin(std::string_view name, int parent, uint32_t image);
  void End(int index) { spans_[index].end_ns = NowNs(); }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// What one image scan produced.
struct ImageRecord {
  uint32_t index = 0;
  /// "ok", "unextractable" (encrypted/unknown packing), "failed".
  std::string status;
  bool complete = false;
  std::string findings_json = "[]";
  /// Deterministic work counters (registry deltas and report fields).
  std::map<std::string, uint64_t> counters;
  /// Layer timings the spans do not carry: RunBottomUp's own
  /// summary_seconds for the first pass (traced scans only).
  double summary_seconds = 0.0;
  /// Spans of this image (traced scans only); parents index this vector.
  std::vector<Span> spans;
};

/// Both scan one packed image on one thread; `cache` null = no summary
/// cache.
ImageRecord ScanImage(const std::vector<uint8_t>& blob,
                      const std::string& label, uint32_t index,
                      dtaint::SummaryCache* cache);

ImageRecord TracedScanImage(const std::vector<uint8_t>& blob,
                            const std::string& label, uint32_t index,
                            dtaint::SummaryCache* cache);

}  // namespace perfbench
