// Fleet aggregation over NDJSON event streams (src/obs/events.h) —
// the library behind tools/scan_report.
//
// Input is one or more event streams: live ones, finished ones, and —
// the case that motivates the whole subsystem — truncated ones left by
// killed or crashed workers (flight-recorder dumps are valid input
// too, but overlap the tail of their parent stream, so aggregate one
// or the other). Parsing is line-at-a-time and defensive: a torn final
// line, a flight-recorder slot overwritten mid-dump, or garbage in the
// middle is counted as malformed and skipped, never fatal.
//
// The aggregate answers the fleet operator's triage questions:
//  * per-image status table — an image_begin with no matching
//    image_end is reported as "in_flight": that is the image the dead
//    worker was chewing on;
//  * phase time breakdown (phase_end durations summed by phase name),
//    and the binaries' time no phase accounts for ("unattributed");
//  * top-k hot functions by summary-production time;
//  * incident and degradation counts by phase;
//  * whether each stream terminated cleanly (stream_end present).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace dtaint::obs {

struct ImageRollup {
  std::string image;
  std::string vendor;
  std::string product;
  std::string arch;
  std::string packing;
  /// image_end status ("ok" / "unextractable" / "failed"), or
  /// "in_flight" while only image_begin has been seen, or
  /// "quarantined" once the supervisor gave up on the image.
  std::string status = "in_flight";
  bool complete = false;
  uint64_t functions = 0;
  uint64_t findings = 0;
  double duration_ms = 0.0;
  /// Scan attempts for this image. Streams from the same image merge
  /// into this one logical row (ImageFor keys on the image name), so a
  /// crashed worker's stream plus its retry's stream still report one
  /// row with attempts=2. Counted from image_begin events and raised
  /// to any attempt count carried by supervisor lifecycle events
  /// (image_retry / image_quarantined / image_resumed), which also
  /// cover attempts killed before their first event flushed.
  uint64_t attempts = 0;
  /// image_begin events folded so far (internal feed for `attempts`;
  /// kept separate so lifecycle events that carry an absolute attempt
  /// count never double-count with the begins).
  uint64_t begin_events = 0;
  /// Satisfied from the resume journal (image_resumed event) rather
  /// than rescanned in the stream(s) being aggregated.
  bool resumed = false;
};

struct PhaseRollup {
  std::string phase;
  uint64_t runs = 0;
  double total_ms = 0.0;
};

struct FunctionRollup {
  std::string function;
  double total_ms = 0.0;
  uint64_t calls = 0;
  uint64_t cached = 0;  // of those, served from the summary cache
  /// Block-transfer memoization traffic summed over the function's
  /// explorations (from the function_end events' memo_* fields), so
  /// the hot-function table can show a memo hit rate next to the cost.
  uint64_t memo_hits = 0;
  uint64_t memo_lookups = 0;
};

struct ScanAggregate {
  size_t streams = 0;
  /// Streams with no stream_end event — killed/crashed/still running.
  size_t truncated_streams = 0;
  size_t events = 0;
  size_t malformed_lines = 0;

  std::vector<ImageRollup> images;  // first-seen order
  /// Name order; FinalizeAggregate appends an "unattributed" row when
  /// any binary ended: binary_end time no phase_end accounts for.
  std::vector<PhaseRollup> phases;
  /// All functions seen, time-descending (callers truncate to top-k
  /// via ScanReportOptions before rendering).
  std::vector<FunctionRollup> functions;
  std::map<std::string, uint64_t, std::less<>> incidents_by_phase;
  std::map<std::string, uint64_t, std::less<>> events_by_type;

  uint64_t binaries = 0;        // binary_end events
  double binary_ms = 0.0;       // their duration_ms, summed
  uint64_t findings = 0;        // finding events
  uint64_t incidents = 0;
  uint64_t degraded_functions = 0;  // function_end with degraded:true
  uint64_t heartbeats = 0;
  /// Supervisor lifecycle tallies (src/resilience/supervisor.h events;
  /// all zero for in-process scans, which never emit them).
  uint64_t image_retries = 0;     // image_retry events
  uint64_t quarantined_images = 0;  // image_quarantined events
  uint64_t worker_exits = 0;      // worker_exit events (failed attempts)
  uint64_t resumed_images = 0;    // image_resumed events
  /// Gauges of the most recent heartbeat across all streams.
  uint64_t last_images_done = 0;
  uint64_t last_images_total = 0;
  uint64_t last_functions_done = 0;
  double last_rss_mb = 0.0;
};

struct ScanReportOptions {
  size_t top_functions = 10;
};

/// Folds one stream's text (possibly truncated mid-line) into `agg`.
/// Never fails: unparseable lines bump malformed_lines.
void AggregateEvents(std::string_view ndjson, ScanAggregate* agg);

/// Sorts functions time-descending (name ascending on ties) and
/// truncates to options.top_functions. Call once after the last
/// AggregateEvents.
void FinalizeAggregate(ScanAggregate* agg, const ScanReportOptions& options);

/// Reads + aggregates + finalizes a list of stream files. Fails only
/// on an unreadable file, never on stream contents.
Result<ScanAggregate> AggregateEventFiles(
    const std::vector<std::string>& paths,
    const ScanReportOptions& options = {});

/// Fleet summary as markdown (the human/PR-comment form).
std::string AggregateToMarkdown(const ScanAggregate& agg);

/// Fleet summary as a JSON document (round-trips through
/// util/json.h's parser; validated in the test suite).
std::string AggregateToJson(const ScanAggregate& agg);

}  // namespace dtaint::obs
