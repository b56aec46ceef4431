// JSON serialization of analysis reports — the machine-readable output
// a downstream CI pipeline or triage UI would consume.
#pragma once

#include <string>

#include "src/core/dtaint.h"
#include "src/report/scoring.h"
#include "src/util/strings.h"  // JsonEscape

namespace dtaint {

/// Serializes a full analysis report:
/// { "binary": ..., "arch": ..., "complete": bool, "shape": {...},
///   "timings_seconds": {ssa, ddg, total, <each phase that ran>,
///   unattributed}, "interproc": {...},
///   "pathfinder": {sinks_visited, paths_explored, pruned_by_depth,
///   paths_found, degraded_paths, sanitized_away},
///   "resilience": {degraded_functions, truncated_functions,
///   suppressed_findings}, "incidents": [...],
///   "hot_functions": [{name, seconds, cached} ...],
///   "metrics": {counters, gauges, histograms}  (per-run delta),
///   "findings": [ {class, sink, source, function, site, hops:[...],
///                  constraints:[...]} ... ] }
std::string ReportToJson(const AnalysisReport& report);

/// Serializes just the findings array (same element schema as
/// ReportToJson's "findings"). Deterministic for a given analysis —
/// no timings or metrics — so differential tests and fleet reports can
/// compare detection output byte-for-byte across runs.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// Serializes a detection score (precision/recall vs ground truth).
std::string ScoreToJson(const DetectionScore& score);

}  // namespace dtaint
