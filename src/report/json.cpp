#include "src/report/json.h"

#include "src/util/json_writer.h"
#include "src/util/strings.h"

namespace dtaint {

namespace {

/// Emits one finding object (shared by ReportToJson and
/// FindingsToJson so the two stay schema-identical).
void AppendFinding(JsonBuilder& json, const Finding& finding) {
  const TaintPath& path = finding.path;
  json.BeginObject();
  json.Key("class");
  json.String(VulnClassName(path.vuln_class));
  json.Key("sink");
  json.String(path.sink_name);
  json.Key("source");
  json.String(path.source_name);
  json.Key("function");
  json.String(path.sink_function);
  json.Key("sink_site");
  json.String(HexStr(path.sink_site));
  json.Key("source_site");
  json.String(HexStr(path.source_site));
  if (path.sink_arg) {
    json.Key("sink_argument");
    json.String(path.sink_arg->ToString());
  }
  json.Key("hops");
  json.BeginArray();
  for (const PathHop& hop : path.hops) {
    json.BeginObject();
    json.Key("function");
    json.String(hop.function);
    json.Key("site");
    json.String(HexStr(hop.site));
    json.Key("note");
    json.String(hop.note);
    json.EndObject();
  }
  json.EndArray();
  json.Key("constraints");
  json.BeginArray();
  for (const PathConstraint& c : path.constraints) {
    json.String(c.ToString());
  }
  json.EndArray();
  json.EndObject();
}

}  // namespace

std::string ReportToJson(const AnalysisReport& report) {
  JsonBuilder json;
  json.BeginObject();
  json.Key("binary");
  json.String(report.binary_name);
  json.Key("arch");
  json.String(ArchName(report.arch));
  json.Key("complete");
  json.Bool(report.complete);

  json.Key("shape");
  json.BeginObject();
  json.Key("functions");
  json.Number(static_cast<uint64_t>(report.functions));
  json.Key("analyzed_functions");
  json.Number(static_cast<uint64_t>(report.analyzed_functions));
  json.Key("blocks");
  json.Number(static_cast<uint64_t>(report.blocks));
  json.Key("call_graph_edges");
  json.Number(static_cast<uint64_t>(report.call_graph_edges));
  json.Key("sink_count");
  json.Number(static_cast<uint64_t>(report.sink_count));
  json.EndObject();

  json.Key("timings_seconds");
  json.BeginObject();
  json.Key("ssa");
  json.Number(report.ssa_seconds);
  json.Key("ddg");
  json.Number(report.ddg_seconds);
  json.Key("total");
  json.Number(report.total_seconds);
  if (!report.phase_seconds.entries().empty()) {
    for (const auto& [phase, seconds] : report.phase_seconds.entries()) {
      json.Key(phase);
      json.Number(seconds);
    }
    json.Key("unattributed");
    json.Number(report.unattributed_seconds());
  }
  json.EndObject();

  json.Key("paths");
  json.BeginObject();
  json.Key("total");
  json.Number(static_cast<uint64_t>(report.total_paths));
  json.Key("vulnerable");
  json.Number(static_cast<uint64_t>(report.vulnerable_paths));
  json.EndObject();

  json.Key("interproc");
  json.BeginObject();
  json.Key("summary_seconds");
  json.Number(report.interproc_stats.summary_seconds);
  json.Key("functions_processed");
  json.Number(static_cast<uint64_t>(report.interproc_stats.functions_processed));
  json.Key("defs_propagated");
  json.Number(static_cast<uint64_t>(report.interproc_stats.defs_propagated));
  json.Key("uses_forwarded");
  json.Number(static_cast<uint64_t>(report.interproc_stats.uses_forwarded));
  json.Key("rets_replaced");
  json.Number(static_cast<uint64_t>(report.interproc_stats.rets_replaced));
  json.Key("alias_pairs_added");
  json.Number(static_cast<uint64_t>(report.interproc_stats.alias_pairs_added));
  json.Key("indirect_calls_resolved");
  json.Number(static_cast<uint64_t>(report.indirect_calls_resolved));
  json.Key("cache");
  json.BeginObject();
  json.Key("hits");
  json.Number(static_cast<uint64_t>(report.interproc_stats.cache_hits));
  json.Key("misses");
  json.Number(static_cast<uint64_t>(report.interproc_stats.cache_misses));
  json.Key("evictions");
  json.Number(static_cast<uint64_t>(report.interproc_stats.cache_evictions));
  json.Key("memory_bytes");
  json.Number(
      static_cast<uint64_t>(report.interproc_stats.cache_memory_bytes));
  json.EndObject();
  json.EndObject();

  json.Key("pathfinder");
  json.BeginObject();
  json.Key("sinks_visited");
  json.Number(static_cast<uint64_t>(report.pathfinder_stats.sinks_visited));
  json.Key("paths_explored");
  json.Number(static_cast<uint64_t>(report.pathfinder_stats.paths_explored));
  json.Key("pruned_by_depth");
  json.Number(static_cast<uint64_t>(report.pathfinder_stats.pruned_by_depth));
  json.Key("paths_found");
  json.Number(static_cast<uint64_t>(report.pathfinder_stats.paths_found));
  json.Key("degraded_paths");
  json.Number(static_cast<uint64_t>(report.pathfinder_stats.degraded_paths));
  json.Key("sanitized_away");
  json.Number(static_cast<uint64_t>(report.pathfinder_stats.sanitized_away));
  json.EndObject();

  json.Key("resilience");
  json.BeginObject();
  json.Key("degraded_functions");
  json.Number(static_cast<uint64_t>(report.degraded_functions));
  json.Key("truncated_functions");
  json.Number(
      static_cast<uint64_t>(report.interproc_stats.truncated_functions));
  json.Key("suppressed_findings");
  json.Number(static_cast<uint64_t>(report.suppressed_findings));
  json.EndObject();

  json.Key("incidents");
  json.Raw(IncidentsToJson(report.incidents));

  json.Key("hot_functions");
  json.BeginArray();
  for (const HotFunction& hot : report.interproc_stats.hot_functions) {
    json.BeginObject();
    json.Key("name");
    json.String(hot.name);
    json.Key("seconds");
    json.Number(hot.seconds);
    json.Key("cached");
    json.Bool(hot.cached);
    json.EndObject();
  }
  json.EndArray();

  json.Key("metrics");
  json.Raw(obs::MetricsSnapshotToJson(report.metrics));

  json.Key("findings");
  json.BeginArray();
  for (const Finding& finding : report.findings) {
    AppendFinding(json, finding);
  }
  json.EndArray();
  json.EndObject();
  return std::move(json).Take();
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  JsonBuilder json;
  json.BeginArray();
  for (const Finding& finding : findings) {
    AppendFinding(json, finding);
  }
  json.EndArray();
  return std::move(json).Take();
}

std::string ScoreToJson(const DetectionScore& score) {
  JsonBuilder json;
  json.BeginObject();
  json.Key("true_positives");
  json.Number(static_cast<uint64_t>(score.true_positives));
  json.Key("false_positives");
  json.Number(static_cast<uint64_t>(score.false_positives));
  json.Key("false_negatives");
  json.Number(static_cast<uint64_t>(score.false_negatives));
  json.Key("safe_twin_hits");
  json.Number(static_cast<uint64_t>(score.safe_twin_hits));
  json.Key("precision");
  json.Number(score.Precision());
  json.Key("recall");
  json.Number(score.Recall());
  json.Key("found");
  json.BeginArray();
  for (const std::string& id : score.found_ids) json.String(id);
  json.EndArray();
  json.Key("missed");
  json.BeginArray();
  for (const std::string& id : score.missed_ids) json.String(id);
  json.EndArray();
  json.EndObject();
  return std::move(json).Take();
}

}  // namespace dtaint
