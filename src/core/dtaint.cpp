#include "src/core/dtaint.h"

#include <algorithm>
#include <set>

#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/phase.h"
#include "src/obs/stopwatch.h"
#include "src/obs/trace.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/util/strings.h"

namespace dtaint {

std::string Finding::Summary() const {
  std::string out(VulnClassName(path.vuln_class));
  out += ": " + path.source_name + " -> " + path.sink_name + " in " +
         path.sink_function + " @" + HexStr(path.sink_site) + " (" +
         std::to_string(path.hops.size()) + " hops)";
  return out;
}

Result<AnalysisReport> DTaint::Analyze(const Binary& binary) const {
  return AnalyzeFunctions(binary, {});
}

Result<AnalysisReport> DTaint::AnalyzeFunctions(
    const Binary& binary, const std::vector<std::string>& only) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Stopwatch t_total;
  AnalysisReport report;
  report.binary_name = binary.soname;
  report.arch = binary.arch;
  obs::CollectPhases collect(report.phase_seconds);
  // Named from `binary`: `report` is moved out before the span ends.
  obs::Span binary_span(obs::Tracer::Global(), "binary", binary.soname);
  obs::EventStream& events = obs::EventStream::Global();
  obs::MetricsSnapshot metrics_before = registry.Snapshot();
  if (events.enabled()) {
    events.Emit(obs::Event("binary_begin")
                    .Str("binary", report.binary_name)
                    .Str("arch", ArchName(binary.arch)));
    events.Emit(obs::Event("alias_mode")
                    .Str("mode", config_.enable_alias
                                     ? AliasModeName(
                                           config_.interproc.alias_mode)
                                     : "off"));
  }
  DTAINT_LOG(obs::LogLevel::kInfo, "dtaint", "analyzing %s",
             report.binary_name.c_str());

  // 1. Lift and structure the whole binary.
  obs::PhaseScope lift("lift");
  CfgBuilder builder(binary);
  auto program_or = builder.BuildProgram();
  if (!program_or.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "dtaint", "lift failed for %s: %s",
               report.binary_name.c_str(),
               program_or.status().ToString().c_str());
    return program_or.status();
  }
  Program program = std::move(*program_or);
  for (const auto& [fn_name, status] : program.lift_failures) {
    Incident incident;
    incident.binary = report.binary_name;
    incident.phase = "lift";
    incident.detail = fn_name;
    incident.status = status;
    if (events.enabled()) EmitIncident(events, incident);
    report.incidents.push_back(std::move(incident));
    DTAINT_LOG(obs::LogLevel::kWarn, "dtaint", "%s: lift skipped %s: %s",
               report.binary_name.c_str(), fn_name.c_str(),
               status.ToString().c_str());
  }

  report.functions = program.functions.size();
  report.blocks = program.TotalBlocks();
  registry.counter("lift.functions").Add(report.functions);
  registry.counter("lift.blocks").Add(report.blocks);
  lift.Num("functions", report.functions)
      .Num("blocks", report.blocks)
      .Num("lift_failures", program.lift_failures.size())
      .Finish();

  // 2. The call graph of the functions to analyze. An optional focus
  // filter keeps the named functions plus everything transitively
  // reachable from them.
  obs::PhaseScope callgraph("callgraph");
  std::set<std::string> keep;
  if (!only.empty()) {
    // Seed + direct-call closure. Address-taken functions stay too:
    // they are potential indirect-call targets, and dropping them
    // would blind the structure-similarity resolution.
    std::vector<std::string> work(only.begin(), only.end());
    if (config_.enable_structsim) {
      for (const std::string& name : AddressTakenFunctions(program)) {
        work.push_back(name);
      }
    }
    while (!work.empty()) {
      std::string name = std::move(work.back());
      work.pop_back();
      if (!program.functions.count(name)) continue;
      if (!keep.insert(name).second) continue;
      for (const CallSite& cs : program.functions.at(name).callsites) {
        if (!cs.is_indirect && !cs.target_is_import &&
            !cs.target_name.empty()) {
          work.push_back(cs.target_name);
        }
      }
    }
    for (auto it = program.functions.begin();
         it != program.functions.end();) {
      if (!keep.count(it->first)) {
        program.fn_by_addr.erase(it->second.addr);
        it = program.functions.erase(it);
      } else {
        ++it;
      }
    }
  }
  report.analyzed_functions = program.functions.size();
  CallGraph graph = CallGraph::Build(program);
  callgraph.Finish();

  // 3. Intraprocedural symbolic analysis and alias recognition, once
  // per function (the summary phase); Algorithm-2 linking (link).
  SymEngine engine(binary, config_.engine);
  InterprocConfig interproc_config = config_.interproc;
  interproc_config.apply_alias = config_.enable_alias;
  BaseSummaries base = Summarize(program, graph, engine, interproc_config);
  // Only a structsim resolution can follow; then the linker keeps the
  // base summaries the relink needs.
  Linker linker(program, interproc_config);
  ProgramAnalysis analysis =
      config_.enable_structsim
          ? linker.Link(graph, std::move(base))
          : Link(program, graph, std::move(base), interproc_config);

  // 4. Indirect-call resolution via structure-layout similarity, then
  // a relink of what the resolved edges change, so flows cross them.
  if (config_.enable_structsim) {
    obs::PhaseScope structsim("structsim");
    // In on-demand alias mode the oracle adds the SSE resolution tier:
    // call-target SSEs matched against linked function-pointer stores
    // and their alias twins (null oracle = eager mode, tier disabled).
    auto resolutions = ResolveIndirectCalls(program, analysis.summaries,
                                            analysis.alias_oracle.get());
    report.indirect_calls_resolved = resolutions.size();
    registry.counter("structsim.indirect_calls_resolved")
        .Add(report.indirect_calls_resolved);
    structsim.Num("resolved", report.indirect_calls_resolved).Finish();
    linker.Relink(analysis);
  }
  report.interproc_stats = analysis.stats;
  report.call_graph_edges = program.CallEdgeCount();

  // 5. Sink-to-source path search + sanitization checks.
  if (FaultPlan::Global().ShouldFail(FaultSite::kPathfinder,
                                     report.binary_name)) {
    return Internal("injected pathfinder fault: " + report.binary_name);
  }
  std::vector<TaintPath> paths;
  {
    obs::PhaseScope pathfind("pathfind");
    PathFinder finder(program, analysis, config_.pathfinder);
    report.sink_count = finder.SinkCount();
    paths = finder.FindAll();
    report.total_paths = paths.size();
    report.pathfinder_stats = finder.stats();
    pathfind.Num("paths", report.total_paths).Num("sinks", report.sink_count);
  }
  obs::PhaseScope sanitize("sanitize");
  std::vector<TaintPath> vulnerable = FilterVulnerable(std::move(paths));
  report.pathfinder_stats.sanitized_away =
      report.total_paths - vulnerable.size();
  // Paths riding on degraded (over-approximated) flow are withheld:
  // reporting them would let a *smaller* budget produce *more*
  // findings. They count as suppressed and flip `complete` instead.
  size_t before_suppression = vulnerable.size();
  vulnerable.erase(std::remove_if(vulnerable.begin(), vulnerable.end(),
                                  [](const TaintPath& p) {
                                    return p.crossed_degraded;
                                  }),
                   vulnerable.end());
  report.suppressed_findings = before_suppression - vulnerable.size();
  report.vulnerable_paths = vulnerable.size();
  registry.counter("sanitize.paths_sanitized")
      .Add(report.pathfinder_stats.sanitized_away);
  registry.counter("resilience.findings_suppressed")
      .Add(report.suppressed_findings);
  for (TaintPath& path : vulnerable) {
    report.findings.push_back({std::move(path)});
  }
  sanitize.Num("sanitized", report.pathfinder_stats.sanitized_away)
      .Finish();
  if (events.enabled()) {
    for (const Finding& finding : report.findings) {
      const TaintPath& p = finding.path;
      events.Emit(obs::Event("finding")
                      .Str("class", VulnClassName(p.vuln_class))
                      .Str("source", p.source_name)
                      .Str("sink", p.sink_name)
                      .Str("sink_function", p.sink_function)
                      .Str("sink_site", HexStr(p.sink_site))
                      .Num("hops", static_cast<uint64_t>(p.hops.size()))
                      .Num("constraints",
                           static_cast<uint64_t>(p.constraints.size())));
    }
  }
  report.degraded_functions = report.interproc_stats.degraded_functions;
  for (const Incident& incident : report.interproc_stats.incidents) {
    if (events.enabled()) EmitIncident(events, incident);
    report.incidents.push_back(incident);
  }
  // Note: the engine's own max_paths truncation (FunctionSummary::
  // truncated) fires on nearly every real binary at default config and
  // is the normal bounded-exploration baseline, so it does NOT flip
  // `complete` — only the resilience machinery (lift failures, budget
  // degradation, finding suppression) and pathfinder depth pruning do.
  report.complete = report.incidents.empty() &&
                    report.suppressed_findings == 0 &&
                    report.degraded_functions == 0 &&
                    report.pathfinder_stats.pruned_by_depth == 0;

  // 6. Free the program, the call graph and the linked summaries inside
  // the measured total, so the binary span and `total` end together.
  {
    obs::PhaseScope teardown("teardown");
    analysis = {};
    graph = {};
    program = {};
  }
  report.total_seconds = t_total.Seconds();
  binary_span.Finish();
  const obs::PhaseTimings& phases = report.phase_seconds;
  report.ssa_seconds = phases.Seconds("lift") + phases.Seconds("callgraph") +
                       phases.Seconds("summary") + phases.Seconds("link");
  report.ddg_seconds = phases.Seconds("structsim") +
                       phases.Seconds("relink") + phases.Seconds("pathfind") +
                       phases.Seconds("sanitize");
  // Fold the path-search/sanitization expression traffic into the
  // intern.* counters before the per-run delta is taken.
  ExprInterner::Global().PublishMetrics();
  report.metrics = registry.Snapshot().DeltaSince(metrics_before);
  if (events.enabled()) {
    events.Emit(obs::Event("binary_end")
                    .Str("binary", report.binary_name)
                    .Num("functions",
                         static_cast<uint64_t>(report.analyzed_functions))
                    .Num("findings",
                         static_cast<uint64_t>(report.findings.size()))
                    .Bool("complete", report.complete)
                    .Double("duration_ms", report.total_seconds * 1e3));
  }
  DTAINT_LOG(obs::LogLevel::kInfo, "dtaint",
             "%s: %zu findings (%zu paths, %zu sanitized) in %.3fs",
             report.binary_name.c_str(), report.findings.size(),
             report.total_paths, report.pathfinder_stats.sanitized_away,
             report.total_seconds);
  return report;
}

}  // namespace dtaint
