#include "src/core/dtaint.h"

#include <algorithm>
#include <set>

#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/stopwatch.h"
#include "src/obs/trace.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/util/strings.h"

namespace dtaint {

namespace {

/// True if `program` has an indirect call site: the only thing
/// ResolveIndirectCalls resolves, hence the only reason to re-link.
bool HasIndirectCallSite(const Program& program) {
  for (const auto& [name, fn] : program.functions) {
    for (const CallSite& cs : fn.callsites) {
      if (cs.is_indirect) return true;
    }
  }
  return false;
}

}  // namespace

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
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Stopwatch t_total;
  AnalysisReport report;
  report.binary_name = binary.soname;
  report.arch = binary.arch;
  // Named from `binary`: `report` is moved out before the span ends.
  obs::Span binary_span(tracer, "binary", binary.soname);
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
  obs::Stopwatch t_ssa;
  obs::Span lift_span(tracer, "phase", "lift");
  obs::Stopwatch t_lift;
  if (events.enabled()) {
    events.Emit(obs::Event("phase_begin").Str("phase", "lift"));
  }
  CfgBuilder builder(binary);
  auto program_or = builder.BuildProgram();
  if (!program_or.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "dtaint", "lift failed for %s: %s",
               report.binary_name.c_str(),
               program_or.status().ToString().c_str());
    return program_or.status();
  }
  Program program = std::move(*program_or);
  lift_span.Finish();
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
  if (events.enabled()) {
    events.Emit(obs::Event("phase_end")
                    .Str("phase", "lift")
                    .Double("duration_ms", t_lift.Seconds() * 1e3)
                    .Num("functions", static_cast<uint64_t>(report.functions))
                    .Num("blocks", static_cast<uint64_t>(report.blocks))
                    .Num("lift_failures",
                         static_cast<uint64_t>(
                             program.lift_failures.size())));
  }

  // Optional focus filter: keep the named functions plus everything
  // transitively reachable from them.
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

  // 2. Intraprocedural symbolic analysis and alias recognition, once
  // per function; Algorithm-2 linking.
  SymEngine engine(binary, config_.engine);
  InterprocConfig interproc_config = config_.interproc;
  interproc_config.apply_alias = config_.enable_alias;

  CallGraph graph = CallGraph::Build(program);
  BaseSummaries base = Summarize(program, graph, engine, interproc_config);
  // Linking consumes the base summaries; copy them only when a re-link
  // can follow (structsim on, and an indirect call site to resolve).
  BaseSummaries relink_base;
  if (config_.enable_structsim && HasIndirectCallSite(program)) {
    relink_base = base;
  }
  ProgramAnalysis analysis =
      Link(program, graph, std::move(base), interproc_config);
  report.ssa_seconds = t_ssa.Seconds();

  // 3. Indirect-call resolution via structure-layout similarity, then
  // re-link the same base summaries so flows cross the resolved edges.
  obs::Stopwatch t_ddg;
  if (config_.enable_structsim) {
    obs::Span structsim_span(tracer, "phase", "structsim");
    obs::Stopwatch t_structsim;
    if (events.enabled()) {
      events.Emit(obs::Event("phase_begin").Str("phase", "structsim"));
    }
    // In on-demand alias mode the oracle adds the SSE resolution tier:
    // call-target SSEs matched against linked function-pointer stores
    // and their alias twins (null oracle = eager mode, tier disabled).
    auto resolutions = ResolveIndirectCalls(program, analysis.summaries,
                                            analysis.alias_oracle.get());
    report.indirect_calls_resolved = resolutions.size();
    registry.counter("structsim.indirect_calls_resolved")
        .Add(report.indirect_calls_resolved);
    structsim_span.Finish();
    if (events.enabled()) {
      events.Emit(obs::Event("phase_end")
                      .Str("phase", "structsim")
                      .Double("duration_ms", t_structsim.Seconds() * 1e3)
                      .Num("resolved",
                           static_cast<uint64_t>(
                               report.indirect_calls_resolved)));
    }
    if (!resolutions.empty()) {
      analysis = Link(program, CallGraph::Build(program),
                      std::move(relink_base), interproc_config);
    }
  }
  report.interproc_stats = analysis.stats;
  report.call_graph_edges = program.CallEdgeCount();

  // 4. Sink-to-source path search + sanitization checks.
  if (FaultPlan::Global().ShouldFail(FaultSite::kPathfinder,
                                     report.binary_name)) {
    return Internal("injected pathfinder fault: " + report.binary_name);
  }
  PathFinder finder(program, analysis, config_.pathfinder);
  report.sink_count = finder.SinkCount();
  obs::Span pathfind_span(tracer, "phase", "pathfind");
  obs::Stopwatch t_pathfind;
  if (events.enabled()) {
    events.Emit(obs::Event("phase_begin").Str("phase", "pathfind"));
  }
  std::vector<TaintPath> paths = finder.FindAll();
  pathfind_span.Finish();
  report.total_paths = paths.size();
  report.pathfinder_stats = finder.stats();
  if (events.enabled()) {
    events.Emit(obs::Event("phase_end")
                    .Str("phase", "pathfind")
                    .Double("duration_ms", t_pathfind.Seconds() * 1e3)
                    .Num("paths", static_cast<uint64_t>(report.total_paths))
                    .Num("sinks", static_cast<uint64_t>(report.sink_count)));
    events.Emit(obs::Event("phase_begin").Str("phase", "sanitize"));
  }
  obs::Span sanitize_span(tracer, "phase", "sanitize");
  obs::Stopwatch t_sanitize;
  std::vector<TaintPath> vulnerable = FilterVulnerable(std::move(paths));
  sanitize_span.Finish();
  report.pathfinder_stats.sanitized_away =
      report.total_paths - vulnerable.size();
  if (events.enabled()) {
    events.Emit(obs::Event("phase_end")
                    .Str("phase", "sanitize")
                    .Double("duration_ms", t_sanitize.Seconds() * 1e3)
                    .Num("sanitized",
                         static_cast<uint64_t>(
                             report.pathfinder_stats.sanitized_away)));
  }
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
  report.ddg_seconds = t_ddg.Seconds();
  report.total_seconds = t_total.Seconds();
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
