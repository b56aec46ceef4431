#include "perfbench/pipeline.h"

#include <algorithm>
#include <utility>

#include "perfbench/corpus.h"
#include "src/binary/loader.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/core/interproc.h"
#include "src/core/pathfinder.h"
#include "src/core/sanitizer.h"
#include "src/core/structsim.h"
#include "src/firmware/extractor.h"
#include "src/obs/metrics.h"
#include "src/report/json.h"
#include "src/symexec/intern.h"

namespace perfbench {
namespace {

using dtaint::obs::MetricsRegistry;
using dtaint::obs::MetricsSnapshot;

/// Registry counters every record carries (per-image deltas).
const char* const kRegistryCounters[] = {
    "summary.functions",       "summary.functions_done",
    "link.defs_propagated",    "link.uses_forwarded",
    "link.rets_replaced",      "pathfind.sinks_visited",
    "pathfind.paths_explored", "pathfind.paths_found",
    "pathfind.pruned_by_depth", "alias.pairs_added",
    "engine.state_forks",      "engine.block_memo_hits",
    "engine.block_memo_lookups", "intern.hits",
    "intern.nodes",            "cache.hits",
    "cache.misses",            "cache.stores",
    "cache.disk_hits",         "cache.corrupt_entries",
};

void CopyCounters(const MetricsSnapshot& delta, ImageRecord& record) {
  for (const char* name : kRegistryCounters) {
    record.counters[name] = delta.CounterValue(name);
  }
}

/// Image status after a failed extraction: encrypted and unknown
/// packings are the expected attrition; anything else is a failure.
const char* ExtractFailure(const dtaint::Status& status) {
  return status.code() == dtaint::StatusCode::kUnsupported ? "unextractable"
                                                           : "failed";
}

dtaint::DTaintConfig BenchConfig(dtaint::SummaryCache* cache) {
  dtaint::DTaintConfig config;
  config.interproc.num_threads = 1;
  config.interproc.cache = cache;
  return config;
}

}  // namespace

int SpanLog::Begin(std::string_view name, int parent, uint32_t image) {
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.image = image;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

ImageRecord ScanImage(const std::vector<uint8_t>& blob,
                      const std::string& label, uint32_t index,
                      dtaint::SummaryCache* cache) {
  ImageRecord record;
  record.index = index;
  auto extracted = dtaint::FirmwareExtractor::Extract(blob, label);
  if (!extracted.ok()) {
    record.status = ExtractFailure(extracted.status());
    return record;
  }
  const dtaint::FirmwareFile* file = extracted->image.FindFile(kBinaryPath);
  if (!file) {
    record.status = "failed";
    return record;
  }
  auto binary = dtaint::BinaryLoader::Load(file->bytes, label + kBinaryPath);
  if (!binary.ok()) {
    record.status = "failed";
    return record;
  }
  auto report = dtaint::DTaint(BenchConfig(cache)).Analyze(*binary);
  if (!report.ok()) {
    record.status = "failed";
    return record;
  }
  record.status = "ok";
  record.complete = report->complete;
  record.findings_json = dtaint::FindingsToJson(report->findings);
  CopyCounters(report->metrics, record);
  record.counters["structsim.resolutions"] = report->indirect_calls_resolved;
  record.counters["cfg.functions"] = report->functions;
  record.counters["cfg.blocks"] = report->blocks;
  record.counters["sanitizer.paths_sanitized"] =
      report->pathfinder_stats.sanitized_away;
  return record;
}

namespace {

/// Times the destruction of a scan's working state. Declared before
/// that state, it is destroyed after it; Start() marks the moment the
/// scan is done with the state.
class TeardownSpan {
 public:
  TeardownSpan(SpanLog& log, int parent, uint32_t image)
      : log_(log), parent_(parent), image_(image) {}
  ~TeardownSpan() {
    if (index_ >= 0) log_.End(index_);
  }
  TeardownSpan(const TeardownSpan&) = delete;
  TeardownSpan& operator=(const TeardownSpan&) = delete;

  void Start() { index_ = log_.Begin("teardown", parent_, image_); }

 private:
  SpanLog& log_;
  int parent_;
  uint32_t image_;
  int index_ = -1;
};

/// The body of TracedScanImage: extraction to serialization, one span
/// per public call. Returns the image status.
std::string TracedPipeline(const std::vector<uint8_t>& blob,
                           const std::string& label, uint32_t index,
                           dtaint::SummaryCache* cache, SpanLog& log, int root,
                           const MetricsSnapshot& before,
                           ImageRecord& record) {
  TeardownSpan teardown(log, root, index);
  int span = log.Begin("firmware.extract", root, index);
  auto extracted = dtaint::FirmwareExtractor::Extract(blob, label);
  log.End(span);
  if (!extracted.ok()) return ExtractFailure(extracted.status());
  span = log.Begin("binary.load", root, index);
  const dtaint::FirmwareFile* file = extracted->image.FindFile(kBinaryPath);
  auto binary = file ? dtaint::BinaryLoader::Load(file->bytes,
                                                  label + kBinaryPath)
                     : dtaint::Result<dtaint::Binary>(
                           dtaint::NotFound("no binary in image"));
  log.End(span);
  if (!binary.ok()) return "failed";

  // The body of DTaint::AnalyzeFunctions with an empty focus filter.
  const dtaint::DTaintConfig config = BenchConfig(cache);
  span = log.Begin("cfg.build", root, index);
  auto program_or = dtaint::CfgBuilder(*binary).BuildProgram();
  if (!program_or.ok()) {
    log.End(span);
    return "failed";
  }
  dtaint::Program program = std::move(*program_or);
  dtaint::CallGraph graph = dtaint::CallGraph::Build(program);
  log.End(span);

  span = log.Begin("interproc.summarize", root, index);
  dtaint::SymEngine engine(*binary, config.engine);
  dtaint::InterprocConfig interproc = config.interproc;
  interproc.apply_alias = config.enable_alias;
  dtaint::ProgramAnalysis analysis =
      dtaint::RunBottomUp(program, graph, engine, interproc);
  log.End(span);
  record.summary_seconds = analysis.stats.summary_seconds;
  record.counters["interproc.functions_summarized"] =
      analysis.stats.functions_processed;

  span = log.Begin("structsim.resolve", root, index);
  auto resolutions = dtaint::ResolveIndirectCalls(
      program, analysis.summaries, analysis.alias_oracle.get());
  log.End(span);

  span = log.Begin("interproc.relink", root, index);
  size_t resummarized = 0;
  if (!resolutions.empty()) {
    dtaint::CallGraph relinked = dtaint::CallGraph::Build(program);
    analysis = dtaint::RunBottomUp(program, relinked, engine, interproc);
    resummarized = analysis.stats.functions_processed;
  }
  log.End(span);

  span = log.Begin("pathfinder.find", root, index);
  dtaint::PathFinder finder(program, analysis, config.pathfinder);
  finder.SinkCount();
  std::vector<dtaint::TaintPath> paths = finder.FindAll();
  log.End(span);

  span = log.Begin("sanitizer.filter", root, index);
  const size_t total_paths = paths.size();
  std::vector<dtaint::TaintPath> vulnerable =
      dtaint::FilterVulnerable(std::move(paths));
  const size_t sanitized_away = total_paths - vulnerable.size();
  const size_t before_suppression = vulnerable.size();
  std::erase_if(vulnerable,
                [](const dtaint::TaintPath& p) { return p.crossed_degraded; });
  const size_t suppressed = before_suppression - vulnerable.size();
  std::vector<dtaint::Finding> findings;
  findings.reserve(vulnerable.size());
  for (dtaint::TaintPath& path : vulnerable) {
    findings.push_back({std::move(path)});
  }
  log.End(span);

  span = log.Begin("report.serialize", root, index);
  record.findings_json = dtaint::FindingsToJson(findings);
  log.End(span);

  record.complete = program.lift_failures.empty() &&
                    analysis.stats.incidents.empty() && suppressed == 0 &&
                    analysis.stats.degraded_functions == 0 &&
                    finder.stats().pruned_by_depth == 0;
  dtaint::ExprInterner::Global().PublishMetrics();
  CopyCounters(MetricsRegistry::Global().Snapshot().DeltaSince(before),
               record);
  record.counters["structsim.resolutions"] = resolutions.size();
  record.counters["interproc.functions_resummarized"] = resummarized;
  record.counters["cfg.functions"] = program.functions.size();
  record.counters["cfg.blocks"] = program.TotalBlocks();
  record.counters["sanitizer.paths_sanitized"] = sanitized_away;
  teardown.Start();
  return "ok";
}

}  // namespace

ImageRecord TracedScanImage(const std::vector<uint8_t>& blob,
                            const std::string& label, uint32_t index,
                            dtaint::SummaryCache* cache) {
  ImageRecord record;
  record.index = index;
  SpanLog log;
  const int root = log.Begin("image", -1, index);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  record.status = TracedPipeline(blob, label, index, cache, log, root,
                                 before, record);
  log.End(root);
  record.spans = std::move(log.spans());
  return record;
}

}  // namespace perfbench
