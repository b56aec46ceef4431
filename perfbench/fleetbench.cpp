// fleetbench: one repetition of one fleet benchmark workload.
//
//   fleetbench --workload NAME --seed N --workdir DIR
//              [--traced] [--check-cold] [--images N] [--spans-out FILE]
//
// Synthesizes the workload's corpus from the seed, sets up (for
// isolated_rescan: runs the cold scan that populates the summary cache),
// then scans every image, timing each from dispatch to its serialized
// verdict; isolated_rescan makes six such passes, each after its own
// firmware update. Every timed image and the set-up run between two
// HostClock probes, which report the host's speed at that moment
// (perfbench/hostclock.h). Afterwards it checks every verdict against
// references independent of the analyzer and prints one JSON object on
// stdout; perfbench/run.py turns repetitions into the benchmark's
// metrics.
//
// Each invocation is a fresh process with no warm-up: the expression
// interner lives for the whole process, and a user pays its warm-up
// once per scan. The analysis runs on one thread; isolated_rescan uses
// one supervisor worker.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/corpus.h"
#include "perfbench/hostclock.h"
#include "perfbench/pipeline.h"
#include "src/cache/summary_cache.h"
#include "src/resilience/supervisor.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/json_writer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dtaint::JsonBuilder;
using dtaint::JsonValue;

/// Timed passes per isolated_rescan process (see Run).
constexpr int kIsolatedPasses = 6;

struct Options {
  Workload workload = Workload::kFleetScan;
  std::string workload_name;
  uint64_t seed = 1;
  std::string workdir;
  bool traced = false;
  bool check_cold = false;  // isolated_rescan: compare with a cold scan
  size_t images = 0;  // 0: DefaultImages(workload)
  std::string spans_out;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--traced") {
      options->traced = true;
      continue;
    }
    if (arg == "--check-cold") {
      options->check_cold = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload_name = value;
      if (!ParseWorkload(value, &options->workload)) return false;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--workdir") {
      options->workdir = value;
    } else if (arg == "--images") {
      options->images = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--spans-out") {
      options->spans_out = value;
    } else {
      return false;
    }
  }
  if (options->images == 0) {
    options->images = DefaultImages(options->workload);
  }
  return !options->workload_name.empty() && !options->workdir.empty();
}

/// Writes a double with all its significant digits (JsonBuilder keeps
/// six decimals, too few for per-image seconds).
void AddDouble(JsonBuilder& json, std::string_view key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  json.Key(key);
  json.Raw(buf);
}

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double UserSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
}

rusage Usage(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return usage;
}

// ---- records crossing the worker boundary ----------------------------------

/// One NDJSON line: everything in an ImageRecord except the verdict,
/// which travels in the supervisor's own ScanOutcome frame.
std::string RecordLine(const ImageRecord& record) {
  JsonBuilder json;
  json.BeginObject();
  json.Key("index");
  json.Number(static_cast<uint64_t>(record.index));
  json.Key("summary_ns");
  json.Number(static_cast<uint64_t>(record.summary_seconds * 1e9));
  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : record.counters) {
    json.Key(name);
    json.Number(value);
  }
  json.EndObject();
  json.Key("spans");
  json.BeginArray();
  for (const Span& span : record.spans) {
    json.BeginArray();
    json.String(span.name);
    json.Number(static_cast<uint64_t>(span.start_ns));
    json.Number(static_cast<uint64_t>(span.end_ns));
    json.Raw(std::to_string(span.parent));
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
  std::string line = std::move(json).Take();
  line += '\n';
  return line;
}

/// Appends one line with a single O_APPEND write (whole or absent).
bool AppendLine(const std::string& path, const std::string& line) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return false;
  ssize_t written = ::write(fd, line.data(), line.size());
  ::close(fd);
  return written == static_cast<ssize_t>(line.size());
}

/// Folds worker record lines back into `records` (matched by index).
bool ReadRecordLines(const std::string& path,
                     std::vector<ImageRecord>& records) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = dtaint::ParseJson(line);
    if (!parsed.ok()) return false;
    const JsonValue& value = *parsed;
    size_t index = static_cast<size_t>(value.Find("index")->number());
    if (index >= records.size()) return false;
    ImageRecord& record = records[index];
    record.summary_seconds = value.Find("summary_ns")->number() * 1e-9;
    for (const auto& [name, count] : value.Find("counters")->object()) {
      record.counters[name] = static_cast<uint64_t>(count.number());
    }
    for (const JsonValue& item : value.Find("spans")->array()) {
      const JsonValue::Array& fields = item.array();
      Span span;
      span.name = fields[0].string();
      span.start_ns = static_cast<int64_t>(fields[1].number());
      span.end_ns = static_cast<int64_t>(fields[2].number());
      span.parent = static_cast<int>(fields[3].number());
      span.image = static_cast<uint32_t>(index);
      record.spans.push_back(std::move(span));
    }
  }
  return true;
}

// ---- the scans -------------------------------------------------------------

struct ScanResult {
  std::vector<ImageRecord> records;
  /// Per image: raw wall time from dispatch to verdict, the host-speed
  /// factor of its HostClock lap, and user+sys CPU seconds of this
  /// process and of the workers it waited for.
  std::vector<int64_t> latency_ns;
  std::vector<double> factor;
  std::vector<double> cpu_self_s;
  std::vector<double> cpu_children_s;
  std::vector<double> cpu_user_s;  // user-mode part of both
  /// Parent-side dispatch spans, one per image (the span tree's roots).
  std::vector<Span> dispatch;
  /// Summed over the per-image ScanSupervisor::Run calls.
  dtaint::SupervisorStats supervisor;
  /// Images that failed at the supervisor level: quarantined, or run
  /// in-process because isolation was unavailable.
  std::vector<bool> supervisor_failed;
};

ImageRecord RunPipeline(bool traced, const CorpusImage& image, uint32_t index,
                        dtaint::SummaryCache* cache) {
  return traced ? TracedScanImage(image.blob, image.label, index, cache)
                : ScanImage(image.blob, image.label, index, cache);
}

/// Times one image and ends the HostClock lap that holds it, so one
/// probe runs right after the image and the previous one (after the
/// previous image or the set-up) right before it.
template <typename Scan>
void TimeImage(HostClock& clock, uint32_t index, ScanResult& result,
               Scan&& scan) {
  const rusage self_before = Usage(RUSAGE_SELF);
  const rusage children_before = Usage(RUSAGE_CHILDREN);
  Span dispatch{"dispatch", NowNs(), 0, -1, index};
  scan();
  dispatch.end_ns = NowNs();
  result.cpu_self_s.push_back(CpuSeconds(Usage(RUSAGE_SELF)) -
                              CpuSeconds(self_before));
  result.cpu_children_s.push_back(CpuSeconds(Usage(RUSAGE_CHILDREN)) -
                                  CpuSeconds(children_before));
  result.cpu_user_s.push_back(
      UserSeconds(Usage(RUSAGE_SELF)) + UserSeconds(Usage(RUSAGE_CHILDREN)) -
      UserSeconds(self_before) - UserSeconds(children_before));
  result.factor.push_back(clock.Next().factor);
  result.latency_ns.push_back(dispatch.end_ns - dispatch.start_ns);
  result.dispatch.push_back(std::move(dispatch));
}

ScanResult ScanInProcess(const std::vector<CorpusImage>& corpus, bool traced,
                         dtaint::SummaryCache* cache, HostClock& clock) {
  ScanResult result;
  result.records.reserve(corpus.size());
  result.supervisor_failed.assign(corpus.size(), false);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const uint32_t index = static_cast<uint32_t>(i);
    TimeImage(clock, index, result, [&] {
      result.records.push_back(RunPipeline(traced, corpus[i], index, cache));
    });
  }
  return result;
}

/// One ScanSupervisor::Run call per image, so each image's latency is
/// taken in the parent from dispatch to the decoded outcome. Workers
/// report counters and spans through `records_path`.
ScanResult ScanIsolated(const std::vector<CorpusImage>& corpus, bool traced,
                        dtaint::SummaryCache* cache,
                        const std::string& journal_dir,
                        const std::string& records_path, HostClock& clock) {
  dtaint::SupervisorConfig config;
  config.workers = 1;
  config.journal_dir = journal_dir;
  dtaint::ScanSupervisor supervisor(config);

  ScanResult result;
  result.records.resize(corpus.size());
  result.supervisor_failed.assign(corpus.size(), false);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const CorpusImage& image = corpus[i];
    const uint32_t index = static_cast<uint32_t>(i);
    dtaint::TaskSpec task;
    task.label = image.label;
    task.fingerprint = dtaint::Fingerprint128()
                           .Mix(std::span<const uint8_t>(image.blob))
                           .Digest()
                           .ToHex();
    auto body = [&](size_t, const dtaint::AnalysisBudget&) {
      ImageRecord record = RunPipeline(traced, image, index, cache);
      if (!AppendLine(records_path, RecordLine(record))) {
        std::fprintf(stderr, "fleetbench: cannot append %s\n",
                     records_path.c_str());
      }
      dtaint::ScanOutcome outcome;
      outcome.status = record.status;
      outcome.row = record.status;
      outcome.complete = record.complete;
      outcome.findings_json = record.findings_json;
      outcome.functions = record.counters["cfg.functions"];
      return outcome;
    };
    std::vector<dtaint::TaskResult> results;
    TimeImage(clock, index, result,
              [&] { results = supervisor.Run({task}, body); });

    const dtaint::SupervisorStats& stats = supervisor.stats();
    result.supervisor.workers_spawned += stats.workers_spawned;
    result.supervisor.worker_failures += stats.worker_failures;
    result.supervisor.in_process_fallbacks += stats.in_process_fallbacks;

    ImageRecord& record = result.records[i];
    record.index = index;
    const dtaint::TaskResult& task_result = results.front();
    if (task_result.state == dtaint::TaskResult::State::kDone) {
      record.status = task_result.outcome.status;
      record.complete = task_result.outcome.complete;
      record.findings_json = task_result.outcome.findings_json;
    } else {
      record.status = "quarantined";
    }
    result.supervisor_failed[i] =
        task_result.state != dtaint::TaskResult::State::kDone ||
        task_result.in_process || task_result.attempts != 1;
  }
  if (!ReadRecordLines(records_path, result.records)) {
    throw std::runtime_error("unreadable worker records in " + records_path);
  }
  return result;
}

// ---- verdict checks --------------------------------------------------------

struct Verdict {
  bool verdict_ok = false;
  bool failed = false;
  size_t tp = 0, fn = 0, fp = 0;
  std::string reason;
};

/// Scores a verdict against the image's planted ground truth and its
/// packing: a finding counts for a vulnerable plant when it names the
/// plant's sink function and sink; any other finding (a sanitized twin
/// included) is a false positive. Only complete images are scored.
Verdict Judge(const CorpusImage& image, const ImageRecord& record,
              bool supervisor_failed) {
  Verdict verdict;
  verdict.failed = supervisor_failed || record.status == "failed" ||
                   record.status == "quarantined" ||
                   (record.status == "ok" && !record.complete);
  const std::string expected = image.extractable ? "ok" : "unextractable";
  if (record.status != expected) {
    verdict.reason = "status " + record.status + ", expected " + expected;
    return verdict;
  }
  if (record.status == "ok") {
    auto parsed = dtaint::ParseJson(record.findings_json);
    if (!parsed.ok() || !parsed->is_array()) {
      verdict.reason = "unparseable findings";
      return verdict;
    }
    std::set<std::pair<std::string, std::string>> reported;
    for (const JsonValue& finding : parsed->array()) {
      reported.emplace(finding.Find("function")->string(),
                       finding.Find("sink")->string());
    }
    std::set<std::pair<std::string, std::string>> planted;
    for (const dtaint::PlantedVuln& plant : image.ground_truth) {
      if (plant.sanitized) continue;
      planted.emplace(plant.sink_function, plant.sink);
    }
    for (const auto& key : planted) {
      if (reported.count(key)) {
        ++verdict.tp;
      } else {
        ++verdict.fn;
        verdict.reason += "missed " + key.first + "/" + key.second + "; ";
      }
    }
    for (const auto& key : reported) {
      if (!planted.count(key)) {
        ++verdict.fp;
        verdict.reason += "unexpected finding " + key.first + "/" +
                          key.second + "; ";
      }
    }
    if (!record.complete) {
      verdict.tp = verdict.fn = verdict.fp = 0;
      verdict.reason += "incomplete";
      return verdict;
    }
  }
  verdict.verdict_ok = verdict.fn == 0 && verdict.fp == 0;
  return verdict;
}

std::string Digest(const ImageRecord& record) {
  return dtaint::Fingerprint128()
      .Mix(record.status)
      .Mix(record.complete ? "complete" : "incomplete")
      .Mix(record.findings_json)
      .Digest()
      .ToHex();
}

// ---- layer accounting (traced runs) ----------------------------------------

/// The layer spans that partition an image's scan time; everything
/// else inside the scan is unattributed.
const char* const kLayerSpans[] = {
    "firmware.extract", "binary.load",       "cfg.build",
    "interproc.summarize", "structsim.resolve", "interproc.relink",
    "pathfinder.find",  "sanitizer.filter",  "report.serialize",
    "teardown",
};

/// All spans of the run, parents remapped to this vector: each image's
/// dispatch span, then the spans its scan recorded (in a worker, for
/// isolated scans) under it.
std::vector<Span> MergeSpans(const ScanResult& scan) {
  std::vector<Span> spans;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const int root = static_cast<int>(spans.size());
    spans.push_back(scan.dispatch[i]);
    for (Span span : scan.records[i].spans) {
      span.parent = span.parent < 0 ? root : root + 1 + span.parent;
      spans.push_back(std::move(span));
    }
  }
  return spans;
}

/// Layer busy seconds, each span scaled by its image's host-speed
/// factor. The scan wall is the sum of the images' dispatch spans, so
/// layers + supervisor overhead + unattributed add up to it exactly.
void AddLayerSeconds(JsonBuilder& json, const ScanResult& scan,
                     const std::vector<Span>& spans) {
  auto scaled = [&](const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9 *
           scan.factor[span.image];
  };
  std::map<std::string, double> busy;
  double overhead_s = 0.0;
  for (const Span& span : spans) {
    busy[span.name] += scaled(span);
    // Supervisor overhead: dispatch latency minus the scan inside the
    // (worker or in-process) scanning code.
    if (span.name == "image") {
      overhead_s +=
          scaled(spans[static_cast<size_t>(span.parent)]) - scaled(span);
    }
  }
  double summary_s = 0.0;
  for (const ImageRecord& record : scan.records) {
    summary_s += record.summary_seconds * scan.factor[record.index];
  }
  double attributed_s = overhead_s;
  json.Key("layers");
  json.BeginObject();
  for (const char* name : kLayerSpans) {
    attributed_s += busy[name];
    AddDouble(json, std::string(name) + "_s", busy[name]);
  }
  AddDouble(json, "interproc.summary_s", summary_s);
  AddDouble(json, "interproc.link_s", busy["interproc.summarize"] - summary_s);
  AddDouble(json, "supervisor.overhead_s", overhead_s);
  AddDouble(json, "unattributed_s", busy["dispatch"] - attributed_s);
  AddDouble(json, "trace.scan_wall_s", busy["dispatch"]);
  json.EndObject();
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"image\":" << s.image << "}";
  }
  out << "\n]\n";
  return out.good();
}

// ---- main ------------------------------------------------------------------

/// One timed scan of the corpus.
struct Pass {
  std::vector<CorpusImage> corpus;
  ScanResult scan;
};

Pass TimedScan(std::vector<CorpusImage> corpus, const Options& options,
               dtaint::SummaryCache* cache, int pass_index,
               HostClock& clock) {
  Pass pass;
  pass.corpus = std::move(corpus);
  const std::string tag = std::to_string(pass_index);
  pass.scan = options.workload == Workload::kIsolatedRescan
                  ? ScanIsolated(pass.corpus, options.traced, cache,
                                 options.workdir + "/journal-" + tag,
                                 options.workdir + "/records-" + tag, clock)
                  : ScanInProcess(pass.corpus, options.traced, cache, clock);
  return pass;
}

void AddArray(JsonBuilder& json, std::string_view key,
              const std::vector<double>& values) {
  json.Key(key);
  json.BeginArray();
  for (double value : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    json.Raw(buf);
  }
  json.EndArray();
}

/// Flushes the filesystem holding `dir`. A production rerun starts long
/// after the previous run's cache writes reached the disk; this keeps
/// their writeback out of the timed scan.
void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

void AddPass(JsonBuilder& json, const Pass& pass,
             const std::map<std::string, std::string>& cold_reference,
             const Options& options) {
  const ScanResult& scan = pass.scan;
  json.BeginObject();
  json.Key("latency_ns");
  json.BeginArray();
  for (int64_t ns : scan.latency_ns) json.Number(static_cast<uint64_t>(ns));
  json.EndArray();
  AddArray(json, "factor", scan.factor);
  AddArray(json, "cpu_self_s", scan.cpu_self_s);
  AddArray(json, "cpu_children_s", scan.cpu_children_s);
  AddArray(json, "cpu_user_s", scan.cpu_user_s);
  json.Key("supervisor");
  json.BeginObject();
  json.Key("workers_spawned");
  json.Number(scan.supervisor.workers_spawned);
  json.Key("worker_failures");
  json.Number(scan.supervisor.worker_failures);
  json.Key("in_process_fallbacks");
  json.Number(scan.supervisor.in_process_fallbacks);
  json.EndObject();

  json.Key("per_image");
  json.BeginArray();
  for (size_t i = 0; i < pass.corpus.size(); ++i) {
    const CorpusImage& image = pass.corpus[i];
    const ImageRecord& record = scan.records[i];
    Verdict verdict = Judge(image, record, scan.supervisor_failed[i]);
    const std::string digest = Digest(record);
    if (!cold_reference.empty() &&
        cold_reference.at(image.label + image.spec.version) != digest) {
      verdict.verdict_ok = false;
      verdict.reason += "differs from the cold in-process verdict; ";
    }
    if (!verdict.verdict_ok || verdict.failed) {
      std::fprintf(stderr, "fleetbench: %s: %s%s\n", image.label.c_str(),
                   verdict.failed ? "FAILED " : "", verdict.reason.c_str());
    }
    json.BeginObject();
    json.Key("status");
    json.String(record.status);
    json.Key("verdict_ok");
    json.Bool(verdict.verdict_ok);
    json.Key("failed");
    json.Bool(verdict.failed);
    json.Key("tp");
    json.Number(static_cast<uint64_t>(verdict.tp));
    json.Key("fn");
    json.Number(static_cast<uint64_t>(verdict.fn));
    json.Key("fp");
    json.Number(static_cast<uint64_t>(verdict.fp));
    json.Key("digest");
    json.String(digest);
    json.Key("counters");
    json.BeginObject();
    for (const auto& [name, value] : record.counters) {
      json.Key(name);
      json.Number(value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  if (options.traced) {
    AddLayerSeconds(json, scan, MergeSpans(scan));
  }
  json.EndObject();
}

int Run(const Options& options) {
  // Probes and the work they bracket share one CPU; isolated workers
  // inherit the pin.
  PinToCurrentCpu();
  HostClock clock;
  const bool isolated = options.workload == Workload::kIsolatedRescan;
  fs::create_directories(options.workdir);

  const std::vector<CorpusImage> corpus =
      BuildCorpus(options.workload, options.seed, options.images);
  std::optional<dtaint::SummaryCache> cache_storage;
  dtaint::SummaryCache* cache = nullptr;
  if (isolated) {
    dtaint::CacheConfig cache_config;
    cache_config.disk_dir = options.workdir + "/cache";
    cache = &cache_storage.emplace(cache_config);
    // The previous fleet run: a cold isolated scan that populates the
    // on-disk summary cache.
    ScanResult cold = ScanIsolated(corpus, /*traced=*/false, cache,
                                   options.workdir + "/journal-cold",
                                   options.workdir + "/records-cold", clock);
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (cold.supervisor_failed[i] || cold.records[i].status == "failed") {
        std::fprintf(stderr, "fleetbench: cold scan failed on %s\n",
                     corpus[i].label.c_str());
        return 1;
      }
    }
  }

  // In-process scans run once: a second pass would find the expression
  // interner warm. Isolated workers fork from a parent that analyzes
  // nothing, so every isolated pass starts cold; each pass applies
  // its own seeded firmware update to the populated fleet.
  const int passes = isolated ? kIsolatedPasses : 1;
  double setup_s = 0.0;
  double setup_raw_s = 0.0;
  std::vector<Pass> results;
  for (int p = 0; p < passes; ++p) {
    std::vector<CorpusImage> updated = corpus;
    if (isolated) {
      ApplyUpdates(updated, options.seed, static_cast<uint64_t>(p));
      SyncDir(options.workdir);
    }
    if (p == 0) {
      clock.Next();
      setup_s = clock.total_s();
      setup_raw_s = clock.raw_total_s();
    }
    results.push_back(
        TimedScan(std::move(updated), options, cache, p, clock));
  }
  const long peak_rss_kb = std::max(Usage(RUSAGE_SELF).ru_maxrss,
                                    Usage(RUSAGE_CHILDREN).ru_maxrss);

  // Reference for isolated_rescan: each image version scanned cold,
  // in-process and without the cache; neither the cache nor isolation
  // may change a verdict. (run.py asks for it once per run; later
  // repetitions must repeat the checked verdicts exactly.)
  std::map<std::string, std::string> cold_reference;
  if (isolated && options.check_cold) {
    for (const Pass& pass : results) {
      for (size_t i = 0; i < pass.corpus.size(); ++i) {
        const CorpusImage& image = pass.corpus[i];
        auto [it, fresh] =
            cold_reference.emplace(image.label + image.spec.version, "");
        if (!fresh) continue;
        it->second = Digest(ScanImage(image.blob, image.label,
                                      static_cast<uint32_t>(i),
                                      nullptr));
      }
    }
  }

  JsonBuilder json;
  json.BeginObject();
  json.Key("workload");
  json.String(options.workload_name);
  json.Key("seed");
  json.Number(options.seed);
  json.Key("traced");
  json.Bool(options.traced);
  json.Key("images");
  json.Number(static_cast<uint64_t>(corpus.size()));
  json.Key("checked_cold");
  json.Bool(!cold_reference.empty());
  AddDouble(json, "setup_s", setup_s);
  AddDouble(json, "setup_raw_s", setup_raw_s);
  json.Key("probe_ns");
  json.BeginArray();
  for (int64_t ns : clock.probes_ns()) json.Number(static_cast<uint64_t>(ns));
  json.EndArray();
  json.Key("peak_rss_kb");
  json.Number(static_cast<uint64_t>(peak_rss_kb));
  json.Key("passes");
  json.BeginArray();
  for (const Pass& pass : results) {
    AddPass(json, pass, cold_reference, options);
  }
  json.EndArray();
  json.EndObject();

  if (options.traced && !options.spans_out.empty() &&
      !WriteSpans(options.spans_out, MergeSpans(results.back().scan))) {
    std::fprintf(stderr, "fleetbench: cannot write %s\n",
                 options.spans_out.c_str());
    return 1;
  }
  std::printf("%s\n", std::move(json).Take().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload fleet_scan|dispatch_relink|"
                 "isolated_rescan --seed N --workdir DIR [--traced] "
                 "[--check-cold] [--images N] [--spans-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
