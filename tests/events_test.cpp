// Event stream, flight recorder, and scan_report tests.
//
// Covers the crash-safety contract end to end: every emitted line is
// parseable NDJSON (validated against the repo's own JSON parser),
// per-type event counts are deterministic across identical runs, the
// flight-recorder ring wraps and dumps correctly (from normal context
// and after a real fatal signal in a child process), and scan_report
// produces a correct partial fleet summary from the truncated stream a
// killed corpus_scan worker leaves behind — checked against the ground
// truth of a clean run of the same corpus.
//
// All file outputs land under obs_artifacts/ in the working directory
// so CI can upload them from failing jobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/dtaint.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/scan_report.h"
#include "src/obs/trace.h"
#include "src/report/json.h"
#include "src/synth/firmware_synth.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

fs::path ArtifactDir() {
  fs::path dir = "obs_artifacts";
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// Parses every line of a stream file and tallies per-type counts;
/// fails the test on any unparseable line.
std::map<std::string, uint64_t> CountsFromFile(const fs::path& path) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& line : Lines(ReadAll(path))) {
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << "unparseable line: " << line;
    if (!parsed.ok() || !parsed->is_object()) {
      ADD_FAILURE() << "not an object: " << line;
      continue;
    }
    const JsonValue* v = parsed->Find("v");
    const JsonValue* type = parsed->Find("type");
    if (!v || !type) {
      ADD_FAILURE() << "missing envelope: " << line;
      continue;
    }
    EXPECT_EQ(static_cast<int>(v->number()), obs::kEventSchemaVersion);
    ++counts[type->string()];
  }
  return counts;
}

SynthOutput SmallProgram(uint64_t seed = 41) {
  ProgramSpec spec;
  spec.name = "events";
  spec.arch = Arch::kDtArm;
  spec.seed = seed;
  spec.filler_functions = 20;
  PlantSpec p;
  p.id = "e1";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants.push_back(p);
  PlantSpec q = p;
  q.id = "e2";
  q.pattern = VulnPattern::kWrapper;
  q.source = "recv";
  q.sink = "strcpy";
  spec.plants.push_back(q);
  return std::move(*SynthesizeBinary(spec));
}

/// Runs a full analysis with the global stream open; returns per-type
/// counts parsed back from the file.
std::map<std::string, uint64_t> AnalyzeWithEvents(const fs::path& path,
                                                  size_t* findings) {
  obs::EventStream& events = obs::EventStream::Global();
  EXPECT_TRUE(events.Open(path.string(), "events_test"));
  SynthOutput synth = SmallProgram();
  DTaint detector{DTaintConfig{}};
  auto report = detector.Analyze(synth.binary);
  EXPECT_TRUE(report.ok());
  if (findings && report.ok()) *findings = report->findings.size();
  events.Close("ok");
  return CountsFromFile(path);
}

// ------------------------------------------------------------ event stream

TEST(EventStream, LinesParseAndEnvelopeIsComplete) {
  fs::path path = ArtifactDir() / "stream_basic.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  events.Emit(obs::Event("image_begin")
                  .Str("image", "Acme RT-1")
                  .Str("vendor", "Acme \"quoted\"")
                  .Str("arch", "arm"));
  events.Emit(obs::Event("image_end")
                  .Str("image", "Acme RT-1")
                  .Str("status", "ok")
                  .Bool("complete", true)
                  .Num("functions", 12)
                  .Num("findings", 2)
                  .Double("duration_ms", 1.25));
  events.EmitHeartbeat(1, 8, 12, 3.5);
  events.Close("ok");
  EXPECT_FALSE(events.enabled());

  std::vector<std::string> lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 5u);  // begin, 2 events, heartbeat, end
  auto first = ParseJson(lines.front());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("type")->string(), "stream_begin");
  EXPECT_EQ(first->Find("tool")->string(), "events_test");
  EXPECT_NE(first->Find("pid"), nullptr);
  auto last = ParseJson(lines.back());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->Find("type")->string(), "stream_end");
  EXPECT_EQ(last->Find("outcome")->string(), "ok");
  EXPECT_EQ(static_cast<uint64_t>(last->Find("events")->number()), 5u);
  for (const std::string& line : lines) {
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(static_cast<int>(parsed->Find("v")->number()),
              obs::kEventSchemaVersion);
    EXPECT_NE(parsed->Find("ts_ms"), nullptr);
    EXPECT_NE(parsed->Find("tid"), nullptr);
  }
  auto heartbeat = ParseJson(lines[3]);
  ASSERT_TRUE(heartbeat.ok());
  EXPECT_EQ(heartbeat->Find("type")->string(), "heartbeat");
  EXPECT_EQ(static_cast<int>(heartbeat->Find("images_done")->number()), 1);
  EXPECT_EQ(static_cast<int>(heartbeat->Find("images_total")->number()), 8);
}

TEST(EventStream, PipelineEmitsDeterministicCountsAcrossRuns) {
  size_t findings1 = 0, findings2 = 0;
  auto counts1 =
      AnalyzeWithEvents(ArtifactDir() / "pipeline_run1.ndjson", &findings1);
  auto counts2 =
      AnalyzeWithEvents(ArtifactDir() / "pipeline_run2.ndjson", &findings2);
  EXPECT_EQ(counts1, counts2);
  EXPECT_EQ(findings1, findings2);

  // The pipeline's full vocabulary shows up.
  EXPECT_EQ(counts1["stream_begin"], 1u);
  EXPECT_EQ(counts1["stream_end"], 1u);
  EXPECT_EQ(counts1["binary_begin"], 1u);
  EXPECT_EQ(counts1["binary_end"], 1u);
  EXPECT_EQ(counts1["alias_mode"], 1u);
  EXPECT_GE(counts1["phase_begin"], 4u);
  EXPECT_EQ(counts1["phase_begin"], counts1["phase_end"]);
  EXPECT_GT(counts1["function_begin"], 0u);
  EXPECT_EQ(counts1["function_begin"], counts1["function_end"]);
  EXPECT_EQ(counts1["finding"], findings1);
  EXPECT_GT(findings1, 0u);
}

/// A dispatch plant's handler is reachable only through an indirect
/// call that structure similarity resolves, so this binary is linked
/// twice.
Result<SynthOutput> DispatchProgram() {
  ProgramSpec spec;
  spec.name = "relink";
  spec.arch = Arch::kDtArm;
  spec.seed = 43;
  spec.filler_functions = 20;
  PlantSpec p;
  p.id = "d1";
  p.pattern = VulnPattern::kDispatch;
  p.source = "recv";
  p.sink = "memcpy";
  spec.plants.push_back(p);
  return SynthesizeBinary(spec);
}

TEST(EventStream, RelinkedBinarySummarizesEachFunctionOnce) {
  // Linked twice, yet each function must be summarized once.
  auto synth = DispatchProgram();
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();

  fs::path path = ArtifactDir() / "relink_once.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  auto report = DTaint().Analyze(synth->binary);
  events.Close("ok");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->indirect_calls_resolved, 0u);

  const size_t functions = report->analyzed_functions;
  EXPECT_EQ(report->metrics.CounterValue("summary.functions_done"),
            functions);
  auto micros = report->metrics.histograms.find("summary.function_micros");
  ASSERT_NE(micros, report->metrics.histograms.end());
  EXPECT_EQ(micros->second.count, functions);
  std::map<std::string, uint64_t> counts = CountsFromFile(path);
  EXPECT_EQ(counts["function_begin"], functions);
  EXPECT_EQ(counts["function_end"], functions);
  // The first link covers every function, the relink only the
  // resolving function and its callers.
  const uint64_t linked = report->metrics.CounterValue("link.functions");
  EXPECT_GT(linked, functions);
  EXPECT_LT(linked, 2 * functions);
  // lift, callgraph, summary, link, structsim, relink, pathfind,
  // sanitize, teardown.
  EXPECT_EQ(counts["phase_end"], 9u);
}

/// Names of the phases in `report->metrics` whose phase.<name>_micros
/// histogram observed a sample in this run.
std::set<std::string> HistogramPhases(const AnalysisReport& report) {
  std::set<std::string> names;
  for (const auto& [name, stats] : report.metrics.histograms) {
    const std::string prefix = "phase.", suffix = "_micros";
    if (stats.count == 0 || !name.starts_with(prefix) ||
        !name.ends_with(suffix)) {
      continue;
    }
    names.insert(name.substr(prefix.size(),
                             name.size() - prefix.size() - suffix.size()));
  }
  return names;
}

TEST(PhaseAccounting, FourArtifactsNameTheSamePhases) {
  auto synth = DispatchProgram();
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  fs::path path = ArtifactDir() / "phase_artifacts.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  tracer.Start();
  auto report = DTaint().Analyze(synth->binary);
  tracer.Stop();
  events.Close("ok");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->indirect_calls_resolved, 0u);

  std::set<std::string> spans;
  auto trace = ParseJson(tracer.ToChromeJson());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  for (const JsonValue& event : trace->Find("traceEvents")->array()) {
    if (event.Find("cat")->string() == "phase") {
      spans.insert(event.Find("name")->string());
    }
  }
  std::set<std::string> ends;
  for (const std::string& line : Lines(ReadAll(path))) {
    auto parsed = ParseJson(line);
    if (parsed.ok() && parsed->Find("type")->string() == "phase_end") {
      ends.insert(parsed->Find("phase")->string());
    }
  }
  std::set<std::string> timings;
  auto json = ParseJson(ReportToJson(*report));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  for (const auto& [key, value] : json->Find("timings_seconds")->object()) {
    if (key != "ssa" && key != "ddg" && key != "total" &&
        key != "unattributed") {
      timings.insert(key);
    }
  }

  const std::set<std::string> expected = {
      "lift",     "callgraph", "summary",  "link",    "structsim",
      "relink",   "pathfind",  "sanitize", "teardown"};
  EXPECT_EQ(spans, expected);
  EXPECT_EQ(ends, expected);
  EXPECT_EQ(timings, expected);
  EXPECT_EQ(HistogramPhases(*report), expected);
}

TEST(PhaseAccounting, PhasesSumToTotalAndRelinkRunsOnlyWhenACallResolved) {
  auto dispatch = DispatchProgram();
  ASSERT_TRUE(dispatch.ok()) << dispatch.status().ToString();
  std::vector<size_t> resolved;
  for (const Binary& binary : {dispatch->binary, SmallProgram().binary}) {
    auto report = DTaint().Analyze(binary);
    ASSERT_TRUE(report.ok());
    resolved.push_back(report->indirect_calls_resolved);
    const obs::PhaseTimings& phases = report->phase_seconds;
    bool relinked = false;
    for (const auto& [phase, seconds] : phases.entries()) {
      relinked = relinked || phase == "relink";
    }
    EXPECT_EQ(relinked, report->indirect_calls_resolved > 0);
    EXPECT_EQ(HistogramPhases(*report).count("relink") > 0, relinked);

    const double sum = phases.Total() + report->unattributed_seconds();
    EXPECT_NEAR(sum, report->total_seconds, 1e-9 * report->total_seconds);
    EXPECT_LE(phases.Total(), report->total_seconds);
    EXPECT_DOUBLE_EQ(report->ssa_seconds,
                     phases.Seconds("lift") + phases.Seconds("callgraph") +
                         phases.Seconds("summary") + phases.Seconds("link"));
    EXPECT_DOUBLE_EQ(report->ddg_seconds,
                     phases.Seconds("structsim") + phases.Seconds("relink") +
                         phases.Seconds("pathfind") +
                         phases.Seconds("sanitize"));
    EXPECT_DOUBLE_EQ(report->interproc_stats.summary_seconds,
                     phases.Seconds("summary"));
  }
  EXPECT_GT(resolved[0], 0u);
  EXPECT_EQ(resolved[1], 0u);
}

TEST(EventStream, DisabledStreamEmitsNothingAndCountsZero) {
  obs::EventStream stream;
  EXPECT_FALSE(stream.enabled());
  stream.Emit(obs::Event("finding").Str("sink", "system"));
  stream.EmitHeartbeat(0, 0, 0, 0.0);
  EXPECT_EQ(stream.EventCount(), 0u);
  stream.Close("ok");  // safe when never opened
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapsAndDumpsOldestFirst) {
  fs::path path = ArtifactDir() / "ring_wrap.flight.ndjson";
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Arm(path.string());
  constexpr size_t kTotal = obs::FlightRecorder::kSlots + 50;
  for (size_t i = 0; i < kTotal; ++i) {
    recorder.Record("{\"type\":\"log\",\"seq\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(recorder.recorded(), kTotal);
  ASSERT_TRUE(recorder.Dump());
  recorder.Disarm();

  std::vector<std::string> lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), obs::FlightRecorder::kSlots);
  // Oldest surviving line is kTotal - kSlots; newest is kTotal - 1.
  auto first = ParseJson(lines.front());
  auto last = ParseJson(lines.back());
  ASSERT_TRUE(first.ok() && last.ok());
  EXPECT_EQ(static_cast<size_t>(first->Find("seq")->number()),
            kTotal - obs::FlightRecorder::kSlots);
  EXPECT_EQ(static_cast<size_t>(last->Find("seq")->number()), kTotal - 1);
}

TEST(FlightRecorder, LongLinesAreTruncatedNotCorrupting) {
  fs::path path = ArtifactDir() / "ring_trunc.flight.ndjson";
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Arm(path.string());
  recorder.Record(std::string(obs::FlightRecorder::kSlotBytes * 2, 'x'));
  recorder.Record("short");
  ASSERT_TRUE(recorder.Dump());
  recorder.Disarm();
  std::vector<std::string> lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_LE(lines[0].size(), obs::FlightRecorder::kSlotBytes);
  EXPECT_EQ(lines[1], "short");
}

TEST(FlightRecorder, LogRecordsAreTeedIntoRecorderNotMainStream) {
  fs::path path = ArtifactDir() / "log_tee.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  obs::LogLevel saved = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kWarn);
  DTAINT_LOG(obs::LogLevel::kWarn, "tee_test", "flight %d", 42);
  obs::SetLogLevel(saved);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  ASSERT_TRUE(recorder.Dump());
  std::string flight = ReadAll(path.string() + ".flight.ndjson");
  EXPECT_NE(flight.find("\"type\":\"log\""), std::string::npos);
  EXPECT_NE(flight.find("flight 42"), std::string::npos);
  events.Close("ok");
  // Log records go to the recorder only — the durable stream carries
  // scan events, not chatter.
  EXPECT_EQ(ReadAll(path).find("tee_test"), std::string::npos);
}

TEST(FlightRecorder, IncidentEmissionFlushesFlightFile) {
  fs::path path = ArtifactDir() / "incident_flush.ndjson";
  fs::path flight = path.string() + ".flight.ndjson";
  fs::remove(flight);
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  Incident incident;
  incident.binary = "acme.bin";
  incident.phase = "summary";
  incident.detail = "parse_uri";
  incident.status = OutOfRange("budget exhausted");
  incident.budget.exhausted_by = BudgetExhaustion::kSteps;
  incident.budget.steps = 1000;
  obs::EmitIncident(events, incident);
  events.Close("ok");

  ASSERT_TRUE(fs::exists(flight));
  std::string main_stream = ReadAll(path);
  EXPECT_NE(main_stream.find("\"type\":\"incident\""), std::string::npos);
  EXPECT_NE(main_stream.find("\"cause\":"), std::string::npos);
  for (const std::string& line : Lines(ReadAll(flight))) {
    if (line.empty()) continue;
    EXPECT_TRUE(ParseJson(line).ok()) << line;
  }
}

// -------------------------------------------------------------- aggregation

constexpr const char* kCompleteStream =
    R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"corpus_scan","pid":7,"unix_ms":5}
{"v":1,"type":"corpus_begin","ts_ms":0.1,"tid":0,"images":2}
{"v":1,"type":"image_begin","ts_ms":1,"tid":0,"image":"A 1","vendor":"A","product":"1","arch":"arm","packing":"plain"}
{"v":1,"type":"phase_end","ts_ms":2,"tid":0,"phase":"lift","duration_ms":1.5}
{"v":1,"type":"function_end","ts_ms":3,"tid":1,"function":"main","micros":1500,"cached":false,"degraded":false}
{"v":1,"type":"function_end","ts_ms":4,"tid":1,"function":"helper","micros":500,"cached":true,"degraded":true}
{"v":1,"type":"finding","ts_ms":5,"tid":0,"class":"command_injection","source":"getenv","sink":"system"}
{"v":1,"type":"binary_end","ts_ms":5.5,"tid":0,"binary":"httpd","functions":12,"findings":1,"complete":true,"duration_ms":4.0}
{"v":1,"type":"image_end","ts_ms":6,"tid":0,"image":"A 1","status":"ok","complete":true,"functions":12,"findings":1,"duration_ms":5.0}
{"v":1,"type":"image_begin","ts_ms":7,"tid":0,"image":"B 2","vendor":"B","product":"2","arch":"mips","packing":"encrypted"}
{"v":1,"type":"image_end","ts_ms":8,"tid":0,"image":"B 2","status":"unextractable","complete":false,"functions":0,"findings":0,"duration_ms":0.5}
{"v":1,"type":"heartbeat","ts_ms":9,"tid":2,"images_done":2,"images_total":2,"functions_done":12,"functions_per_sec":4.0,"rss_mb":31.5}
{"v":1,"type":"corpus_end","ts_ms":10,"tid":0,"images":2,"complete":1}
{"v":1,"type":"stream_end","ts_ms":11,"tid":0,"outcome":"ok","events":14}
)";

// Killed worker: no stream_end, an incident, and a torn final line.
constexpr const char* kTruncatedStream =
    R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"corpus_scan","pid":9,"unix_ms":6}
{"v":1,"type":"image_begin","ts_ms":1,"tid":0,"image":"C 3","vendor":"C","product":"3","arch":"arm","packing":"xor"}
{"v":1,"type":"incident","ts_ms":2,"tid":0,"binary":"C 3","phase":"extract","detail":"C 3","status":"CORRUPT_DATA"}
not json at all
{"v":1,"type":"image_begin","ts_ms":3,"tid":0,"image":"D 4","ven)";

TEST(ScanReport, AggregatesCompleteAndTruncatedStreams) {
  obs::ScanAggregate agg;
  obs::AggregateEvents(kCompleteStream, &agg);
  obs::AggregateEvents(kTruncatedStream, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});

  EXPECT_EQ(agg.streams, 2u);
  EXPECT_EQ(agg.truncated_streams, 1u);
  // "not json" + the torn final line.
  EXPECT_EQ(agg.malformed_lines, 2u);
  EXPECT_EQ(agg.events, 17u);

  ASSERT_EQ(agg.images.size(), 3u);
  EXPECT_EQ(agg.images[0].image, "A 1");
  EXPECT_EQ(agg.images[0].status, "ok");
  EXPECT_TRUE(agg.images[0].complete);
  EXPECT_EQ(agg.images[0].functions, 12u);
  EXPECT_EQ(agg.images[1].status, "unextractable");
  // The killed worker's in-progress image: begin without end.
  EXPECT_EQ(agg.images[2].image, "C 3");
  EXPECT_EQ(agg.images[2].status, "in_flight");

  EXPECT_EQ(agg.findings, 1u);
  EXPECT_EQ(agg.incidents, 1u);
  EXPECT_EQ(agg.incidents_by_phase.at("extract"), 1u);
  EXPECT_EQ(agg.degraded_functions, 1u);
  EXPECT_EQ(agg.heartbeats, 1u);
  EXPECT_EQ(agg.last_images_done, 2u);

  ASSERT_EQ(agg.functions.size(), 2u);
  EXPECT_EQ(agg.functions[0].function, "main");  // 1.5ms > 0.5ms
  EXPECT_EQ(agg.functions[1].cached, 1u);

  ASSERT_EQ(agg.phases.size(), 2u);
  EXPECT_EQ(agg.phases[0].phase, "lift");
  EXPECT_DOUBLE_EQ(agg.phases[0].total_ms, 1.5);
  // The binary's 4 ms less the 1.5 ms its phases account for.
  EXPECT_EQ(agg.binaries, 1u);
  EXPECT_EQ(agg.phases[1].phase, "unattributed");
  EXPECT_EQ(agg.phases[1].runs, 1u);
  EXPECT_DOUBLE_EQ(agg.phases[1].total_ms, 2.5);
}

TEST(ScanReport, MarkdownAndJsonRender) {
  obs::ScanAggregate agg;
  obs::AggregateEvents(kCompleteStream, &agg);
  obs::AggregateEvents(kTruncatedStream, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});

  std::string md = obs::AggregateToMarkdown(agg);
  EXPECT_NE(md.find("# Fleet scan report"), std::string::npos);
  EXPECT_NE(md.find("| A 1 |"), std::string::npos);
  EXPECT_NE(md.find("in_flight"), std::string::npos);
  EXPECT_NE(md.find("## Phase time"), std::string::npos);
  EXPECT_NE(md.find("| unattributed | 1 | 2.5 |"), std::string::npos);

  std::string json = obs::AggregateToJson(agg);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(static_cast<int>(parsed->Find("truncated_streams")->number()), 1);
  EXPECT_EQ(parsed->Find("images")->array().size(), 3u);
  EXPECT_EQ(parsed->Find("images")->array()[2].Find("status")->string(),
            "in_flight");
  EXPECT_EQ(static_cast<int>(parsed->Find("malformed_lines")->number()), 2);
  const auto& phases = parsed->Find("phases")->array();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[1].Find("phase")->string(), "unattributed");
  EXPECT_DOUBLE_EQ(phases[1].Find("total_ms")->number(), 2.5);
}

TEST(ScanReport, TopFunctionsTruncationIsDeterministic) {
  obs::ScanAggregate agg;
  std::string stream =
      "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,\"tid\":0}\n";
  for (int i = 0; i < 20; ++i) {
    stream += "{\"v\":1,\"type\":\"function_end\",\"ts_ms\":1,\"tid\":0,"
              "\"function\":\"fn" +
              std::to_string(i) + "\",\"micros\":" +
              std::to_string(1000 * (i + 1)) + ",\"cached\":false}\n";
  }
  stream += "{\"v\":1,\"type\":\"stream_end\",\"ts_ms\":2,\"tid\":0}\n";
  obs::AggregateEvents(stream, &agg);
  obs::ScanReportOptions options;
  options.top_functions = 5;
  obs::FinalizeAggregate(&agg, options);
  ASSERT_EQ(agg.functions.size(), 5u);
  EXPECT_EQ(agg.functions[0].function, "fn19");  // most expensive first
  EXPECT_EQ(agg.functions[4].function, "fn15");
}

// ------------------------------------------------------- kill-mid-scan oracle

/// Path of the corpus_scan binary, provided by CTest via the
/// DTAINT_CORPUS_SCAN_BIN environment property.
const char* CorpusScanBin() { return std::getenv("DTAINT_CORPUS_SCAN_BIN"); }

TEST(KillMidScan, TruncatedStreamYieldsCorrectPartialFleetSummary) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ArtifactDir();
  fs::path clean = dir / "kill_clean.ndjson";
  fs::path crashed = dir / "kill_crashed.ndjson";
  fs::path flight = dir / "kill_crashed.ndjson.flight.ndjson";
  fs::remove(flight);

  // Ground truth: the same corpus scanned to completion. Heartbeats
  // off so both event streams are fully deterministic.
  std::string base = std::string("\"") + bin +
                     "\" --heartbeat-ms 0 --events-out ";
  int rc_clean =
      std::system((base + "\"" + clean.string() + "\" > /dev/null").c_str());
  ASSERT_NE(rc_clean, -1);

  // Crash the worker on the third image (the first two D-Link images
  // complete first; the corpus order is deterministic).
  ::setenv("DTAINT_FAULTS", "crash@Netgear R7000", 1);
  int rc_crash = std::system(
      (base + "\"" + crashed.string() + "\" > /dev/null 2>&1").c_str());
  ::unsetenv("DTAINT_FAULTS");
  EXPECT_NE(rc_crash, 0) << "crash fault should have killed the worker";

  // The clean stream terminates, the crashed one does not.
  auto clean_agg = obs::AggregateEventFiles({clean.string()});
  ASSERT_TRUE(clean_agg.ok());
  EXPECT_EQ(clean_agg->truncated_streams, 0u);
  EXPECT_EQ(clean_agg->malformed_lines, 0u);

  auto crash_agg = obs::AggregateEventFiles({crashed.string()});
  ASSERT_TRUE(crash_agg.ok());
  EXPECT_EQ(crash_agg->streams, 1u);
  EXPECT_EQ(crash_agg->truncated_streams, 1u);

  // Every image that finished before the crash reports exactly the
  // clean run's outcome; the in-progress one is flagged in_flight.
  ASSERT_EQ(crash_agg->images.size(), 3u);
  ASSERT_GE(clean_agg->images.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(crash_agg->images[i].image, clean_agg->images[i].image);
    EXPECT_EQ(crash_agg->images[i].status, clean_agg->images[i].status);
    EXPECT_EQ(crash_agg->images[i].complete, clean_agg->images[i].complete);
    EXPECT_EQ(crash_agg->images[i].functions,
              clean_agg->images[i].functions);
    EXPECT_EQ(crash_agg->images[i].findings, clean_agg->images[i].findings);
  }
  EXPECT_EQ(crash_agg->images[2].image, "Netgear R7000");
  EXPECT_EQ(crash_agg->images[2].status, "in_flight");

  // The SIGABRT hook dumped the flight recorder; every line of the
  // dump is valid NDJSON and the tail matches the main stream's tail.
  ASSERT_TRUE(fs::exists(flight));
  std::vector<std::string> flight_lines = Lines(ReadAll(flight));
  ASSERT_FALSE(flight_lines.empty());
  size_t parseable = 0;
  for (const std::string& line : flight_lines) {
    if (line.empty()) continue;
    if (ParseJson(line).ok()) ++parseable;
  }
  EXPECT_EQ(parseable, flight_lines.size());
  EXPECT_NE(ReadAll(flight).find("Netgear R7000"), std::string::npos);

  // A fleet report over both workers' streams still renders.
  // A fleet report over both workers' streams still renders. The same
  // image completed in the clean worker, so its rollup is no longer
  // in_flight — the truncation shows up as stream health instead.
  auto fleet =
      obs::AggregateEventFiles({clean.string(), crashed.string()});
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(fleet->streams, 2u);
  EXPECT_EQ(fleet->truncated_streams, 1u);
  std::string md = obs::AggregateToMarkdown(*fleet);
  EXPECT_NE(md.find("(1 truncated)"), std::string::npos);
  // The crashed worker's own stream does report the in-flight image.
  std::string solo = obs::AggregateToMarkdown(*crash_agg);
  EXPECT_NE(solo.find("in_flight"), std::string::npos);
}

// ----------------------------------------------------------- trace streaming

TEST(TraceStreaming, UnfinishedStreamRecoversWithSingleBracket) {
  fs::path path = ArtifactDir() / "trace_stream.json";
  obs::Tracer tracer;
  ASSERT_TRUE(tracer.StreamTo(path.string()));
  tracer.RecordComplete("phase", "lift", 1000, 2000);
  tracer.RecordComplete("phase", "summary", 3000, 4000);
  EXPECT_EQ(tracer.EventCount(), 2u);

  // Simulate the crash: no FinishStream. The recovery contract is
  // "append one ']'".
  std::string torn = ReadAll(path);
  auto recovered = ParseJson(torn + "]");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered->is_array());
  ASSERT_EQ(recovered->array().size(), 2u);
  EXPECT_EQ(recovered->array()[0].Find("name")->string(), "lift");
  EXPECT_EQ(recovered->array()[1].Find("name")->string(), "summary");

  // Finishing normally yields a valid array with no repair needed.
  ASSERT_TRUE(tracer.FinishStream());
  auto finished = ParseJson(ReadAll(path));
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->array().size(), 2u);
}

TEST(TraceStreaming, ZeroEventCrashRecoversToEmptyArray) {
  fs::path path = ArtifactDir() / "trace_empty.json";
  obs::Tracer tracer;
  ASSERT_TRUE(tracer.StreamTo(path.string()));
  std::string torn = ReadAll(path);
  auto recovered = ParseJson(torn + "]");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->is_array());
  EXPECT_TRUE(recovered->array().empty());
  ASSERT_TRUE(tracer.FinishStream());
}

}  // namespace
}  // namespace dtaint
