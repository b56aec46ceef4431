#include "src/obs/scan_report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/events.h"
#include "src/util/json.h"
#include "src/util/json_writer.h"

namespace dtaint::obs {

namespace {

std::string_view FieldStr(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.Find(key);
  if (!v || !v->is_string()) return {};
  return v->string();
}

double FieldNum(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.Find(key);
  if (!v || !v->is_number()) return 0.0;
  return v->number();
}

bool FieldBool(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.Find(key);
  return v && v->is_bool() && v->boolean();
}

ImageRollup& ImageFor(ScanAggregate* agg, std::string_view name) {
  for (ImageRollup& im : agg->images) {
    if (im.image == name) return im;
  }
  agg->images.emplace_back();
  agg->images.back().image = std::string(name);
  return agg->images.back();
}

PhaseRollup& PhaseFor(ScanAggregate* agg, std::string_view name) {
  for (PhaseRollup& ph : agg->phases) {
    if (ph.phase == name) return ph;
  }
  agg->phases.emplace_back();
  agg->phases.back().phase = std::string(name);
  return agg->phases.back();
}

FunctionRollup& FunctionFor(ScanAggregate* agg, std::string_view name) {
  for (FunctionRollup& fn : agg->functions) {
    if (fn.function == name) return fn;
  }
  agg->functions.emplace_back();
  agg->functions.back().function = std::string(name);
  return agg->functions.back();
}

void FoldEvent(const JsonValue& event, std::string_view type,
               ScanAggregate* agg) {
  if (type == "image_begin") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.vendor = FieldStr(event, "vendor");
    im.product = FieldStr(event, "product");
    im.arch = FieldStr(event, "arch");
    im.packing = FieldStr(event, "packing");
    ++im.begin_events;
    im.attempts = std::max(im.attempts, im.begin_events);
  } else if (type == "image_retry") {
    // Supervisor re-dispatch: raise the attempt count to next_attempt
    // (covers attempts whose worker died before image_begin flushed).
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.attempts = std::max(
        im.attempts, static_cast<uint64_t>(FieldNum(event, "next_attempt")));
    ++agg->image_retries;
  } else if (type == "worker_exit") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.attempts = std::max(im.attempts,
                           static_cast<uint64_t>(FieldNum(event, "attempt")));
    ++agg->worker_exits;
  } else if (type == "image_quarantined") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.status = "quarantined";
    im.attempts = std::max(im.attempts,
                           static_cast<uint64_t>(FieldNum(event, "attempts")));
    ++agg->quarantined_images;
  } else if (type == "image_resumed") {
    // Journal replay satisfied this image: no scan events will follow
    // in this stream, so the lifecycle event *is* the row.
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    std::string_view status = FieldStr(event, "status");
    if (!status.empty()) im.status = std::string(status);
    im.attempts = std::max(im.attempts,
                           static_cast<uint64_t>(FieldNum(event, "attempts")));
    im.resumed = true;
    ++agg->resumed_images;
  } else if (type == "image_end") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.status = FieldStr(event, "status");
    im.complete = FieldBool(event, "complete");
    im.functions = static_cast<uint64_t>(FieldNum(event, "functions"));
    im.findings = static_cast<uint64_t>(FieldNum(event, "findings"));
    im.duration_ms = FieldNum(event, "duration_ms");
  } else if (type == "phase_end") {
    PhaseRollup& ph = PhaseFor(agg, FieldStr(event, "phase"));
    ++ph.runs;
    ph.total_ms += FieldNum(event, "duration_ms");
  } else if (type == "function_end") {
    FunctionRollup& fn = FunctionFor(agg, FieldStr(event, "function"));
    ++fn.calls;
    fn.total_ms += FieldNum(event, "micros") / 1000.0;
    if (FieldBool(event, "cached")) ++fn.cached;
    if (FieldBool(event, "degraded")) ++agg->degraded_functions;
    fn.memo_hits += static_cast<uint64_t>(FieldNum(event, "memo_hits"));
    fn.memo_lookups += static_cast<uint64_t>(FieldNum(event, "memo_lookups"));
  } else if (type == "incident") {
    ++agg->incidents;
    std::string_view phase = FieldStr(event, "phase");
    ++agg->incidents_by_phase[phase.empty() ? std::string("?")
                                            : std::string(phase)];
  } else if (type == "finding") {
    ++agg->findings;
  } else if (type == "binary_end") {
    ++agg->binaries;
    agg->binary_ms += FieldNum(event, "duration_ms");
  } else if (type == "heartbeat") {
    ++agg->heartbeats;
    agg->last_images_done = static_cast<uint64_t>(FieldNum(event, "images_done"));
    agg->last_images_total =
        static_cast<uint64_t>(FieldNum(event, "images_total"));
    agg->last_functions_done =
        static_cast<uint64_t>(FieldNum(event, "functions_done"));
    agg->last_rss_mb = FieldNum(event, "rss_mb");
  }
}

}  // namespace

void AggregateEvents(std::string_view ndjson, ScanAggregate* agg) {
  ++agg->streams;
  bool terminated = false;
  size_t pos = 0;
  while (pos < ndjson.size()) {
    size_t eol = ndjson.find('\n', pos);
    // A final line without its newline is the torn-write case: try it
    // anyway — it parses iff the write completed before the kill.
    std::string_view line = ndjson.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? ndjson.size() : eol + 1;
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok() || !parsed->is_object()) {
      ++agg->malformed_lines;
      continue;
    }
    std::string_view type = FieldStr(*parsed, "type");
    if (type.empty()) {
      ++agg->malformed_lines;
      continue;
    }
    ++agg->events;
    ++agg->events_by_type[std::string(type)];
    if (type == "stream_end") terminated = true;
    FoldEvent(*parsed, type, agg);
  }
  if (!terminated) ++agg->truncated_streams;
}

void FinalizeAggregate(ScanAggregate* agg, const ScanReportOptions& options) {
  std::sort(agg->phases.begin(), agg->phases.end(),
            [](const PhaseRollup& a, const PhaseRollup& b) {
              return a.phase < b.phase;
            });
  if (agg->binaries > 0) {
    PhaseRollup unattributed{"unattributed", agg->binaries, agg->binary_ms};
    for (const PhaseRollup& ph : agg->phases) {
      unattributed.total_ms -= ph.total_ms;
    }
    // A binary still in flight in a torn stream has phases but no end.
    unattributed.total_ms = std::max(0.0, unattributed.total_ms);
    agg->phases.push_back(std::move(unattributed));
  }
  std::sort(agg->functions.begin(), agg->functions.end(),
            [](const FunctionRollup& a, const FunctionRollup& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.function < b.function;
            });
  if (agg->functions.size() > options.top_functions) {
    agg->functions.resize(options.top_functions);
  }
}

Result<ScanAggregate> AggregateEventFiles(
    const std::vector<std::string>& paths,
    const ScanReportOptions& options) {
  ScanAggregate agg;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return NotFound("cannot read event stream: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    AggregateEvents(text, &agg);
  }
  FinalizeAggregate(&agg, options);
  return agg;
}

std::string AggregateToMarkdown(const ScanAggregate& agg) {
  std::string out = "# Fleet scan report\n\n";
  char buf[160];
  size_t complete = 0, in_flight = 0;
  for (const ImageRollup& im : agg.images) {
    if (im.complete) ++complete;
    if (im.status == "in_flight") ++in_flight;
  }
  std::snprintf(buf, sizeof(buf),
                "- streams: %zu (%zu truncated)\n"
                "- events: %zu (%zu malformed line(s) skipped)\n",
                agg.streams, agg.truncated_streams, agg.events,
                agg.malformed_lines);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "- images: %zu (%zu complete, %zu in flight)\n",
                agg.images.size(), complete, in_flight);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "- binaries: %llu, findings: %llu, incidents: %llu, degraded "
      "functions: %llu\n",
      static_cast<unsigned long long>(agg.binaries),
      static_cast<unsigned long long>(agg.findings),
      static_cast<unsigned long long>(agg.incidents),
      static_cast<unsigned long long>(agg.degraded_functions));
  out += buf;
  if (agg.image_retries || agg.quarantined_images || agg.worker_exits ||
      agg.resumed_images) {
    std::snprintf(
        buf, sizeof(buf),
        "- supervisor: %llu retried, %llu quarantined, %llu worker "
        "exit(s), %llu resumed\n",
        static_cast<unsigned long long>(agg.image_retries),
        static_cast<unsigned long long>(agg.quarantined_images),
        static_cast<unsigned long long>(agg.worker_exits),
        static_cast<unsigned long long>(agg.resumed_images));
    out += buf;
  }
  if (agg.heartbeats) {
    std::snprintf(
        buf, sizeof(buf),
        "- last heartbeat: images %llu/%llu, functions %llu, rss %.1f MB "
        "(%llu beat(s))\n",
        static_cast<unsigned long long>(agg.last_images_done),
        static_cast<unsigned long long>(agg.last_images_total),
        static_cast<unsigned long long>(agg.last_functions_done),
        agg.last_rss_mb, static_cast<unsigned long long>(agg.heartbeats));
    out += buf;
  }

  if (!agg.images.empty()) {
    out += "\n## Images\n\n"
           "| Image | Arch | Packing | Status | Complete | Fns | Findings "
           "| Attempts | ms |\n"
           "|---|---|---|---|---|---:|---:|---:|---:|\n";
    for (const ImageRollup& im : agg.images) {
      std::snprintf(buf, sizeof(buf),
                    "| %s | %s | %s | %s%s | %s | %llu | %llu | %llu | %.1f "
                    "|\n",
                    im.image.c_str(), im.arch.c_str(), im.packing.c_str(),
                    im.status.c_str(), im.resumed ? " (resumed)" : "",
                    im.complete ? "yes" : "no",
                    static_cast<unsigned long long>(im.functions),
                    static_cast<unsigned long long>(im.findings),
                    static_cast<unsigned long long>(
                        im.attempts ? im.attempts : 1),
                    im.duration_ms);
      out += buf;
    }
  }

  if (!agg.phases.empty()) {
    out += "\n## Phase time\n\n| Phase | Runs | Total ms |\n|---|---:|---:|\n";
    for (const PhaseRollup& ph : agg.phases) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu | %.1f |\n",
                    ph.phase.c_str(),
                    static_cast<unsigned long long>(ph.runs), ph.total_ms);
      out += buf;
    }
  }

  if (!agg.functions.empty()) {
    out += "\n## Hot functions\n\n"
           "| Function | Calls | Cached | Memo hit % | Total ms |\n"
           "|---|---:|---:|---:|---:|\n";
    for (const FunctionRollup& fn : agg.functions) {
      double memo_pct = fn.memo_lookups == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(fn.memo_hits) /
                                  static_cast<double>(fn.memo_lookups);
      std::snprintf(buf, sizeof(buf), "| %s | %llu | %llu | %.1f | %.2f |\n",
                    fn.function.c_str(),
                    static_cast<unsigned long long>(fn.calls),
                    static_cast<unsigned long long>(fn.cached), memo_pct,
                    fn.total_ms);
      out += buf;
    }
  }

  if (!agg.incidents_by_phase.empty()) {
    out += "\n## Incidents by phase\n\n| Phase | Count |\n|---|---:|\n";
    for (const auto& [phase, count] : agg.incidents_by_phase) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", phase.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  }

  if (!agg.events_by_type.empty()) {
    out += "\n## Events by type\n\n| Type | Count |\n|---|---:|\n";
    for (const auto& [type, count] : agg.events_by_type) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", type.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  }
  return out;
}

std::string AggregateToJson(const ScanAggregate& agg) {
  JsonBuilder b;
  b.BeginObject();
  b.Key("schema_version");
  b.Number(static_cast<uint64_t>(kEventSchemaVersion));
  b.Key("streams");
  b.Number(static_cast<uint64_t>(agg.streams));
  b.Key("truncated_streams");
  b.Number(static_cast<uint64_t>(agg.truncated_streams));
  b.Key("events");
  b.Number(static_cast<uint64_t>(agg.events));
  b.Key("malformed_lines");
  b.Number(static_cast<uint64_t>(agg.malformed_lines));
  b.Key("binaries");
  b.Number(agg.binaries);
  b.Key("findings");
  b.Number(agg.findings);
  b.Key("incidents");
  b.Number(agg.incidents);
  b.Key("degraded_functions");
  b.Number(agg.degraded_functions);
  b.Key("image_retries");
  b.Number(agg.image_retries);
  b.Key("quarantined_images");
  b.Number(agg.quarantined_images);
  b.Key("worker_exits");
  b.Number(agg.worker_exits);
  b.Key("resumed_images");
  b.Number(agg.resumed_images);
  b.Key("heartbeats");
  b.Number(agg.heartbeats);
  if (agg.heartbeats) {
    b.Key("last_heartbeat");
    b.BeginObject();
    b.Key("images_done");
    b.Number(agg.last_images_done);
    b.Key("images_total");
    b.Number(agg.last_images_total);
    b.Key("functions_done");
    b.Number(agg.last_functions_done);
    b.Key("rss_mb");
    b.Number(agg.last_rss_mb);
    b.EndObject();
  }

  b.Key("images");
  b.BeginArray();
  for (const ImageRollup& im : agg.images) {
    b.BeginObject();
    b.Key("image");
    b.String(im.image);
    b.Key("vendor");
    b.String(im.vendor);
    b.Key("product");
    b.String(im.product);
    b.Key("arch");
    b.String(im.arch);
    b.Key("packing");
    b.String(im.packing);
    b.Key("status");
    b.String(im.status);
    b.Key("complete");
    b.Bool(im.complete);
    b.Key("functions");
    b.Number(im.functions);
    b.Key("findings");
    b.Number(im.findings);
    b.Key("attempts");
    b.Number(im.attempts ? im.attempts : 1);
    b.Key("resumed");
    b.Bool(im.resumed);
    b.Key("duration_ms");
    b.Number(im.duration_ms);
    b.EndObject();
  }
  b.EndArray();

  b.Key("phases");
  b.BeginArray();
  for (const PhaseRollup& ph : agg.phases) {
    b.BeginObject();
    b.Key("phase");
    b.String(ph.phase);
    b.Key("runs");
    b.Number(ph.runs);
    b.Key("total_ms");
    b.Number(ph.total_ms);
    b.EndObject();
  }
  b.EndArray();

  b.Key("hot_functions");
  b.BeginArray();
  for (const FunctionRollup& fn : agg.functions) {
    b.BeginObject();
    b.Key("function");
    b.String(fn.function);
    b.Key("calls");
    b.Number(fn.calls);
    b.Key("cached");
    b.Number(fn.cached);
    b.Key("memo_hits");
    b.Number(fn.memo_hits);
    b.Key("memo_lookups");
    b.Number(fn.memo_lookups);
    b.Key("total_ms");
    b.Number(fn.total_ms);
    b.EndObject();
  }
  b.EndArray();

  b.Key("incidents_by_phase");
  b.BeginObject();
  for (const auto& [phase, count] : agg.incidents_by_phase) {
    b.Key(phase);
    b.Number(count);
  }
  b.EndObject();

  b.Key("events_by_type");
  b.BeginObject();
  for (const auto& [type, count] : agg.events_by_type) {
    b.Key(type);
    b.Number(count);
  }
  b.EndObject();

  b.EndObject();
  return std::move(b).Take();
}

}  // namespace dtaint::obs
