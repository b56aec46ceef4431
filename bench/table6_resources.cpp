// Table VI: "CPU, memory and time usage of prototype software" —
// average CPU share and peak memory of the static-symbolic-analysis
// phase vs. the data-flow-generation phase.
//
// Measured over the largest image (Hikvision-shaped centaurus) with
// getrusage + /proc/self/statm sampling around each phase.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>

#include "src/binary/loader.h"
#include "src/cfg/callgraph.h"
#include "src/core/dtaint.h"
#include "src/core/interproc.h"
#include "src/core/pathfinder.h"
#include "src/core/sanitizer.h"
#include "src/core/structsim.h"
#include "src/obs/bench.h"
#include "src/report/table.h"
#include "src/synth/paper_images.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * (sysconf(_SC_PAGESIZE) / 1024.0 / 1024.0);
}

double WallNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("table6_resources", argc, argv);
  std::printf("=== Table VI: CPU, memory and time usage ===\n\n");

  // Largest image: Hikvision-shaped centaurus.
  auto specs = PaperImageSpecs();
  const PaperImageSpec& spec = specs.back();
  auto fw = BuildPaperImage(spec);
  if (!fw.ok()) return harness.Finish(false);
  const FirmwareFile* file = fw->image.FindFile(spec.firmware.binary_path);
  auto binary = BinaryLoader::Load(file->bytes);

  // Phase 1: lifting + static symbolic analysis (SSA).
  // Both phases record CPU share (_pct) and RSS growth (_mb) as
  // informational values — they vary with the host, so the regression
  // gate never holds them — plus deterministic result counts.
  double cpu0 = CpuSeconds(), wall0 = WallNow(), mem0 = RssMb();
  Program program;
  SymEngine engine(*binary);
  BaseSummaries base;
  ProgramAnalysis analysis;
  harness.Run("ssa_phase", [&](bench::Rep& rep) {
    CfgBuilder b(*binary);
    program = std::move(*b.BuildProgram());
    CallGraph graph = CallGraph::Build(program);
    base = Summarize(program, graph, engine);
    analysis = Link(program, graph, base);
    double cpu = CpuSeconds(), wall = WallNow(), mem = RssMb();
    rep.Value("cpu_pct",
              wall - wall0 <= 0 ? 0.0 : 100.0 * (cpu - cpu0) / (wall - wall0));
    rep.Value("rss_growth_mb", mem - mem0);
  });
  double cpu1 = CpuSeconds(), wall1 = WallNow(), mem1 = RssMb();

  // Phase 2: data-flow generation (indirect-call resolution, re-linking
  // the phase-1 summaries, path search, sanitization).
  std::vector<IndirectResolution> resolutions;
  std::vector<TaintPath> paths, vulns;
  harness.Run("ddg_phase", [&](bench::Rep& rep) {
    resolutions = ResolveIndirectCalls(program, analysis.summaries);
    ProgramAnalysis linked = Link(program, CallGraph::Build(program), base);
    PathFinder finder(program, linked);
    paths = finder.FindAll();
    vulns = FilterVulnerable(paths);
    double cpu = CpuSeconds(), wall = WallNow(), mem = RssMb();
    rep.Value("cpu_pct",
              wall - wall1 <= 0 ? 0.0 : 100.0 * (cpu - cpu1) / (wall - wall1));
    rep.Value("rss_growth_mb", mem - mem1);
    rep.Value("paths", static_cast<double>(paths.size()));
    rep.Value("vulnerable", static_cast<double>(vulns.size()));
    rep.Value("indirect_resolved", static_cast<double>(resolutions.size()));
  });
  double cpu2 = CpuSeconds(), wall2 = WallNow(), mem2 = RssMb();

  TextTable table({"Phase", "CPU usage", "Peak RSS", "Wall time"});
  auto cpu_pct = [](double cpu, double wall) {
    return wall <= 0 ? 0.0 : 100.0 * cpu / wall;
  };
  table.AddRow({"Static symbolic analysis",
                FmtDouble(cpu_pct(cpu1 - cpu0, wall1 - wall0), 0) + "%",
                FmtDouble(mem1 - mem0, 1) + " MB (+base " +
                    FmtDouble(mem0, 1) + ")",
                FmtDouble(wall1 - wall0, 2) + " s"});
  table.AddRow({"Data flow generation",
                FmtDouble(cpu_pct(cpu2 - cpu1, wall2 - wall1), 0) + "%",
                FmtDouble(mem2 - mem1, 1) + " MB",
                FmtDouble(wall2 - wall1, 2) + " s"});
  std::printf("measured on %s (%zu functions; largest image):\n%s\n",
              binary->soname.c_str(), program.functions.size(),
              table.Render().c_str());
  std::printf("paper-reported (128 GB testbed, full 14k-function "
              "binary):\n");
  std::printf("  Static symbolic analysis: 25%% CPU, 15.3 GB\n");
  std::printf("  Data flow generation:     10%% CPU, 208.9 MB\n\n");
  std::printf("shape check: SSA dominates memory/CPU; DDG phase is the "
              "cheap one (%s)\n",
              (mem1 - mem0) > (mem2 - mem1) ? "holds" : "DOES NOT HOLD");
  std::printf("(paths found: %zu, vulnerable: %zu, indirect resolved: "
              "%zu)\n",
              paths.size(), vulns.size(), resolutions.size());
  // The shape check above is advisory (RSS deltas are noisy on small
  // synthetic images); exit status matches the original bench.
  return harness.Finish(true);
}
