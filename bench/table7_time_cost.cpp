// Table VII: "Time cost between Angr and DTaint" — SSA and DDG
// seconds for four programs: cgibin, setup.cgi, httpd, openssl.
//
// DTaint: SSA = the lift, callgraph, summary (one bottom-up symbolic
// pass per function) and link phases; DDG = the structsim (indirect-
// call resolution), relink, pathfind and sanitize phases. Each phase's
// seconds and the report's unattributed time are recorded too.
//
// Baseline ("Angr-like", src/baseline): top-down, context-sensitive.
// Its SSA cost re-runs the per-function symbolic analysis once per
// distinct calling context (the paper: "the same callee [is] analyzed
// multiple times"); its DDG cost is the iterative worklist that builds
// dependence edges for every register/memory variable. The expected
// *shape*: baseline SSA ~2x DTaint's, baseline DDG orders of magnitude
// slower.
#include <cstdio>

#include "src/baseline/worklist_ddg.h"
#include "src/binary/loader.h"
#include "src/core/dtaint.h"
#include "src/obs/bench.h"
#include "src/obs/stopwatch.h"
#include "src/report/table.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

/// OpenSSL-shaped program: the Heartbleed plant (paper Figs. 2-3: a
/// length read out of the record buffer in ssl3_read_n flows, through
/// a struct-parked pointer, into the memcpy in tls1_process_heartbeat
/// — our alias-chain pattern with a memcpy sink) inside a large
/// library-shaped body.
ProgramSpec OpensslSpec() {
  ProgramSpec spec;
  spec.name = "openssl";
  spec.arch = Arch::kDtArm;
  spec.seed = 19690;
  PlantSpec heartbleed;
  heartbleed.id = "heartbleed";
  heartbleed.pattern = VulnPattern::kAliasChain;
  heartbleed.source = "recv";
  heartbleed.sink = "memcpy";
  heartbleed.cve_label = "CVE-2014-0160";
  spec.plants = {heartbleed};
  spec.filler_functions = 620;
  spec.filler_min_blocks = 6;
  spec.filler_max_blocks = 18;
  spec.filler_call_density = 3.2;
  return spec;
}

struct ProgramUnderTest {
  std::string label;
  Binary binary;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("table7_time_cost", argc, argv);
  std::printf("=== Table VII: time cost, Angr-like baseline vs DTaint "
              "===\n\n");

  // The same three firmware binaries the paper uses, plus openssl.
  std::vector<ProgramUnderTest> programs;
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    if (spec.firmware.program.name != "cgibin" &&
        spec.firmware.program.name != "setup.cgi" &&
        spec.firmware.program.name != "httpd") {
      continue;
    }
    if (spec.firmware.product == "DIR-890L") continue;  // one cgibin
    auto fw = BuildPaperImage(spec);
    if (!fw.ok()) return harness.Finish(false);
    const FirmwareFile* file =
        fw->image.FindFile(spec.firmware.binary_path);
    auto binary = BinaryLoader::Load(file->bytes);
    programs.push_back({spec.firmware.program.name, std::move(*binary)});
  }
  {
    auto out = SynthesizeBinary(OpensslSpec());
    if (!out.ok()) return harness.Finish(false);
    programs.push_back({"openssl", std::move(out->binary)});
  }

  TextTable table({"Program", "Angr SSA (s)", "Angr DDG (s)",
                   "DTaint SSA (s)", "DTaint DDG (s)", "DDG speedup"});
  TextTable paper({"Program", "Angr SSA (s)", "Angr DDG (s)",
                   "DTaint SSA (s)", "DTaint DDG (s)"});
  paper.AddRow({"cgibin", "134.49", "16463.32", "62.34", "10.48"});
  paper.AddRow({"setup.cgi", "39.17", "539.68", "33.85", "1.205"});
  paper.AddRow({"httpd", "106.92", "22195.45", "60.92", "8.87"});
  paper.AddRow({"openssl", "102.94", "7345.56", "47.33", "3.09"});

  for (const ProgramUnderTest& put : programs) {
    // One run per program carrying both sides of the comparison: the
    // four *_seconds values are ratio-gated, the speedup informational,
    // the baseline's context/edge totals deterministic counts.
    Result<AnalysisReport> report = InvalidArgument("not analyzed");
    BaselineStats ddg;
    double baseline_ssa = 0.0;
    size_t program_functions = 0;
    harness.Run(put.label, [&](bench::Rep& rep) {
      // ---- DTaint --------------------------------------------------------
      DTaint detector;
      report = detector.Analyze(put.binary);
      if (!report.ok()) return;

      // ---- baseline SSA --------------------------------------------------
      // Angr's per-function symbolic pass explores with a richer state
      // budget (it tracks every variable and does not prune with the
      // loop-once heuristic as aggressively); modeled here as the same
      // engine with a doubled path budget, run once per function.
      obs::Stopwatch ssa_watch;
      CfgBuilder builder(put.binary);
      Program program = std::move(*builder.BuildProgram());
      program_functions = program.functions.size();
      EngineConfig heavy;
      heavy.max_paths = 96;
      heavy.max_block_visits = 8192;
      SymEngine heavy_engine(put.binary, heavy);
      for (const auto& [_, fn] : program.functions) {
        (void)heavy_engine.Analyze(fn);
      }
      baseline_ssa = ssa_watch.Seconds();

      // ---- baseline DDG --------------------------------------------------
      // The worklist interprocedural pass: per (function, callsite-chain)
      // context it re-derives the function's data flows (a fresh symbolic
      // pass per context — "the same callee [is] analyzed multiple
      // times") and iterates reaching definitions over every register and
      // memory variable to fixpoint.
      BaselineConfig config;
      config.context_depth = 3;
      config.max_contexts = 50000;
      obs::Stopwatch ddg_watch;
      ddg = RunWorklistDdg(program, {"main"}, config);
      SymEngine engine(put.binary);
      for (const std::string& fn_name : ddg.context_functions) {
        const Function* fn = program.FindFunction(fn_name);
        if (fn) (void)engine.Analyze(*fn);
      }
      ddg.seconds = ddg_watch.Seconds();

      rep.Value("dtaint_ssa_seconds", report->ssa_seconds);
      rep.Value("dtaint_ddg_seconds", report->ddg_seconds);
      for (const auto& [phase, seconds] : report->phase_seconds.entries()) {
        rep.Value("dtaint_" + phase + "_seconds", seconds);
      }
      rep.Value("dtaint_unattributed_seconds",
                report->unattributed_seconds());
      rep.Value("baseline_ssa_seconds", baseline_ssa);
      rep.Value("baseline_ddg_seconds", ddg.seconds);
      rep.Value("ddg_speedup", report->ddg_seconds > 0
                                   ? ddg.seconds / report->ddg_seconds
                                   : 0.0);
      rep.Value("contexts", static_cast<double>(ddg.contexts_analyzed));
      rep.Value("dep_edges", static_cast<double>(ddg.dependence_edges));
    });
    if (!report.ok()) return harness.Finish(false);

    double speedup =
        report->ddg_seconds > 0 ? ddg.seconds / report->ddg_seconds : 0;
    table.AddRow({put.label, FmtDouble(baseline_ssa, 2),
                  FmtDouble(ddg.seconds, 2),
                  FmtDouble(report->ssa_seconds, 2),
                  FmtDouble(report->ddg_seconds, 3),
                  FmtDouble(speedup, 1) + "x"});
    std::printf("  %-10s baseline: %zu contexts (%zu unique fns), %s "
                "block executions, %s dep edges%s\n",
                put.label.c_str(), ddg.contexts_analyzed,
                program_functions,
                WithCommas(ddg.block_executions).c_str(),
                WithCommas(ddg.dependence_edges).c_str(),
                ddg.budget_exhausted ? " (budget hit)" : "");
  }

  std::printf("\nmeasured (this reproduction):\n%s\n",
              table.Render().c_str());
  std::printf("paper-reported:\n%s\n", paper.Render().c_str());
  std::printf("shape to hold: DTaint DDG is dramatically cheaper than the "
              "worklist baseline;\nSSA moderately cheaper (each function "
              "analyzed once vs once per context).\n");
  return harness.Finish(true);
}
