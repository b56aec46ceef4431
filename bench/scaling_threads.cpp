// Thread-scaling bench: sequential vs N-thread summary phase.
//
// The intraprocedural summary phase analyzes each function
// independently, so it parallelizes embarrassingly — but before the
// expression interner (src/symexec/intern.h) the threads serialized on
// the allocator and extra workers ran *slower* than one. This bench
// measures what the interner bought: the summary-production time
// (InterprocStats::summary_seconds) of a 12-binary corpus scan at
// num_threads = 1, 2, 4, 8, median-of-3 per point (via the shared
// bench harness), and reports the speedup of each point over
// sequential.
//
// Findings must be identical at every thread count (the differential
// test suite proves full-report byte equality; this bench totals
// findings as a cheap cross-check). The speedup self-check (>= 2x at
// 4 threads) is only enforced when the host actually has >= 4 cores —
// on a single-core box the bench still runs, still checks determinism,
// and prints the per-point numbers with an honest note.
#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/dtaint.h"
#include "src/obs/bench.h"
#include "src/report/table.h"
#include "src/synth/firmware_synth.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

std::vector<Binary> BuildCorpus() {
  std::vector<Binary> corpus;
  for (int seed = 0; seed < 12; ++seed) {
    ProgramSpec spec;
    spec.name = "scale" + std::to_string(seed);
    spec.arch = seed % 2 ? Arch::kDtMips : Arch::kDtArm;
    spec.seed = 7000 + static_cast<uint64_t>(seed);
    // Branch-heavy, compute-dense fillers (same workload shape as
    // bench/cache_warm): per-function symbolic exploration dominates,
    // which is exactly the work the thread pool spreads.
    spec.filler_functions = 40;
    spec.filler_min_blocks = 18;
    spec.filler_max_blocks = 44;
    spec.filler_alu_burst = 192;
    PlantSpec p;
    p.id = "v";
    p.pattern = static_cast<VulnPattern>(seed % 5);
    p.source = (p.pattern == VulnPattern::kDispatch ||
                p.pattern == VulnPattern::kLoopCopy ||
                p.pattern == VulnPattern::kAliasChain)
                   ? "recv"
                   : "getenv";
    p.sink = p.pattern == VulnPattern::kLoopCopy
                 ? "loop"
                 : (p.pattern == VulnPattern::kDispatch ? "memcpy"
                                                        : "system");
    spec.plants = {p};
    auto out = SynthesizeBinary(spec);
    if (out.ok()) corpus.push_back(std::move(out->binary));
  }
  return corpus;
}

void Sweep(const std::vector<Binary>& corpus, int num_threads,
           bench::Rep& rep) {
  double summary_seconds = 0.0;
  size_t findings = 0;
  for (const Binary& binary : corpus) {
    DTaintConfig config;
    config.interproc.num_threads = num_threads;
    auto report = DTaint(config).Analyze(binary);
    if (!report.ok()) continue;
    summary_seconds += report->interproc_stats.summary_seconds;
    findings += report->findings.size();
  }
  rep.Value("summary_seconds", summary_seconds);
  rep.Value("findings", static_cast<double>(findings));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("scaling_threads", argc, argv);
  std::printf("=== Thread scaling: summary phase, 1/2/4/8 workers ===\n\n");
  unsigned cores = std::thread::hardware_concurrency();
  std::vector<Binary> corpus = BuildCorpus();
  // Median-of-3 by summary time per point — one noisy scheduler tick
  // on a small box otherwise swings the headline ratio.
  bench::RunOptions median3;
  median3.reps = 3;
  median3.median_key = "summary_seconds";
  std::printf("corpus: %zu binaries, ~43 functions each; host cores: %u; "
              "median-of-%d\n\n",
              corpus.size(), cores, harness.RepsFor(median3.reps));
  harness.Note("host cores: " + std::to_string(cores));

  const int kThreadPoints[] = {1, 2, 4, 8};
  std::vector<const bench::RunResult*> results;
  for (int n : kThreadPoints) {
    results.push_back(&harness.Run(
        "threads=" + std::to_string(n), median3,
        [&](bench::Rep& rep) { Sweep(corpus, n, rep); }));
  }

  const bench::RunResult& seq = *results[0];
  double seq_summary = seq.values.at("summary_seconds");
  TextTable table({"Threads", "Summary (s)", "Wall (s)", "Findings",
                   "Summary speedup"});
  for (size_t i = 0; i < results.size(); ++i) {
    const bench::RunResult& r = *results[i];
    table.AddRow({std::to_string(kThreadPoints[i]),
                  FmtDouble(r.values.at("summary_seconds"), 3),
                  FmtDouble(r.wall_seconds, 3),
                  std::to_string(
                      static_cast<size_t>(r.values.at("findings"))),
                  FmtDouble(seq_summary / r.values.at("summary_seconds"),
                            2) +
                      "x"});
  }
  std::printf("%s\n", table.Render().c_str());

  bool identical = true;
  for (const bench::RunResult* r : results) {
    identical =
        identical && r->values.at("findings") == seq.values.at("findings");
  }
  double speedup4 = seq_summary / results[2]->values.at("summary_seconds");
  harness.AddExternalRun("derived", 0.0,
                         {{"four_thread_speedup", speedup4}});
  std::printf("findings identical across thread counts: %s\n",
              identical ? "yes" : "NO");
  if (cores >= 4) {
    std::printf("4-thread summary speedup: %.2fx (target >= 2x)\n",
                speedup4);
    return harness.Finish(identical && speedup4 >= 2.0);
  }
  std::printf("4-thread summary speedup: %.2fx — host has %u core(s), so "
              "the >= 2x target is not enforceable here (threads can only "
              "time-slice one core); determinism is still checked\n",
              speedup4, cores);
  return harness.Finish(identical);
}
