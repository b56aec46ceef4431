// Differential oracle for the expression interner.
//
// Hash-consing is only admissible if it is *invisible*: for any input,
// the full analysis report (findings, def-pair propagation counts, path
// counts — everything except wall-clock timings and per-run metrics)
// must be byte-identical whether the expressions were interned (the
// default) or heap-allocated by the legacy path, at any thread count.
// Same bar as tests/cache_differential_test applies to the summary
// cache: the codec bytes a summary encodes to — and therefore the
// cache's content-addressed fingerprints — must not change either.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/report/json.h"
#include "src/symexec/intern.h"
#include "src/synth/firmware_synth.h"

namespace dtaint {
namespace {

/// 10 synthesized firmware binaries (5 seeds x 2 architectures)
/// rotating through all five plant patterns, half with a sanitized
/// twin so reports contain both findings and their absence.
std::vector<Binary> BuildCorpus() {
  std::vector<Binary> corpus;
  for (int seed = 0; seed < 5; ++seed) {
    for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
      ProgramSpec spec;
      spec.name = "ifw" + std::to_string(seed);
      spec.arch = arch;
      spec.seed = 300 + static_cast<uint64_t>(seed);
      spec.filler_functions = 15 + seed;
      PlantSpec p;
      p.id = "v" + std::to_string(seed);
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
      spec.plants.push_back(p);
      if (seed % 2) {
        PlantSpec safe = p;
        safe.id = "s" + std::to_string(seed);
        safe.sanitized = true;
        spec.plants.push_back(safe);
      }
      auto out = SynthesizeBinary(spec);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      if (out.ok()) corpus.push_back(std::move(out->binary));
    }
  }
  return corpus;
}

/// Serializes a report with the run-dependent fields (timings, cache
/// counters, per-run metrics, the timing-ordered hot-function profile)
/// zeroed; everything else must survive byte comparison.
std::string NormalizedJson(AnalysisReport report) {
  report.ssa_seconds = 0.0;
  report.ddg_seconds = 0.0;
  report.total_seconds = 0.0;
  report.interproc_stats.summary_seconds = 0.0;
  report.interproc_stats.cache_hits = 0;
  report.interproc_stats.cache_misses = 0;
  report.interproc_stats.cache_evictions = 0;
  report.interproc_stats.cache_memory_bytes = 0;
  report.interproc_stats.hot_functions.clear();
  report.metrics = obs::MetricsSnapshot{};
  return ReportToJson(report);
}

std::string AnalyzeNormalized(const Binary& binary, bool interning,
                              int num_threads = 1) {
  ScopedExprInterning toggle(interning);
  DTaintConfig config;
  config.interproc.num_threads = num_threads;
  auto report = DTaint(config).Analyze(binary);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? NormalizedJson(*report) : std::string();
}

// ---------- the oracle -------------------------------------------------------

TEST(InternDifferential, InternedAndLegacyReportsAreByteIdentical) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 10u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string legacy = AnalyzeNormalized(corpus[i], /*interning=*/false);
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(AnalyzeNormalized(corpus[i], /*interning=*/true), legacy)
        << "interned run diverged on corpus[" << i << "]";
  }
}

TEST(InternDifferential, ByteIdenticalAtEveryThreadCount) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const Binary& binary = corpus[i * 2];
    std::string reference =
        AnalyzeNormalized(binary, /*interning=*/false, /*num_threads=*/1);
    ASSERT_FALSE(reference.empty());
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(AnalyzeNormalized(binary, /*interning=*/true, threads),
                reference)
          << "corpus[" << i * 2 << "] at num_threads=" << threads;
    }
  }
}

TEST(InternDifferential, SummaryCodecBytesAreUnchanged) {
  // The persistent cache stores EncodeSummary(...) blobs keyed by a
  // content-addressed fingerprint; if interning perturbed the encoded
  // bytes, every pre-interner cache on disk would silently miss (or
  // worse, a shared DAG would encode differently cold vs warm). The
  // codec writes expression back-references by pointer identity in
  // traversal order, which interning preserves: maximal sharing both
  // ways, same bytes.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_FALSE(corpus.empty());
  const Binary& binary = corpus[0];
  CfgBuilder builder(binary);
  auto program = builder.BuildProgram();
  ASSERT_TRUE(program.ok());
  SymEngine engine(binary);
  CallGraph graph = CallGraph::Build(*program);

  ProgramAnalysis legacy, interned;
  {
    ScopedExprInterning off(false);
    legacy = RunBottomUp(*program, graph, engine);
  }
  {
    ScopedExprInterning on(true);
    interned = RunBottomUp(*program, graph, engine);
  }
  ASSERT_EQ(legacy.summaries.size(), interned.summaries.size());
  for (const auto& [name, summary] : legacy.summaries) {
    auto it = interned.summaries.find(name);
    ASSERT_NE(it, interned.summaries.end()) << name;
    EXPECT_EQ(EncodeSummary(it->second), EncodeSummary(summary))
        << name << ": codec bytes changed under interning";
  }
}

}  // namespace
}  // namespace dtaint
