// Differential oracle for the alias-analysis modes.
//
// AliasMode::kOnDemandSSE replaces the eager Algorithm 1 summary
// rewrite with lazy SSE queries, so it is only admissible if it is
// *invisible* on code the eager pass handles: for any input in the
// standard pattern corpus, the full analysis report — findings, sink
// and path counts, resolution counts, everything except wall-clock
// timings, per-run metrics, and the propagation-effort counters that
// legitimately reflect how many twin pairs each mode materializes —
// must be byte-identical between the two modes, at any thread count,
// cold or warm cache.
//
// On the cross-call-alias family (VulnPattern::kCrossCallAlias) the
// oracle must strictly dominate: the indirect call through
// container->ctx->handler is resolvable only from the *linked* entry
// summary, which the eager pass (per-function, pre-link) never sees,
// so the on-demand run finds every eager finding plus at least one
// planted vulnerability the eager run misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/core/dtaint.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/synth/firmware_synth.h"
#include "tests/testing/differential.h"

namespace dtaint {
namespace {

std::vector<Binary> BuildCorpus() {
  return testing_util::BuildCorpus(testing_util::kAliasCorpus);
}

/// Normalized with the propagation-effort counters that lawfully
/// differ between modes zeroed too (eager materializes and propagates
/// twin pairs; on-demand does not). Findings, sink/path/resolution
/// counts, and the completeness bit must survive byte comparison.
std::string NormalizedJson(AnalysisReport report) {
  return testing_util::NormalizedJson(std::move(report),
                                      /*zero_alias_effort=*/true);
}

Result<AnalysisReport> Analyze(const Binary& binary, AliasMode mode,
                               int num_threads = 1,
                               SummaryCache* cache = nullptr) {
  DTaintConfig config;
  config.interproc.alias_mode = mode;
  config.interproc.num_threads = num_threads;
  config.interproc.cache = cache;
  return DTaint(config).Analyze(binary);
}

std::string AnalyzeNormalized(const Binary& binary, AliasMode mode,
                              int num_threads = 1,
                              SummaryCache* cache = nullptr) {
  auto report = Analyze(binary, mode, num_threads, cache);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? NormalizedJson(*report) : std::string();
}

// ---------- the oracle: standard corpus, modes must agree ------------------

TEST(AliasDifferential, EagerAndOnDemandReportsAreByteIdentical) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 20u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string eager = AnalyzeNormalized(corpus[i], AliasMode::kEager);
    ASSERT_FALSE(eager.empty());
    EXPECT_EQ(AnalyzeNormalized(corpus[i], AliasMode::kOnDemandSSE), eager)
        << "on-demand run diverged on corpus[" << i << "]";
  }
}

TEST(AliasDifferential, ByteIdenticalAtEveryThreadCount) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 10u);
  // Every pattern is covered by the even-indexed (ARM) half alone.
  for (size_t i = 0; i < 5; ++i) {
    const Binary& binary = corpus[i * 2];
    std::string reference =
        AnalyzeNormalized(binary, AliasMode::kEager, /*num_threads=*/1);
    ASSERT_FALSE(reference.empty());
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(AnalyzeNormalized(binary, AliasMode::kOnDemandSSE, threads),
                reference)
          << "corpus[" << i * 2 << "] at num_threads=" << threads;
    }
  }
}

TEST(AliasDifferential, ColdAndWarmCacheStayByteIdentical) {
  // One shared in-memory cache serves both modes back to back. Mode is
  // part of the engine fingerprint, so eager and on-demand runs miss
  // each other's entries instead of replaying summaries with (or
  // without) the eager twin rewrite baked in; a warm re-run in either
  // mode must reproduce its own cold report byte for byte.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 6u);
  CacheConfig cache_config;
  SummaryCache cache(cache_config);
  for (size_t i = 0; i < 6; ++i) {
    const Binary& binary = corpus[i];
    std::string eager_cold =
        AnalyzeNormalized(binary, AliasMode::kEager, 1, &cache);
    std::string ondemand_cold =
        AnalyzeNormalized(binary, AliasMode::kOnDemandSSE, 1, &cache);
    ASSERT_FALSE(eager_cold.empty());
    EXPECT_EQ(ondemand_cold, eager_cold)
        << "cold-cache mode divergence on corpus[" << i << "]";
    EXPECT_EQ(AnalyzeNormalized(binary, AliasMode::kEager, 1, &cache),
              eager_cold)
        << "warm eager run diverged on corpus[" << i << "]";
    EXPECT_EQ(AnalyzeNormalized(binary, AliasMode::kOnDemandSSE, 1, &cache),
              ondemand_cold)
        << "warm on-demand run diverged on corpus[" << i << "]";
  }
}

// ---------- the family where on-demand must strictly dominate -------------

std::vector<SynthOutput> BuildCrossCallFamily() {
  std::vector<SynthOutput> family;
  int seed = 0;
  for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
    ProgramSpec spec;
    spec.name = "xcall" + std::to_string(seed);
    spec.arch = arch;
    spec.seed = 800 + static_cast<uint64_t>(seed);
    spec.filler_functions = 14;
    PlantSpec vuln;
    vuln.id = "xc" + std::to_string(seed);
    vuln.pattern = VulnPattern::kCrossCallAlias;
    vuln.source = "recv";
    vuln.sink = "memcpy";
    spec.plants.push_back(vuln);
    PlantSpec safe = vuln;
    safe.id = "xs" + std::to_string(seed);
    safe.sanitized = true;
    spec.plants.push_back(safe);
    auto out = SynthesizeBinary(spec);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (out.ok()) family.push_back(std::move(*out));
    ++seed;
  }
  return family;
}

std::multiset<std::string> FindingKeys(const AnalysisReport& report) {
  std::multiset<std::string> keys;
  for (const Finding& f : report.findings) keys.insert(f.Summary());
  return keys;
}

TEST(AliasDifferential, CrossCallAliasFamilyOnDemandDominates) {
  std::vector<SynthOutput> family = BuildCrossCallFamily();
  ASSERT_GE(family.size(), 2u);
  for (size_t i = 0; i < family.size(); ++i) {
    auto eager = Analyze(family[i].binary, AliasMode::kEager);
    auto ondemand = Analyze(family[i].binary, AliasMode::kOnDemandSSE);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    ASSERT_TRUE(ondemand.ok()) << ondemand.status().ToString();

    // Superset: every eager finding appears in the on-demand report.
    std::multiset<std::string> eager_keys = FindingKeys(*eager);
    std::multiset<std::string> ondemand_keys = FindingKeys(*ondemand);
    EXPECT_TRUE(std::includes(ondemand_keys.begin(), ondemand_keys.end(),
                              eager_keys.begin(), eager_keys.end()))
        << "family[" << i << "]: on-demand lost an eager finding";

    // The registration-store resolution is exclusive to the oracle.
    EXPECT_GT(ondemand->indirect_calls_resolved,
              eager->indirect_calls_resolved)
        << "family[" << i << "]";

    // At least one planted (non-sanitized) vulnerability is found only
    // by the on-demand run, and it is the cross-call plant's impl.
    DetectionScore eager_score =
        ScoreFindings(eager->findings, family[i].ground_truth);
    DetectionScore ondemand_score =
        ScoreFindings(ondemand->findings, family[i].ground_truth);
    EXPECT_EQ(eager_score.true_positives, 0u)
        << "family[" << i << "]: eager unexpectedly resolved the "
        << "cross-call registration";
    EXPECT_GE(ondemand_score.true_positives, 1u)
        << "family[" << i << "]: on-demand missed the planted vuln";
    EXPECT_EQ(ondemand_score.safe_twin_hits, 0u)
        << "family[" << i << "]: sanitized twin fired";
    bool exclusive_matches_ground_truth = false;
    for (const std::string& id : ondemand_score.found_ids) {
      if (std::find(eager_score.found_ids.begin(),
                    eager_score.found_ids.end(),
                    id) == eager_score.found_ids.end()) {
        exclusive_matches_ground_truth = true;
      }
    }
    EXPECT_TRUE(exclusive_matches_ground_truth)
        << "family[" << i << "]: no on-demand-exclusive ground-truth hit";
  }
}

TEST(AliasDifferential, CrossCallFamilyIsDeterministicAcrossThreads) {
  std::vector<SynthOutput> family = BuildCrossCallFamily();
  ASSERT_FALSE(family.empty());
  const Binary& binary = family[0].binary;
  std::string reference =
      AnalyzeNormalized(binary, AliasMode::kOnDemandSSE, /*num_threads=*/1);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(AnalyzeNormalized(binary, AliasMode::kOnDemandSSE, threads),
              reference)
        << "num_threads=" << threads;
  }
}

// ---------- re-linking reuses the phase-1 summaries -------------------------

/// The linked analysis as bytes: each summary's codec encoding plus a
/// normalized report of the link stats and the findings on top of it.
std::string LinkedBytes(const Program& program,
                        const ProgramAnalysis& analysis) {
  std::string bytes;
  for (const auto& [name, summary] : analysis.summaries) {
    std::vector<uint8_t> blob = EncodeSummary(summary);
    bytes += name + ":" + std::string(blob.begin(), blob.end()) + "\n";
  }
  PathFinder finder(program, analysis);
  AnalysisReport report;
  report.interproc_stats = analysis.stats;
  for (TaintPath& path : FilterVulnerable(finder.FindAll())) {
    report.findings.push_back({std::move(path)});
  }
  report.pathfinder_stats = finder.stats();
  return bytes + NormalizedJson(std::move(report));
}

TEST(AliasDifferential, RelinkFromBaseSummariesEqualsFreshBottomUp) {
  // DTaint links the phase-1 summaries a second time after indirect-call
  // resolution; that must equal summarizing and linking from scratch
  // over the resolved call graph.
  std::vector<Binary> binaries;
  std::vector<Binary> corpus = BuildCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    if ((i / 2) % 5 == static_cast<size_t>(VulnPattern::kDispatch)) {
      binaries.push_back(corpus[i]);
    }
  }
  for (SynthOutput& out : BuildCrossCallFamily()) {
    binaries.push_back(std::move(out.binary));
  }
  ASSERT_EQ(binaries.size(), 6u);
  size_t relinked = 0;
  for (const Binary& binary : binaries) {
    for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
      for (int threads : {1, 2}) {
        Program program = CfgBuilder(binary).BuildProgram().value();
        SymEngine engine(binary);
        InterprocConfig config;
        config.alias_mode = mode;
        config.num_threads = threads;
        CallGraph graph = CallGraph::Build(program);
        BaseSummaries base = Summarize(program, graph, engine, config);
        ProgramAnalysis first = Link(program, graph, base, config);
        if (ResolveIndirectCalls(program, first.summaries,
                                 first.alias_oracle.get())
                .empty()) {
          continue;
        }
        ++relinked;
        CallGraph resolved = CallGraph::Build(program);
        EXPECT_EQ(LinkedBytes(program,
                              Link(program, resolved, std::move(base), config)),
                  LinkedBytes(program,
                              RunBottomUp(program, resolved, engine, config)))
            << binary.soname << " mode=" << AliasModeName(mode)
            << " threads=" << threads;
      }
    }
  }
  // Every dispatch binary resolves in both modes; the cross-call pair
  // only under the on-demand oracle.
  EXPECT_EQ(relinked, 20u);
}

}  // namespace
}  // namespace dtaint
