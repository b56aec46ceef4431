// Shared machinery for the differential and golden-report tests.
//
// BuildCorpus synthesizes the standard differential corpora: `seeds`
// seeds x 2 architectures rotating through the five standard plant
// patterns, with a sanitized twin on odd seeds so reports contain both
// findings and their absence. Each test keeps its own prefix, seed base
// and filler count, so the four corpora stay disjoint.
//
// NormalizedJson serializes a report with the run-dependent fields
// (timings, cache counters, per-run metrics, the timing-ordered
// hot-function profile) zeroed and the per-phase timings dropped, so
// timings_seconds keeps only ssa/ddg/total; everything else must
// survive byte comparison. PathFinderStats is NOT cleared: path-search
// effort is deterministic and must itself be identical across runs.
//
// The golden helpers compare against the frozen reports under
// tests/testing/golden/ (see its README), found through __FILE__ so the
// tests run from any working directory.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/core/interproc.h"
#include "src/report/json.h"
#include "src/synth/firmware_synth.h"
#include "src/util/hash.h"

namespace dtaint {
namespace testing_util {

struct CorpusSpec {
  std::string prefix;       // binary name = prefix + seed
  uint64_t seed_base = 0;   // synthesizer seed = seed_base + seed
  int filler_base = 0;      // filler functions = filler_base + seed
  int seeds = 10;           // corpus size = 2 * seeds
};

// The corpora of the four differential tests.
inline const CorpusSpec kCacheCorpus{"fw", 100, 15, 10};
inline const CorpusSpec kInternCorpus{"ifw", 300, 15, 5};
inline const CorpusSpec kAliasCorpus{"afw", 700, 12, 10};
inline const CorpusSpec kStateCorpus{"sfw", 900, 12, 10};

inline std::vector<Binary> BuildCorpus(const CorpusSpec& corpus_spec) {
  std::vector<Binary> corpus;
  for (int seed = 0; seed < corpus_spec.seeds; ++seed) {
    for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
      ProgramSpec spec;
      spec.name = corpus_spec.prefix + std::to_string(seed);
      spec.arch = arch;
      spec.seed = corpus_spec.seed_base + static_cast<uint64_t>(seed);
      spec.filler_functions = corpus_spec.filler_base + seed;
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

/// `zero_alias_effort` also zeroes the propagation-effort counters that
/// lawfully differ between alias modes (eager materializes and
/// propagates twin pairs; on-demand does not) and the path-search
/// effort that follows from them.
inline std::string NormalizedJson(AnalysisReport report,
                                  bool zero_alias_effort = false) {
  report.ssa_seconds = 0.0;
  report.ddg_seconds = 0.0;
  report.total_seconds = 0.0;
  report.phase_seconds = obs::PhaseTimings{};
  report.interproc_stats.summary_seconds = 0.0;
  report.interproc_stats.cache_hits = 0;
  report.interproc_stats.cache_misses = 0;
  report.interproc_stats.cache_evictions = 0;
  report.interproc_stats.cache_memory_bytes = 0;
  report.interproc_stats.hot_functions.clear();
  if (zero_alias_effort) {
    report.interproc_stats.defs_propagated = 0;
    report.interproc_stats.uses_forwarded = 0;
    report.interproc_stats.rets_replaced = 0;
    report.interproc_stats.alias_pairs_added = 0;
    report.pathfinder_stats.paths_explored = 0;
  }
  report.metrics = obs::MetricsSnapshot{};
  return ReportToJson(report);
}

/// One line per function, in name order: FNV-1a of the function's
/// EncodeSummary bytes, their length, and the function name.
inline std::string SummaryDigest(
    const std::map<std::string, FunctionSummary>& summaries) {
  std::string out;
  char hex[17];
  for (const auto& [name, summary] : summaries) {
    std::vector<uint8_t> blob = EncodeSummary(summary);
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv1a(blob)));
    out += std::string(hex) + " " + std::to_string(blob.size()) + " " +
           name + "\n";
  }
  return out;
}

inline std::filesystem::path GoldenDir() {
  return std::filesystem::path(__FILE__).parent_path() / "golden";
}

/// Golden file name for report `index` of `corpus` under `alias_mode`,
/// e.g. "state_03_eager" (".json" and ".digest" are appended).
inline std::string GoldenName(const std::string& corpus, size_t index,
                              AliasMode alias_mode) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s_%02zu_%s", corpus.c_str(), index,
                alias_mode == AliasMode::kEager ? "eager" : "ondemand");
  return buf;
}

inline std::string ReadGolden(const std::string& file) {
  std::ifstream in(GoldenDir() / file, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << (GoldenDir() / file);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compares `actual` with golden `file`. On a mismatch, writes `actual`
/// under the test temp dir and names it in the failure: refreshing a
/// golden is copying that file over the one in tests/testing/golden/.
inline ::testing::AssertionResult MatchesGolden(const std::string& file,
                                                const std::string& actual) {
  if (actual == ReadGolden(file)) return ::testing::AssertionSuccess();
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dtaint_golden_actual";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / file, std::ios::binary) << actual;
  return ::testing::AssertionFailure()
         << "differs from golden " << file << "; actual output written to "
         << (dir / file);
}

/// Normalized report of one default analysis, or "" on failure.
inline std::string AnalyzeNormalized(const Binary& binary,
                                     AliasMode alias_mode, int num_threads,
                                     SummaryCache* cache,
                                     bool block_memo = true) {
  DTaintConfig config;
  config.interproc.alias_mode = alias_mode;
  config.interproc.num_threads = num_threads;
  config.interproc.cache = cache;
  config.engine.block_memo = block_memo;
  auto report = DTaint(config).Analyze(binary);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? NormalizedJson(*report) : std::string();
}

/// SummaryDigest of the linked summaries of `binary` under `alias_mode`.
inline std::string LinkedSummaryDigest(const Binary& binary,
                                       AliasMode alias_mode) {
  Program program = CfgBuilder(binary).BuildProgram().value();
  SymEngine engine(binary);
  InterprocConfig config;
  config.alias_mode = alias_mode;
  CallGraph graph = CallGraph::Build(program);
  return SummaryDigest(RunBottomUp(program, graph, engine, config).summaries);
}

/// Every binary of the `name` corpus, in both alias modes, at threads
/// 1/2/8, without a cache and with a cold and a warm SummaryCache, must
/// reproduce its golden report; its linked summaries must reproduce
/// the golden digest.
inline void ExpectCorpusMatchesGoldens(const std::string& name,
                                       const CorpusSpec& spec) {
  std::vector<Binary> corpus = BuildCorpus(spec);
  ASSERT_EQ(corpus.size(), static_cast<size_t>(2 * spec.seeds));
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
      std::string golden = GoldenName(name, i, mode);
      for (int threads : {1, 2, 8}) {
        SummaryCache cache;  // in-memory; the warm run decodes its blobs
        for (SummaryCache* c : {static_cast<SummaryCache*>(nullptr), &cache,
                                &cache}) {
          EXPECT_TRUE(MatchesGolden(golden + ".json",
                                    AnalyzeNormalized(corpus[i], mode,
                                                      threads, c)))
              << "threads=" << threads << " cache="
              << (c ? "on" : "off");
        }
      }
      EXPECT_TRUE(MatchesGolden(golden + ".digest",
                                LinkedSummaryDigest(corpus[i], mode)));
    }
  }
}

}  // namespace testing_util
}  // namespace dtaint
