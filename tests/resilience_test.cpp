// Resilience layer tests: analysis budgets and graceful degradation,
// deterministic fault injection at every instrumented pipeline site,
// retry-with-backoff on cache I/O, and the differential guarantees the
// degraded-summary design promises (tiny-budget findings are a subset
// of generous-budget findings; degraded summaries never enter the
// persistent cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cache/summary_cache.h"
#include "src/core/dtaint.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/resilience/budget.h"
#include "src/resilience/fault.h"
#include "src/resilience/retry.h"
#include "src/synth/firmware_synth.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

/// Every test that installs fault rules cleans the global plan up, so
/// suites can run in any order.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultPlan::Global().Clear(); }
};

/// `with_dispatch` adds a plant only structure similarity reaches, so
/// the binary is linked a second time after indirect-call resolution.
SynthOutput MixedProgram(uint64_t seed = 77, bool with_dispatch = false) {
  ProgramSpec spec;
  spec.name = "resil";
  spec.arch = Arch::kDtArm;
  spec.seed = seed;
  spec.filler_functions = 30;
  auto plant = [](const char* id, VulnPattern pattern, const char* source,
                  const char* sink, bool sanitized = false) {
    PlantSpec p;
    p.id = id;
    p.pattern = pattern;
    p.source = source;
    p.sink = sink;
    p.sanitized = sanitized;
    return p;
  };
  spec.plants = {
      plant("r1", VulnPattern::kDirect, "getenv", "system"),
      plant("r2", VulnPattern::kWrapper, "recv", "strcpy"),
      plant("r3", VulnPattern::kAliasChain, "recv", "strcpy"),
      plant("r4", VulnPattern::kDirect, "getenv", "system", true),
  };
  if (with_dispatch) {
    spec.plants.push_back(
        plant("r5", VulnPattern::kDispatch, "recv", "memcpy"));
  }
  return std::move(*SynthesizeBinary(spec));
}

std::vector<std::string> FindingKeys(const AnalysisReport& report) {
  std::vector<std::string> keys;
  for (const Finding& f : report.findings) {
    keys.push_back(f.path.sink_function + "|" + f.path.sink_name + "|" +
                   f.path.source_name);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------- BudgetTracker ----------------------------------------------------

TEST_F(ResilienceTest, UnlimitedBudgetNeverTrips) {
  BudgetTracker tracker(AnalysisBudget{});
  for (int i = 0; i < 100000; ++i) EXPECT_FALSE(tracker.ChargeStep());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(tracker.ChargeState());
  EXPECT_FALSE(tracker.exhausted());
  EXPECT_EQ(tracker.counters().exhausted_by, BudgetExhaustion::kNone);
  EXPECT_EQ(tracker.counters().steps, 100000u);
  EXPECT_EQ(tracker.counters().states, 1000u);
}

TEST_F(ResilienceTest, StepLimitTripsExactlyAtTheLimitAndIsSticky) {
  AnalysisBudget budget;
  budget.max_steps = 10;
  BudgetTracker tracker(budget);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(tracker.ChargeStep()) << "step " << i;
  }
  EXPECT_TRUE(tracker.ChargeStep());  // 10th step trips
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_EQ(tracker.cause(), BudgetExhaustion::kSteps);
  EXPECT_TRUE(tracker.ChargeStep());  // sticky
  EXPECT_TRUE(tracker.ChargeState());
}

TEST_F(ResilienceTest, StateLimitTripsIndependentlyOfSteps) {
  AnalysisBudget budget;
  budget.max_states = 3;
  BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.ChargeStep());
  EXPECT_FALSE(tracker.ChargeState());
  EXPECT_FALSE(tracker.ChargeState());
  EXPECT_TRUE(tracker.ChargeState());
  EXPECT_EQ(tracker.cause(), BudgetExhaustion::kStates);
}

TEST_F(ResilienceTest, MarkInjectedReportsInjectedCause) {
  BudgetTracker tracker(AnalysisBudget{});
  tracker.MarkInjected();
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_EQ(tracker.counters().exhausted_by, BudgetExhaustion::kInjected);
}

TEST_F(ResilienceTest, ExhaustionCauseNamesAreStable) {
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kNone), "none");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kDeadline), "deadline");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kSteps), "steps");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kStates), "states");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kExprNodes),
            "expr_nodes");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kInjected), "injected");
}

// ---------- FaultPlan spec parsing -------------------------------------------

TEST_F(ResilienceTest, SpecGrammarRoundTrips) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.InstallSpec("lift@parse_uri;summary:2+1,cache_read:*")
                  .ok());
  // lift@parse_uri: only matching detail fails, once.
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kLift, "main"));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kLift, "parse_uri"));
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kLift, "parse_uri"));
  // summary:2+1: skip the first occurrence, fail the next two.
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kSummary, "a"));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kSummary, "b"));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kSummary, "c"));
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kSummary, "d"));
  // cache_read:*: every occurrence fails.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(plan.ShouldFail(FaultSite::kCacheRead, "k"));
  }
}

TEST_F(ResilienceTest, BadSpecsAreRejectedWithContext) {
  FaultPlan& plan = FaultPlan::Global();
  EXPECT_FALSE(plan.InstallSpec("no_such_site").ok());
  EXPECT_FALSE(plan.InstallSpec("lift:notanumber").ok());
  EXPECT_FALSE(plan.InstallSpec("lift+x").ok());
  // A failed install leaves no rules behind.
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kLift, "anything"));
}

TEST_F(ResilienceTest, SiteNamesRoundTrip) {
  const FaultSite sites[] = {
      FaultSite::kLift,       FaultSite::kSummary,    FaultSite::kPathfinder,
      FaultSite::kCacheRead,  FaultSite::kCacheWrite, FaultSite::kExtract,
      FaultSite::kLoad,       FaultSite::kCrash,      FaultSite::kWorkerKill,
      FaultSite::kWorkerHang, FaultSite::kJournalTorn};
  for (FaultSite site : sites) {
    FaultSite parsed;
    ASSERT_TRUE(ParseFaultSite(FaultSiteName(site), &parsed));
    EXPECT_EQ(parsed, site);
  }
  FaultSite dummy;
  EXPECT_FALSE(ParseFaultSite("bogus", &dummy));
}

// ---------- RetryIo ----------------------------------------------------------

TEST_F(ResilienceTest, RetryIoRecoversFromTransientFailures) {
  RetryPolicy policy;
  policy.attempts = 3;
  policy.initial_backoff_us = 1;
  int calls = 0;
  int retries = 0;
  bool ok = RetryIo(
      policy, [&] { return ++calls >= 3; }, &retries);
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST_F(ResilienceTest, RetryIoGivesUpAfterAttempts) {
  RetryPolicy policy;
  policy.attempts = 4;
  policy.initial_backoff_us = 1;
  int calls = 0;
  bool ok = RetryIo(policy, [&] {
    ++calls;
    return false;
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 4);
}

TEST_F(ResilienceTest, RetryScheduleIsDeterministicAndJitterBounded) {
  RetryPolicy policy;
  policy.attempts = 6;
  policy.initial_backoff_us = 200;
  policy.max_total_backoff_us = 0;  // uncapped: test the raw jitter shape
  policy.jitter_seed = 0xfeedULL;

  std::vector<int> plan = RetryScheduleUs(policy);
  ASSERT_EQ(plan.size(), 5u);
  // Same policy, same schedule — fault-injection runs replay exactly.
  EXPECT_EQ(plan, RetryScheduleUs(policy));
  // Every sleep stays in [base/2, base] for base = initial << (retry-1).
  for (size_t i = 0; i < plan.size(); ++i) {
    int64_t base = static_cast<int64_t>(policy.initial_backoff_us) << i;
    EXPECT_GE(plan[i], base / 2) << "retry " << i + 1;
    EXPECT_LE(plan[i], base) << "retry " << i + 1;
  }
}

TEST_F(ResilienceTest, RetryScheduleSeedsDecorrelate) {
  // Two workers hammering the same disk must not retry in lockstep:
  // distinct jitter seeds (the supervisor derives them from the image
  // fingerprint) must yield distinct schedules.
  RetryPolicy a;
  a.attempts = 8;
  a.initial_backoff_us = 1000;
  a.max_total_backoff_us = 0;
  a.jitter_seed = 1;
  RetryPolicy b = a;
  b.jitter_seed = 2;
  EXPECT_NE(RetryScheduleUs(a), RetryScheduleUs(b));
}

TEST_F(ResilienceTest, RetryScheduleHonorsTotalWallClockCap) {
  RetryPolicy policy;
  policy.attempts = 12;          // doubling would sleep for minutes
  policy.initial_backoff_us = 1000;
  policy.max_total_backoff_us = 5000;
  std::vector<int> plan = RetryScheduleUs(policy);
  ASSERT_EQ(plan.size(), 11u);
  int64_t total = 0;
  for (int sleep_us : plan) {
    EXPECT_GE(sleep_us, 0);
    total += sleep_us;
  }
  EXPECT_LE(total, 5000);
  // Once the cap is spent, the remaining retries run back-to-back.
  EXPECT_EQ(plan.back(), 0);
}

// ---------- budget exhaustion degrades, never aborts -------------------------

TEST_F(ResilienceTest, TinyStepBudgetDegradesButCompletes) {
  SynthOutput out = MixedProgram();
  DTaintConfig config;
  config.interproc.budget.max_steps = 50;
  auto report = DTaint(config).Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->degraded_functions, 0u);
  EXPECT_FALSE(report->complete);
  EXPECT_FALSE(report->incidents.empty());
  for (const Incident& inc : report->incidents) {
    EXPECT_EQ(inc.phase, "summary");
    EXPECT_EQ(inc.status.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(inc.budget.exhausted_by, BudgetExhaustion::kSteps);
    EXPECT_FALSE(inc.detail.empty());
  }
}

TEST_F(ResilienceTest, GenerousBudgetMatchesUnbudgetedRun) {
  SynthOutput out = MixedProgram();
  auto unbudgeted = DTaint().Analyze(out.binary);
  DTaintConfig config;
  config.interproc.budget.max_steps = 50'000'000;
  config.interproc.budget.max_states = 50'000'000;
  auto generous = DTaint(config).Analyze(out.binary);
  ASSERT_TRUE(unbudgeted.ok());
  ASSERT_TRUE(generous.ok());
  EXPECT_EQ(generous->degraded_functions, 0u);
  EXPECT_TRUE(generous->complete);
  EXPECT_EQ(FindingKeys(*generous), FindingKeys(*unbudgeted));
  EXPECT_EQ(FindingsToJson(generous->findings),
            FindingsToJson(unbudgeted->findings));
}

TEST_F(ResilienceTest, TinyBudgetFindingsAreSubsetOfGenerous) {
  SynthOutput out = MixedProgram();
  auto generous = DTaint().Analyze(out.binary);
  ASSERT_TRUE(generous.ok());
  std::vector<std::string> full = FindingKeys(*generous);
  // Sweep budgets from starved to roomy: at every level the findings
  // must be a subset of the full run's — degraded summaries may hide
  // paths (counted in suppressed_findings) but never invent them.
  for (uint64_t max_steps : {20u, 100u, 500u, 2000u, 20000u}) {
    DTaintConfig config;
    config.interproc.budget.max_steps = max_steps;
    auto tiny = DTaint(config).Analyze(out.binary);
    ASSERT_TRUE(tiny.ok()) << "max_steps=" << max_steps;
    for (const std::string& key : FindingKeys(*tiny)) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(), key))
          << "spurious finding under max_steps=" << max_steps << ": "
          << key;
    }
    if (tiny->degraded_functions > 0) EXPECT_FALSE(tiny->complete);
  }
}

TEST_F(ResilienceTest, DeadlineBudgetDegradesStateExplosion) {
  // Wall-clock budgets are inherently nondeterministic in *which*
  // function trips, but an absurdly small deadline must degrade the
  // analysis rather than hang or crash it.
  SynthOutput out = MixedProgram();
  DTaintConfig config;
  config.interproc.budget.deadline_ms = 0.0001;
  auto report = DTaint(config).Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->degraded_functions, 0u);
  for (const Incident& inc : report->incidents) {
    EXPECT_EQ(inc.budget.exhausted_by, BudgetExhaustion::kDeadline);
  }
}

// ---------- on-demand alias oracle under expression budget -------------------

TEST_F(ResilienceTest, OnDemandAliasMemoBudgetDegradesConservatively) {
  // A program whose cross-call plant is detectable only through the
  // on-demand SSE oracle. The oracle's memo table charges against
  // max_expr_nodes; starving it must shed findings (empty twin sets →
  // fewer alias matches), never invent them — at every budget level
  // the findings are a subset of the generous on-demand run's.
  ProgramSpec spec;
  spec.name = "resil_alias";
  spec.arch = Arch::kDtArm;
  spec.seed = 88;
  spec.filler_functions = 20;
  PlantSpec xcall;
  xcall.id = "xa";
  xcall.pattern = VulnPattern::kCrossCallAlias;
  xcall.source = "recv";
  xcall.sink = "memcpy";
  PlantSpec direct;
  direct.id = "xd";
  direct.pattern = VulnPattern::kDirect;
  direct.source = "getenv";
  direct.sink = "system";
  spec.plants = {xcall, direct};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  DTaintConfig config;
  config.interproc.alias_mode = AliasMode::kOnDemandSSE;
  auto generous = DTaint(config).Analyze(out->binary);
  ASSERT_TRUE(generous.ok());
  DetectionScore full_score =
      ScoreFindings(generous->findings, out->ground_truth);
  ASSERT_EQ(full_score.true_positives, 2u)
      << "generous on-demand run must find both plants";
  std::vector<std::string> full = FindingKeys(*generous);

  for (uint64_t nodes : {1u, 8u, 64u, 4096u}) {
    DTaintConfig starved = config;
    starved.interproc.budget.max_expr_nodes = nodes;
    auto tiny = DTaint(starved).Analyze(out->binary);
    ASSERT_TRUE(tiny.ok()) << "max_expr_nodes=" << nodes;
    for (const std::string& key : FindingKeys(*tiny)) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(), key))
          << "spurious finding under max_expr_nodes=" << nodes << ": "
          << key;
    }
    // Fewer memoized twin pairs can only lose indirect-call
    // resolutions, never gain them.
    EXPECT_LE(tiny->indirect_calls_resolved,
              generous->indirect_calls_resolved)
        << "max_expr_nodes=" << nodes;
  }
}

// ---------- fault sites ------------------------------------------------------

TEST_F(ResilienceTest, InjectedLiftFaultIsIsolatedToOneFunction) {
  SynthOutput out = MixedProgram();
  auto clean = DTaint().Analyze(out.binary);
  ASSERT_TRUE(clean.ok());

  // Fail the lift of one filler function; everything else (including
  // every planted vulnerability) must still be found.
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("lift@fill").ok());
  auto faulted = DTaint().Analyze(out.binary);
  ASSERT_TRUE(faulted.ok());
  ASSERT_EQ(faulted->incidents.size(), 1u);
  EXPECT_EQ(faulted->incidents[0].phase, "lift");
  EXPECT_FALSE(faulted->complete);
  EXPECT_EQ(faulted->analyzed_functions, clean->analyzed_functions - 1);
  std::vector<std::string> full = FindingKeys(*clean);
  for (const std::string& key : FindingKeys(*faulted)) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), key)) << key;
  }
}

TEST_F(ResilienceTest, InjectedSummaryFaultDegradesExactlyOneFunction) {
  // With the dispatch plant the re-link reuses the phase-1 summaries,
  // so the one-shot fault's degradation survives it.
  for (bool with_dispatch : {false, true}) {
    SCOPED_TRACE(with_dispatch ? "relinked" : "linked once");
    SynthOutput out = MixedProgram(77, with_dispatch);
    ASSERT_TRUE(FaultPlan::Global().InstallSpec("summary@fill").ok());
    auto report = DTaint().Analyze(out.binary);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->indirect_calls_resolved > 0, with_dispatch);
    EXPECT_EQ(report->degraded_functions, 1u);
    ASSERT_EQ(report->incidents.size(), 1u);
    EXPECT_EQ(report->incidents[0].phase, "summary");
    EXPECT_EQ(report->incidents[0].budget.exhausted_by,
              BudgetExhaustion::kInjected);
    EXPECT_FALSE(report->complete);
  }
}

TEST_F(ResilienceTest, InjectedPathfinderFaultFailsTheBinaryNotTheProcess) {
  SynthOutput out = MixedProgram();
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("pathfind").ok());
  auto report = DTaint().Analyze(out.binary);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("pathfinder"),
            std::string::npos);
  // The very next analysis (fault consumed) succeeds.
  auto retry = DTaint().Analyze(out.binary);
  EXPECT_TRUE(retry.ok());
}

TEST_F(ResilienceTest, InjectedExtractFaultReturnsStatus) {
  auto fw = [] {
    FirmwareSpec spec;
    spec.vendor = "V";
    spec.product = "P";
    spec.version = "1";
    spec.binary_path = "/bin/httpd";
    spec.program.name = "httpd";
    spec.program.filler_functions = 4;
    return SynthesizeFirmware(spec);
  }();
  ASSERT_TRUE(fw.ok());
  std::vector<uint8_t> blob = FirmwarePacker::Pack(fw->image);

  ASSERT_TRUE(FaultPlan::Global().InstallSpec("extract@img.bin").ok());
  auto faulted = FirmwareExtractor::Extract(blob, "img.bin");
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.status().ToString().find("img.bin"), std::string::npos);
  // Fault consumed: same bytes extract fine afterwards.
  EXPECT_TRUE(FirmwareExtractor::Extract(blob, "img.bin").ok());
}

TEST_F(ResilienceTest, InjectedLoadFaultReturnsStatus) {
  SynthOutput out = MixedProgram();
  std::vector<uint8_t> bytes = BinaryWriter::Serialize(out.binary);
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("load@resil.bin").ok());
  auto faulted = BinaryLoader::Load(bytes, "resil.bin");
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.status().ToString().find("resil.bin"),
            std::string::npos);
  EXPECT_TRUE(BinaryLoader::Load(bytes, "resil.bin").ok());
}

TEST_F(ResilienceTest, TransientCacheReadFaultIsRetriedThrough) {
  fs::path dir = "resilience_cache_retry";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  config.retry.initial_backoff_us = 1;
  Hash128 key{9, 1};
  FunctionSummary s;
  s.name = "victim";
  {
    SummaryCache writer(config);
    writer.Store(key, s);
  }
  // One transient failure, then the (retried) read succeeds — the
  // entry is served and the retry is accounted.
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_read:1").ok());
  SummaryCache reader(config);
  auto hit = reader.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "victim");
  EXPECT_GE(reader.stats().io_retries, 1u);
  EXPECT_EQ(reader.stats().io_failures, 0u);
  fs::remove_all(dir);
}

TEST_F(ResilienceTest, PersistentCacheReadFaultFallsBackToMiss) {
  fs::path dir = "resilience_cache_readfail";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  config.retry.initial_backoff_us = 1;
  Hash128 key{9, 2};
  FunctionSummary s;
  s.name = "unreachable";
  {
    SummaryCache writer(config);
    writer.Store(key, s);
  }
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_read:*").ok());
  SummaryCache reader(config);
  EXPECT_FALSE(reader.Lookup(key).has_value());  // miss, not a crash
  EXPECT_GE(reader.stats().io_failures, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  fs::remove_all(dir);
}

TEST_F(ResilienceTest, PersistentCacheWriteFaultKeepsMemoryTier) {
  fs::path dir = "resilience_cache_writefail";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  config.retry.initial_backoff_us = 1;
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_write:*").ok());
  SummaryCache cache(config);
  Hash128 key{9, 3};
  FunctionSummary s;
  s.name = "memonly";
  cache.Store(key, s);
  EXPECT_GE(cache.stats().io_failures, 1u);
  // Disk tier never materialized, memory tier still serves.
  EXPECT_FALSE(fs::exists(dir / (key.ToHex() + ".dtsc")));
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "memonly");
  fs::remove_all(dir);
}

// ---------- degraded summaries and the persistent cache ----------------------

TEST_F(ResilienceTest, DegradedSummariesAreNeverStored) {
  SynthOutput out = MixedProgram();
  fs::path dir = "resilience_degraded_cache";
  fs::remove_all(dir);
  CacheConfig cache_config;
  cache_config.disk_dir = dir.string();
  SummaryCache cache(cache_config);

  DTaintConfig starved;
  starved.interproc.cache = &cache;
  starved.interproc.budget.max_steps = 200;
  auto tiny = DTaint(starved).Analyze(out.binary);
  ASSERT_TRUE(tiny.ok());
  ASSERT_GT(tiny->degraded_functions, 0u);

  // Warm rerun with no budget: previously degraded functions cannot be
  // served from the cache (they were never stored), so the full run's
  // findings match a cache-free analysis exactly.
  DTaintConfig generous;
  generous.interproc.cache = &cache;
  auto warm = DTaint(generous).Analyze(out.binary);
  auto reference = DTaint().Analyze(out.binary);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(warm->degraded_functions, 0u);
  EXPECT_TRUE(warm->complete);
  EXPECT_EQ(FindingsToJson(warm->findings),
            FindingsToJson(reference->findings));
  fs::remove_all(dir);
}

// ---------- end-to-end: the report tells the truth ---------------------------

TEST_F(ResilienceTest, JsonReportCarriesIncidentsAndCompleteness) {
  SynthOutput out = MixedProgram();
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("summary@fill").ok());
  auto report = DTaint().Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  std::string json = ReportToJson(*report);
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
  EXPECT_NE(json.find("\"incidents\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"exhausted_by\":\"injected\""), std::string::npos);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
}

}  // namespace
}  // namespace dtaint
