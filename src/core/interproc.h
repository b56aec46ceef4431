// Bottom-up interprocedural data flow — paper §III-E, Algorithm 2.
//
// Summarize analyzes each function exactly once into a *base* summary
// that no call-graph edge can change. Link traverses a call graph in
// post-order (callees before callers; recursion handled by SCC
// condensation) and links each base summary against its linked callees:
//
//  * ret_{callsite} symbols are replaced by the callee's actual return
//    value (ReplaceRetVariable); heap pointers returned by callees get
//    their identity re-hashed with the callsite so distinct callsites
//    yield distinct objects (Listing 1);
//  * the callee's escaping definitions — (d, u) pairs reaching the
//    exit whose root pointer is a formal argument or returned pointer
//    — are rewritten formal->actual (ReplaceFormalArgs) and pushed
//    into the caller's definition pairs (UpdateDefPairs);
//  * the callee's undefined uses are likewise rewritten and forwarded
//    to the caller (ForwardUndefinedUse).
//
// Linking is a cheap substitution pass; after indirect-call resolution
// DTaint links the same base summaries again. This is the structural
// reason DTaint's DDG generation beats the top-down worklist baseline
// (paper Table VII).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/alias.h"
#include "src/resilience/budget.h"
#include "src/resilience/incident.h"
#include "src/symexec/defpairs.h"
#include "src/symexec/engine.h"

namespace dtaint {

class SummaryCache;
class OnDemandAliasOracle;

struct InterprocConfig {
  bool apply_alias = true;     // run the alias step at all
  /// How the alias step runs when apply_alias is set:
  ///  * kEager — Algorithm 1 rewrites every summary in phase 1 (the
  ///    paper's design);
  ///  * kOnDemandSSE — phase 1 skips the rewrite; ProgramAnalysis
  ///    carries an OnDemandAliasOracle that answers alias queries
  ///    lazily against the *linked* summaries (pathfinder taint
  ///    transfer, structsim indirect-call resolution). The mode is
  ///    part of the summary-cache fingerprint, so cached eager and
  ///    on-demand summaries never mix.
  AliasMode alias_mode = AliasMode::kEager;
  /// Cap on defs/uses imported per callsite (keeps linking linear on
  /// pathological fan-in).
  size_t max_imported_per_callsite = 256;
  /// Worker threads for Summarize. Per-function analyses are
  /// independent, and results are identical for any thread count (the
  /// differential suite tests it); bench/scaling_threads measures the
  /// speedup. 1 = sequential (the default).
  int num_threads = 1;
  /// Optional persistent function-summary cache (off by default). When
  /// set, the intraprocedural phase looks up each function's summary by
  /// its content-addressed key before analyzing, and stores misses
  /// after. Results are identical with or without the cache — enforced
  /// by the differential-oracle test suite. The cache is internally
  /// synchronized; sharing one across threads and scans is safe.
  SummaryCache* cache = nullptr;
  /// Size of the hot-function profile (top functions by summary-
  /// analysis wall time) kept in InterprocStats. 0 disables profiling.
  size_t hot_function_count = 10;
  /// Per-function analysis budget (0 limits = unbounded). Each worker
  /// charges its own BudgetTracker during symbolic exploration and the
  /// alias rewrite; an exhausted function yields the conservative
  /// degraded summary (never cached) and an Incident in the stats.
  AnalysisBudget budget;
};

/// One entry of the hot-function profile: where summary-production time
/// went, per function (paper Tables VI/VII ask it per phase).
struct HotFunction {
  std::string name;
  double seconds = 0.0;
  bool cached = false;  // summary served by the cache, not recomputed
};

/// Summarize fills every field but the three link counters Link adds.
struct InterprocStats {
  /// Wall time of phase 1 — per-function summary production (symbolic
  /// analysis + alias rewrite, or a cache hit). This is exactly the
  /// work a summary cache can serve, so bench/cache_warm reports its
  /// cold-vs-warm ratio separately from end-to-end wall time.
  double summary_seconds = 0.0;
  size_t functions_processed = 0;
  size_t defs_propagated = 0;
  size_t uses_forwarded = 0;
  size_t rets_replaced = 0;
  size_t alias_pairs_added = 0;
  /// Summary-cache traffic of phase 1 (zero without a cache), read from
  /// the registry's "cache.*" counters the cache increments (obs_test
  /// proves them equal to CacheStats): hits + misses = functions looked
  /// up, evictions is the lifetime total of the shared cache.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;   // lifetime evictions of the shared cache
  size_t cache_memory_bytes = 0;  // in-memory tier footprint after phase 1
  /// Top functions by summary-production time, most expensive
  /// first (bounded by InterprocConfig::hot_function_count).
  std::vector<HotFunction> hot_functions;
  /// Functions that exhausted their budget (or hit an injected summary
  /// fault) and were replaced by the conservative degraded summary.
  size_t degraded_functions = 0;
  /// Functions whose exploration hit any internal path/step cap
  /// (engine truncation or degraded — analysis incomplete either way).
  size_t truncated_functions = 0;
  /// One record per degraded function: phase "summary", the function
  /// name, and the budget counters at exhaustion.
  std::vector<Incident> incidents;
};

/// Phase-1 output: each function's base summary (symbolic analysis plus
/// the eager alias rewrite, before any linking), by name, and the
/// phase's stats. Link consumes it; keep a copy to link again.
struct BaseSummaries {
  std::map<std::string, FunctionSummary> summaries;
  InterprocStats stats;
};

/// Whole-program analysis state after linking: per-function linked
/// summaries (def pairs now include inherited callee effects).
struct ProgramAnalysis {
  std::map<std::string, FunctionSummary> summaries;
  InterprocStats stats;
  /// Set iff linking ran with AliasMode::kOnDemandSSE: the memoized
  /// alias-query oracle consumers (pathfinder, structsim) share.
  /// Null in eager mode — callers treat "no oracle" as "twins already
  /// materialized in the summaries".
  std::shared_ptr<OnDemandAliasOracle> alias_oracle;
};

/// Phase 1: analyzes every function of `program` once, in `graph`'s
/// bottom-up order. Budget-exhausted functions get the degraded
/// summary and an Incident.
BaseSummaries Summarize(const Program& program, const CallGraph& graph,
                        const SymEngine& engine,
                        const InterprocConfig& config = {});

/// Phase 2: links `base` per Algorithm 2 over `graph`, built over
/// `program` after any indirect-call resolution that is to carry flow.
/// The result's stats are `base.stats` plus the link counters.
ProgramAnalysis Link(const Program& program, const CallGraph& graph,
                     BaseSummaries base, const InterprocConfig& config = {});

/// Link(Summarize(...)): both phases over one call graph.
ProgramAnalysis RunBottomUp(const Program& program, const CallGraph& graph,
                            const SymEngine& engine,
                            const InterprocConfig& config = {});

}  // namespace dtaint
