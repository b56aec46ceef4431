#include "src/core/interproc.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "src/cache/summary_cache.h"
#include "src/core/alias.h"
#include "src/core/alias_ondemand.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/stopwatch.h"
#include "src/obs/trace.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// Replaces every formal-argument symbol arg_i occurring in `expr`
/// with the i-th actual argument of the callsite (Algorithm 2's
/// ReplaceFormalArgs). Unmapped formals stay as-is.
SymRef ReplaceFormalArgs(const SymRef& expr,
                         const std::vector<SymRef>& actual_args) {
  // O(1) bail-out for the common case: nothing argument-rooted inside.
  if (!expr->ContainsKind(SymKind::kArg)) return expr;
  SymRef result = expr;
  for (int i = 0; i < kMaxModeledArgs; ++i) {
    SymRef formal = SymExpr::Arg(i);
    if (!result->Contains(formal)) continue;
    if (i < static_cast<int>(actual_args.size()) && actual_args[i]) {
      result = SymExpr::Replace(result, formal, actual_args[i]);
    }
  }
  return result;
}

/// Re-keys Heap identities with the callsite: the callee's heap object
/// hash is extended by the caller's callsite address, so two calls to
/// the same allocating callee produce distinct objects (Listing 1's
/// "hash value of the callsite chain").
SymRef RehashHeap(const SymRef& expr, uint32_t callsite) {
  // The kind bitmask proves heap-freeness without walking the tree.
  if (!expr->ContainsKind(SymKind::kHeap)) return expr;
  if (expr->kind() == SymKind::kHeap) {
    return SymExpr::Heap(HashCombine(expr->heap_id(), callsite));
  }
  if (!expr->lhs() && !expr->rhs()) return expr;
  SymRef lhs = expr->lhs() ? RehashHeap(expr->lhs(), callsite) : nullptr;
  SymRef rhs = expr->rhs() ? RehashHeap(expr->rhs(), callsite) : nullptr;
  if (lhs.get() == expr->lhs().get() && rhs.get() == expr->rhs().get()) {
    return expr;
  }
  if (expr->kind() == SymKind::kDeref) {
    return SymExpr::Deref(lhs, expr->deref_size());
  }
  if (expr->kind() == SymKind::kBin) {
    return SymExpr::Bin(expr->binop(), lhs, rhs);
  }
  return expr;
}

/// Picks the callee's representative return value: prefer a value that
/// carries structure (argument passthrough, heap pointer, tainted
/// expression) over opaque unknowns.
SymRef RepresentativeReturn(const FunctionSummary& callee) {
  SymRef best;
  for (const SymRef& ret : callee.return_values) {
    if (!ret) continue;
    if (!best) best = ret;
    switch (RootPointerOf(ret)->kind()) {
      case SymKind::kArg:
      case SymKind::kHeap:
      case SymKind::kTaint:
      case SymKind::kRet:
        return ret;
      default:
        break;
    }
    if (ret->IsTainted()) return ret;
  }
  return best;
}

/// Cache-key encoding of the alias configuration: 0 = alias off,
/// 1 = eager (the same bit the pre-mode bool mixed, so existing eager
/// caches stay valid), 2 = on-demand SSE (summaries carry no twins).
int AliasModeKey(const InterprocConfig& config) {
  if (!config.apply_alias) return 0;
  return config.alias_mode == AliasMode::kOnDemandSSE ? 2 : 1;
}

}  // namespace

BaseSummaries Summarize(const Program& program, const CallGraph& graph,
                        const SymEngine& engine,
                        const InterprocConfig& config) {
  BaseSummaries result;
  InterprocStats& stats = result.stats;
  const std::vector<std::string> order = graph.BottomUpOrder();
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::EventStream& events = obs::EventStream::Global();
  // Live progress gauge the heartbeat thread reads: bumped on EVERY
  // analyze_one entry — cache hit or miss — so the rate tracks work
  // retired, and so event-off and event-on runs stay byte-identical
  // (the differential oracles compare cold vs warm reports).
  obs::Counter& fns_done = registry.counter("summary.functions_done");
  // CoW-state and block-memoization traffic, folded out of each
  // summary's ExplorationStats here (the symexec layer stays obs-free).
  // Cache-served summaries carry zeros, so the counters reflect work
  // actually performed this run.
  obs::Counter& m_state_forks = registry.counter("engine.state_forks");
  obs::Counter& m_cow_copies = registry.counter("engine.cow_copies");
  obs::Counter& m_overlay_spills = registry.counter("engine.overlay_spills");
  obs::Counter& m_memo_hits = registry.counter("engine.block_memo_hits");
  obs::Counter& m_memo_lookups = registry.counter("engine.block_memo_lookups");
  obs::Counter& m_tainted_paths = registry.counter("engine.tainted_paths");

  // Intraprocedural static symbolic analysis — exactly once per
  // function (and, with a summary cache configured, once per function
  // *content* across runs). The analyses are independent of each
  // other, so with num_threads > 1 they run on a worker pool; each
  // writes its own pre-created map slot, so no synchronization beyond
  // the work-index counter (and the cache's internal lock) is needed.
  std::vector<FunctionSummary*> base;
  for (const std::string& name : order) {
    base.push_back(&result.summaries[name]);
  }
  // Per-function cost accounting for the hot-function profile and the
  // "summary.function_micros" histogram; slot-per-function, so the
  // worker pool writes without synchronization.
  std::vector<double> fn_seconds(order.size(), 0.0);
  std::vector<uint8_t> fn_cached(order.size(), 0);
  // Budget counters per degraded slot, turned into Incident records
  // after the pool joins (cause kNone = not degraded).
  std::vector<BudgetCounters> fn_budget(order.size());
  SummaryCache* cache = config.cache;
  Hash128 engine_fp;
  uint64_t cache_hits_before = 0;
  uint64_t cache_misses_before = 0;
  if (cache) {
    engine_fp = EngineFingerprint(engine.binary(), engine.config(),
                                  AliasModeKey(config));
    cache_hits_before = registry.counter("cache.hits").Value();
    cache_misses_before = registry.counter("cache.misses").Value();
  }

  // Step 2 (pointer-alias recognition, Algorithm 1) runs here rather
  // than in the linking phase: it is a per-function rewrite of the
  // summary alone, so it parallelizes with the analyses and — because
  // the alias mode is part of the engine fingerprint — its output is
  // just as content-addressable. Caching the post-alias summary keeps
  // the whole rewrite off the warm path. In on-demand mode the rewrite
  // is skipped entirely: the oracle created after linking computes
  // twins lazily for the functions the consumers actually query.
  bool eager_alias =
      config.apply_alias && config.alias_mode == AliasMode::kEager;
  auto produce = [&](const Function& fn, BudgetTracker& tracker) {
    if (FaultPlan::Global().ShouldFail(FaultSite::kSummary, fn.name)) {
      tracker.MarkInjected();
    }
    FunctionSummary summary = engine.Analyze(fn, &tracker);
    if (eager_alias && !summary.degraded) {
      summary.alias_pairs = AliasReplace(summary, &tracker).pairs_added;
      // The alias rewrite can be the step that exhausts the budget;
      // degrade the whole function then — a partially-aliased summary
      // would make findings depend on where the budget tripped.
      if (tracker.exhausted()) summary = MakeDegradedSummary(fn);
    }
    return summary;
  };
  auto analyze_one = [&](size_t i) {
    const Function* fn = program.FindFunction(order[i]);
    if (!fn) return;
    FunctionSummary& summary = *base[i];
    fns_done.Add();
    if (events.enabled()) {
      events.Emit(obs::Event("function_begin").Str("function", order[i]));
    }
    obs::Span span(tracer, "function", order[i]);
    obs::Stopwatch watch;
    BudgetTracker tracker(config.budget);
    bool from_cache = false;
    if (cache) {
      Hash128 key = FunctionKey(*fn, engine_fp);
      if (auto cached = cache->Lookup(key)) {
        summary = std::move(*cached);
        fn_cached[i] = 1;
        from_cache = true;
      } else {
        summary = produce(*fn, tracker);
        // Degraded summaries are budget artifacts, not function
        // content — never persist them, so a rerun with a larger
        // budget (or the fault removed) re-analyzes at full effort.
        if (!summary.degraded) cache->Store(key, summary);
      }
    } else {
      summary = produce(*fn, tracker);
    }
    if (!from_cache && summary.degraded) fn_budget[i] = tracker.counters();
    fn_seconds[i] = watch.Seconds();
    const ExplorationStats& es = summary.engine_stats;
    m_state_forks.Add(es.state_forks);
    m_cow_copies.Add(es.cow_chunk_copies);
    m_overlay_spills.Add(es.overlay_spills);
    m_memo_hits.Add(es.memo_hits);
    m_memo_lookups.Add(es.memo_lookups);
    m_tainted_paths.Add(es.tainted_paths);
    if (events.enabled()) {
      events.Emit(obs::Event("function_end")
                      .Str("function", order[i])
                      .Num(
                          "micros",
                          static_cast<uint64_t>(fn_seconds[i] * 1e6))
                      .Bool("cached", from_cache)
                      .Bool("degraded", summary.degraded)
                      .Num("forks", es.state_forks)
                      .Num("memo_hits", es.memo_hits)
                      .Num("memo_lookups", es.memo_lookups));
    }
  };

  // Clamp the pool to the number of work items: spawning thousands of
  // idle threads for a small binary wastes resources, and an oversized
  // request (`--threads 10000`) could otherwise die with
  // std::system_error at thread creation.
  int threads = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(1, config.num_threads)),
      std::max<size_t>(1, order.size())));
  if (events.enabled()) {
    events.Emit(obs::Event("phase_begin")
                    .Str("phase", "summary")
                    .Num("functions", static_cast<uint64_t>(order.size())));
  }
  {
    obs::Span summary_span(tracer, "phase", "summary");
    obs::Stopwatch phase1;
    if (threads == 1) {
      for (size_t i = 0; i < order.size(); ++i) analyze_one(i);
    } else {
      std::atomic<size_t> next{0};
      auto worker = [&] {
        for (;;) {
          size_t i = next.fetch_add(1);
          if (i >= order.size()) return;
          analyze_one(i);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
    }
    stats.summary_seconds = phase1.Seconds();
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (fn_budget[i].exhausted_by == BudgetExhaustion::kNone) continue;
    Incident incident;
    incident.binary = engine.binary().soname;
    incident.phase = "summary";
    incident.detail = order[i];
    incident.status = OutOfRange(
        "analysis budget exhausted (" +
        std::string(BudgetExhaustionName(fn_budget[i].exhausted_by)) +
        "); degraded summary substituted");
    incident.budget = fn_budget[i];
    stats.incidents.push_back(std::move(incident));
  }
  {
    obs::Histogram& fn_micros = registry.histogram("summary.function_micros");
    for (double s : fn_seconds) {
      fn_micros.Observe(static_cast<uint64_t>(s * 1e6));
    }
  }
  if (config.hot_function_count > 0) {
    std::vector<size_t> by_cost(order.size());
    std::iota(by_cost.begin(), by_cost.end(), size_t{0});
    size_t keep = std::min(config.hot_function_count, by_cost.size());
    std::partial_sort(by_cost.begin(), by_cost.begin() + keep, by_cost.end(),
                      [&](size_t a, size_t b) {
                        return fn_seconds[a] > fn_seconds[b];
                      });
    stats.hot_functions.reserve(keep);
    for (size_t k = 0; k < keep; ++k) {
      size_t i = by_cost[k];
      stats.hot_functions.push_back(
          {order[i], fn_seconds[i], fn_cached[i] != 0});
    }
  }
  if (cache) {
    // Compatibility view: the cache mirrors its counters into the
    // global registry as it goes; read the phase's deltas back out
    // instead of snapshotting CacheStats (proven equal in obs_test).
    stats.cache_hits =
        registry.counter("cache.hits").Value() - cache_hits_before;
    stats.cache_misses =
        registry.counter("cache.misses").Value() - cache_misses_before;
    stats.cache_evictions = registry.counter("cache.evictions").Value();
    stats.cache_memory_bytes =
        static_cast<size_t>(registry.gauge("cache.memory_bytes").Value());
  }
  for (const auto& [name, summary] : result.summaries) {
    stats.alias_pairs_added += summary.alias_pairs;
    if (summary.degraded) ++stats.degraded_functions;
    if (summary.truncated) ++stats.truncated_functions;
  }
  stats.functions_processed = result.summaries.size();
  if (events.enabled()) {
    events.Emit(
        obs::Event("phase_end")
            .Str("phase", "summary")
            .Double("duration_ms", stats.summary_seconds * 1e3)
            .Num("functions", static_cast<uint64_t>(order.size()))
            .Num("cache_hits", static_cast<uint64_t>(stats.cache_hits))
            .Num("cache_misses", static_cast<uint64_t>(stats.cache_misses)));
  }
  registry.counter("summary.functions").Add(stats.functions_processed);
  registry.counter("summary.degraded").Add(stats.degraded_functions);
  registry.counter("alias.pairs_added").Add(stats.alias_pairs_added);
  return result;
}

ProgramAnalysis Link(const Program& program, const CallGraph& graph,
                     BaseSummaries base, const InterprocConfig& config) {
  ProgramAnalysis analysis;
  analysis.stats = std::move(base.stats);
  InterprocStats& stats = analysis.stats;
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::EventStream& events = obs::EventStream::Global();
  if (events.enabled()) {
    events.Emit(obs::Event("phase_begin").Str("phase", "link"));
  }

  // Sequential in bottom-up order: each caller needs its callees'
  // linked summaries. Each base map node moves into the result.
  obs::Span link_span(tracer, "phase", "link");
  obs::Stopwatch link_watch;
  for (const std::string& name : graph.BottomUpOrder()) {
    const Function* fn = program.FindFunction(name);
    auto node = base.summaries.extract(name);
    if (!fn || node.empty()) continue;
    FunctionSummary& summary = node.mapped();

    // Link against already-processed callees (Algorithm 2).
    std::vector<DefPair> imported_defs;
    std::vector<UseRecord> imported_uses;
    for (const CallEvent& call : summary.calls) {
      // Indirect calls may have several similarity-resolved targets.
      std::vector<std::string> targets;
      if (call.is_indirect) {
        const CallSite* cs = fn->CallSiteAt(call.callsite);
        if (cs) targets = cs->resolved_targets;
      } else if (!call.is_import && !call.callee.empty()) {
        targets.push_back(call.callee);
      }
      for (const std::string& target : targets) {
        auto callee_it = analysis.summaries.find(target);
        if (callee_it == analysis.summaries.end()) continue;  // SCC member
        const FunctionSummary& callee = callee_it->second;

        // -- ReplaceRetVariable: resolve ret_{cs} in the caller --------
        // A return value minted by a degraded callee (directly, or
        // transitively via its own callees) is an over-approximation:
        // taint the substituted pairs with the degraded flag and mark
        // the caller's returns contaminated, so the path finder can
        // suppress flows built on guessed data.
        bool callee_ret_degraded = callee.degraded || callee.ret_degraded;
        SymRef ret_sym = SymExpr::Ret(call.callsite);
        SymRef ret_value = RepresentativeReturn(callee);
        if (ret_value) {
          ret_value = ReplaceFormalArgs(ret_value, call.args);
          ret_value = RehashHeap(ret_value, call.callsite);
          for (DefPair& dp : summary.def_pairs) {
            bool touched = false;
            if (dp.d && dp.d->Contains(ret_sym)) {
              dp.d = SymExpr::Replace(dp.d, ret_sym, ret_value);
              touched = true;
            }
            if (dp.u && dp.u->Contains(ret_sym)) {
              dp.u = SymExpr::Replace(dp.u, ret_sym, ret_value);
              touched = true;
            }
            if (touched) {
              ++stats.rets_replaced;
              if (callee_ret_degraded) dp.degraded = true;
            }
          }
          for (SymRef& rv : summary.return_values) {
            if (rv && rv->Contains(ret_sym)) {
              rv = SymExpr::Replace(rv, ret_sym, ret_value);
              ++stats.rets_replaced;
              if (callee_ret_degraded) summary.ret_degraded = true;
            }
          }
        }

        // -- UpdateDefPairs: import callee's escaping definitions ------
        size_t imported = 0;
        for (const DefPair* dp : callee.EscapingDefs()) {
          if (imported >= config.max_imported_per_callsite) break;
          DefPair linked;
          linked.d = ReplaceFormalArgs(dp->d, call.args);
          linked.u = ReplaceFormalArgs(dp->u, call.args);
          linked.d = RehashHeap(linked.d, call.callsite);
          linked.u = RehashHeap(linked.u, call.callsite);
          linked.site = dp->site;        // original defining site
          linked.path_id = call.path_id; // caller's path context
          linked.degraded = dp->degraded || callee.degraded;
          imported_defs.push_back(std::move(linked));
          ++imported;
          ++stats.defs_propagated;
        }

        // -- ForwardUndefinedUse: lift unresolved uses into the caller -
        size_t forwarded = 0;
        for (const UseRecord& use : callee.undefined_uses) {
          if (forwarded >= config.max_imported_per_callsite) break;
          SymRef root = RootPointerOf(use.u);
          if (!root || root->kind() != SymKind::kArg) continue;
          UseRecord lifted;
          lifted.u = ReplaceFormalArgs(use.u, call.args);
          lifted.site = use.site;
          lifted.path_id = call.path_id;
          imported_uses.push_back(std::move(lifted));
          ++forwarded;
          ++stats.uses_forwarded;
        }
      }
    }
    summary.def_pairs.insert(summary.def_pairs.end(),
                             std::make_move_iterator(imported_defs.begin()),
                             std::make_move_iterator(imported_defs.end()));
    summary.undefined_uses.insert(
        summary.undefined_uses.end(),
        std::make_move_iterator(imported_uses.begin()),
        std::make_move_iterator(imported_uses.end()));

    analysis.summaries.insert(std::move(node));
  }
  link_span.Finish();
  if (events.enabled()) {
    events.Emit(
        obs::Event("phase_end")
            .Str("phase", "link")
            .Double("duration_ms", link_watch.Seconds() * 1e3)
            .Num("defs_propagated",
                 static_cast<uint64_t>(stats.defs_propagated))
            .Num("uses_forwarded",
                 static_cast<uint64_t>(stats.uses_forwarded)));
  }

  if (config.apply_alias && config.alias_mode == AliasMode::kOnDemandSSE) {
    analysis.alias_oracle =
        std::make_shared<OnDemandAliasOracle>(config.budget);
  }

  registry.counter("link.defs_propagated").Add(stats.defs_propagated);
  registry.counter("link.uses_forwarded").Add(stats.uses_forwarded);
  registry.counter("link.rets_replaced").Add(stats.rets_replaced);
  // Expression-interner counters cover the factory traffic since the
  // last publish (Summarize's worker pool included).
  ExprInterner::Global().PublishMetrics();
  DTAINT_LOG(obs::LogLevel::kDebug, "interproc",
             "linked %zu functions (summarized in %.3fs), %zu defs "
             "propagated, %zu uses forwarded, %zu rets replaced, cache "
             "%zu/%zu hit/miss",
             stats.functions_processed, stats.summary_seconds,
             stats.defs_propagated, stats.uses_forwarded, stats.rets_replaced,
             stats.cache_hits, stats.cache_misses);
  return analysis;
}

ProgramAnalysis RunBottomUp(const Program& program, const CallGraph& graph,
                            const SymEngine& engine,
                            const InterprocConfig& config) {
  return Link(program, graph, Summarize(program, graph, engine, config),
              config);
}

}  // namespace dtaint
