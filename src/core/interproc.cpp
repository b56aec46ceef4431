#include "src/core/interproc.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/cache/summary_cache.h"
#include "src/core/alias.h"
#include "src/core/alias_ondemand.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/stopwatch.h"
#include "src/obs/trace.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// `expr` over the children `lhs` and `rhs`, rebuilt through the
/// normalizing factories; `expr` itself when both are unchanged.
SymRef WithChildren(const SymRef& expr, SymRef lhs, SymRef rhs) {
  if (lhs.get() == expr->lhs().get() && rhs.get() == expr->rhs().get()) {
    return expr;
  }
  if (expr->kind() == SymKind::kDeref) {
    return SymExpr::Deref(std::move(lhs), expr->deref_size());
  }
  if (expr->kind() == SymKind::kBin) {
    return SymExpr::Bin(expr->binop(), std::move(lhs), std::move(rhs));
  }
  return expr;
}

}  // namespace

// One walk maps every formal at once, so an actual that is itself a
// formal (a wrapper passing its own arguments on, shifted or swapped)
// is never substituted a second time.
SymRef ReplaceFormalArgs(const SymRef& expr,
                         const std::vector<SymRef>& actual_args) {
  // O(1) bail-out for the common case: nothing argument-rooted inside.
  if (!expr->ContainsKind(SymKind::kArg)) return expr;
  if (expr->kind() == SymKind::kArg) {
    const int i = expr->arg_index();
    if (i < kMaxModeledArgs && i < static_cast<int>(actual_args.size()) &&
        actual_args[i]) {
      return actual_args[i];
    }
    return expr;
  }
  return WithChildren(
      expr, expr->lhs() ? ReplaceFormalArgs(expr->lhs(), actual_args) : nullptr,
      expr->rhs() ? ReplaceFormalArgs(expr->rhs(), actual_args) : nullptr);
}

// The callee's heap object hash is extended by the caller's callsite
// address, so two calls to the same allocating callee produce distinct
// objects (Listing 1's "hash value of the callsite chain").
SymRef RehashHeap(const SymRef& expr, uint32_t callsite) {
  // The kind bitmask proves heap-freeness without walking the tree.
  if (!expr->ContainsKind(SymKind::kHeap)) return expr;
  if (expr->kind() == SymKind::kHeap) {
    return SymExpr::Heap(HashCombine(expr->heap_id(), callsite));
  }
  return WithChildren(
      expr, expr->lhs() ? RehashHeap(expr->lhs(), callsite) : nullptr,
      expr->rhs() ? RehashHeap(expr->rhs(), callsite) : nullptr);
}

// Prefers a value that carries structure (argument passthrough, heap
// pointer, tainted expression) over opaque unknowns.
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

namespace {

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
  obs::PhaseScope phase("summary");
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
  obs::Counter& m_chunk_copies = registry.counter("engine.cow_copies");
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
    m_chunk_copies.Add(es.chunk_copies);
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
  registry.counter("summary.functions").Add(stats.functions_processed);
  registry.counter("summary.degraded").Add(stats.degraded_functions);
  registry.counter("alias.pairs_added").Add(stats.alias_pairs_added);
  stats.summary_seconds =
      phase.Num("functions", order.size())
          .Num("cache_hits", stats.cache_hits)
          .Num("cache_misses", stats.cache_misses)
          .Finish();
  return result;
}

LinkCounters& LinkCounters::operator+=(const LinkCounters& other) {
  defs_propagated += other.defs_propagated;
  uses_forwarded += other.uses_forwarded;
  rets_replaced += other.rets_replaced;
  return *this;
}

namespace {

/// What every caller reads from one linked callee. A callee's linked
/// summary is final before any caller reads it, so one view per callee
/// serves all of a Link pass's events.
struct CalleeView {
  SymRef ret;                 // RepresentativeReturn; null if none
  bool degraded = false;
  bool ret_degraded = false;  // degraded || ret_degraded
  std::vector<const DefPair*> escaping_defs;     // the first `cap`
  std::vector<const UseRecord*> forwarded_uses;  // arg-rooted, first `cap`
};

/// Adds the call site of every ret_{site} symbol in `expr` to `sites`.
void CollectRetSites(const SymRef& expr, std::unordered_set<uint32_t>& sites) {
  if (!expr || !expr->ContainsKind(SymKind::kRet)) return;
  if (expr->kind() == SymKind::kRet) {
    sites.insert(expr->ret_site());
    return;
  }
  CollectRetSites(expr->lhs(), sites);
  CollectRetSites(expr->rhs(), sites);
}

/// Algorithm 2's per-function step, against the linked summaries of
/// one Link pass.
class LinkKernel {
 public:
  LinkKernel(const std::map<std::string, FunctionSummary>& linked,
             const InterprocConfig& config)
      : linked_(linked), cap_(config.max_imported_per_callsite) {}

  /// Links `summary`, the base summary of `fn`, against the callees
  /// already in `linked` (an absent callee is an SCC member not linked
  /// yet).
  LinkCounters Link(const Function& fn, FunctionSummary& summary) {
    LinkCounters counters;
    // Superset of the ret sites occurring in the caller's pairs and
    // returns: an event at any other site has nothing to replace.
    ret_sites_.clear();
    for (const DefPair& dp : summary.def_pairs) {
      CollectRetSites(dp.d, ret_sites_);
      CollectRetSites(dp.u, ret_sites_);
    }
    for (const SymRef& rv : summary.return_values) {
      CollectRetSites(rv, ret_sites_);
    }
    std::vector<DefPair> imported_defs;
    std::vector<UseRecord> imported_uses;
    for (const CallEvent& call : summary.calls) {
      // Indirect calls may have several similarity-resolved targets.
      std::span<const std::string> targets;
      if (call.is_indirect) {
        if (const CallSite* cs = fn.CallSiteAt(call.callsite)) {
          targets = cs->resolved_targets;
        }
      } else if (!call.is_import && !call.callee.empty()) {
        targets = std::span<const std::string>(&call.callee, 1);
      }
      for (const std::string& target : targets) {
        const CalleeView* callee = ViewOf(target);
        if (!callee) continue;
        if (callee->ret && ret_sites_.erase(call.callsite)) {
          ReplaceRet(call, *callee, summary, counters);
        }

        // -- UpdateDefPairs: import callee's escaping definitions ------
        for (const DefPair* dp : callee->escaping_defs) {
          DefPair linked;
          linked.d = RehashHeap(ReplaceFormalArgs(dp->d, call.args),
                                call.callsite);
          linked.u = RehashHeap(ReplaceFormalArgs(dp->u, call.args),
                                call.callsite);
          linked.site = dp->site;         // original defining site
          linked.path_id = call.path_id;  // caller's path context
          linked.degraded = dp->degraded || callee->degraded;
          imported_defs.push_back(std::move(linked));
        }
        counters.defs_propagated += callee->escaping_defs.size();

        // -- ForwardUndefinedUse: lift unresolved uses into the caller -
        for (const UseRecord* use : callee->forwarded_uses) {
          UseRecord lifted;
          lifted.u = ReplaceFormalArgs(use->u, call.args);
          lifted.site = use->site;
          lifted.path_id = call.path_id;
          imported_uses.push_back(std::move(lifted));
        }
        counters.uses_forwarded += callee->forwarded_uses.size();
      }
    }
    summary.def_pairs.insert(summary.def_pairs.end(),
                             std::make_move_iterator(imported_defs.begin()),
                             std::make_move_iterator(imported_defs.end()));
    summary.undefined_uses.insert(
        summary.undefined_uses.end(),
        std::make_move_iterator(imported_uses.begin()),
        std::make_move_iterator(imported_uses.end()));
    return counters;
  }

 private:
  const CalleeView* ViewOf(const std::string& name) {
    auto it = linked_.find(name);
    if (it == linked_.end()) return nullptr;
    auto [view_it, inserted] = views_.try_emplace(&it->second);
    CalleeView& view = view_it->second;
    if (!inserted) return &view;
    const FunctionSummary& callee = it->second;
    view.ret = RepresentativeReturn(callee);
    view.degraded = callee.degraded;
    view.ret_degraded = callee.degraded || callee.ret_degraded;
    view.escaping_defs = callee.EscapingDefs();
    if (view.escaping_defs.size() > cap_) view.escaping_defs.resize(cap_);
    for (const UseRecord& use : callee.undefined_uses) {
      if (view.forwarded_uses.size() >= cap_) break;
      SymRef root = RootPointerOf(use.u);
      if (root && root->kind() == SymKind::kArg) {
        view.forwarded_uses.push_back(&use);
      }
    }
    return &view;
  }

  /// ReplaceRetVariable: resolves ret_{site} in the caller. A return
  /// value minted by a degraded callee (directly, or transitively via
  /// its own callees) is an over-approximation: the substituted pairs
  /// carry the degraded flag and the caller's returns are marked
  /// contaminated, so the path finder can suppress flows built on
  /// guessed data.
  void ReplaceRet(const CallEvent& call, const CalleeView& callee,
                  FunctionSummary& summary, LinkCounters& counters) {
    SymRef ret_sym = SymExpr::Ret(call.callsite);
    SymRef value = RehashHeap(ReplaceFormalArgs(callee.ret, call.args),
                              call.callsite);
    size_t replaced = 0;
    for (DefPair& dp : summary.def_pairs) {
      bool touched = false;
      if (dp.d && dp.d->Contains(ret_sym)) {
        dp.d = SymExpr::Replace(dp.d, ret_sym, value);
        touched = true;
      }
      if (dp.u && dp.u->Contains(ret_sym)) {
        dp.u = SymExpr::Replace(dp.u, ret_sym, value);
        touched = true;
      }
      if (touched) {
        ++replaced;
        if (callee.ret_degraded) dp.degraded = true;
      }
    }
    for (SymRef& rv : summary.return_values) {
      if (rv && rv->Contains(ret_sym)) {
        rv = SymExpr::Replace(rv, ret_sym, value);
        ++replaced;
        if (callee.ret_degraded) summary.ret_degraded = true;
      }
    }
    counters.rets_replaced += replaced;
    // No ret_{site} is left unless `value` brought it back, along with
    // any other ret sites it carries.
    if (replaced) CollectRetSites(value, ret_sites_);
  }

  const std::map<std::string, FunctionSummary>& linked_;
  const size_t cap_;
  std::unordered_map<const FunctionSummary*, CalleeView> views_;
  std::unordered_set<uint32_t> ret_sites_;
};

/// One link pass, inside the caller's `phase`: links, in `order`,
/// every function `base` holds a summary for against the summaries
/// already in `analysis`, moving each into `analysis.summaries`. Fills
/// the entries `per_function` (may be null) already has. Returns the
/// work done.
LinkCounters LinkPass(obs::PhaseScope& phase, const Program& program,
                      const std::vector<std::string>& order,
                      std::map<std::string, FunctionSummary>& base,
                      ProgramAnalysis& analysis, const InterprocConfig& config,
                      std::map<std::string, LinkCounters>* per_function) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Sequential in bottom-up order: each caller needs its callees'
  // linked summaries. Each base map node moves into the result.
  LinkKernel kernel(analysis.summaries, config);
  LinkCounters work;
  size_t functions = 0;
  for (const std::string& name : order) {
    auto node = base.extract(name);
    const Function* fn = program.FindFunction(name);
    if (!fn || node.empty()) continue;
    LinkCounters counters = kernel.Link(*fn, node.mapped());
    work += counters;
    ++functions;
    if (per_function) {
      auto it = per_function->find(name);
      if (it != per_function->end()) it->second = counters;
    }
    analysis.summaries.insert(std::move(node));
  }
  phase.Num("functions", functions)
      .Num("defs_propagated", work.defs_propagated)
      .Num("uses_forwarded", work.uses_forwarded);

  if (config.apply_alias && config.alias_mode == AliasMode::kOnDemandSSE) {
    analysis.alias_oracle =
        std::make_shared<OnDemandAliasOracle>(config.budget);
  }

  registry.counter("link.functions").Add(functions);
  registry.counter("link.defs_propagated").Add(work.defs_propagated);
  registry.counter("link.uses_forwarded").Add(work.uses_forwarded);
  registry.counter("link.rets_replaced").Add(work.rets_replaced);
  // Expression-interner counters cover the factory traffic since the
  // last publish (Summarize's worker pool included).
  ExprInterner::Global().PublishMetrics();
  DTAINT_LOG(obs::LogLevel::kDebug, "interproc",
             "linked %zu functions: %zu defs propagated, %zu uses "
             "forwarded, %zu rets replaced",
             functions, work.defs_propagated, work.uses_forwarded,
             work.rets_replaced);
  return work;
}

/// Adds `add` to the report's link counters and takes `remove` off.
void ApplyLinkCounters(InterprocStats& stats, const LinkCounters& add,
                       const LinkCounters& remove = {}) {
  stats.defs_propagated += add.defs_propagated - remove.defs_propagated;
  stats.uses_forwarded += add.uses_forwarded - remove.uses_forwarded;
  stats.rets_replaced += add.rets_replaced - remove.rets_replaced;
}

std::set<std::string> CallersClosure(const CallGraph& graph,
                                     std::vector<std::string> work) {
  std::set<std::string> closure;
  while (!work.empty()) {
    std::string name = std::move(work.back());
    work.pop_back();
    if (!closure.insert(name).second) continue;
    for (const std::string& caller : graph.Callers(name)) {
      work.push_back(caller);
    }
  }
  return closure;
}

/// resolved_targets of every indirect call site, by function.
std::map<std::string, std::vector<std::vector<std::string>>> IndirectTargets(
    const Program& program) {
  std::map<std::string, std::vector<std::vector<std::string>>> targets;
  for (const auto& [name, fn] : program.functions) {
    for (const CallSite& cs : fn.callsites) {
      if (cs.is_indirect) targets[name].push_back(cs.resolved_targets);
    }
  }
  return targets;
}

/// Functions whose linked summary a resolution can change: the
/// callers-closure, in `graph`, of every function with an indirect call
/// site or in a recursive SCC.
std::set<std::string> RelinkCandidates(const Program& program,
                                       const CallGraph& graph) {
  std::map<int, size_t> scc_size;
  for (const auto& [name, id] : graph.SccIds()) ++scc_size[id];
  std::vector<std::string> work;
  for (const auto& [name, id] : graph.SccIds()) {
    if (scc_size[id] > 1) work.push_back(name);
  }
  for (const auto& [name, fn] : program.functions) {
    for (const CallSite& cs : fn.callsites) {
      if (cs.is_indirect) {
        work.push_back(name);
        break;
      }
    }
  }
  return CallersClosure(graph, std::move(work));
}

}  // namespace

ProgramAnalysis Link(const Program& program, const CallGraph& graph,
                     BaseSummaries base, const InterprocConfig& config) {
  obs::PhaseScope phase("link");
  ProgramAnalysis analysis;
  analysis.stats = std::move(base.stats);
  ApplyLinkCounters(analysis.stats,
                    LinkPass(phase, program, graph.BottomUpOrder(),
                             base.summaries, analysis, config, nullptr));
  return analysis;
}

Linker::Linker(const Program& program, const InterprocConfig& config)
    : program_(program), config_(config) {}

ProgramAnalysis Linker::Link(const CallGraph& graph, BaseSummaries base) {
  obs::PhaseScope phase("link");
  order_ = graph.BottomUpOrder();
  for (const std::string& name : RelinkCandidates(program_, graph)) {
    auto it = base.summaries.find(name);
    if (it == base.summaries.end()) continue;
    kept_.emplace(name, it->second);
    kept_counters_[name];
  }
  targets_ = IndirectTargets(program_);
  ProgramAnalysis analysis;
  analysis.stats = std::move(base.stats);
  ApplyLinkCounters(analysis.stats,
                    LinkPass(phase, program_, order_, base.summaries,
                             analysis, config_, &kept_counters_));
  return analysis;
}

size_t Linker::Relink(ProgramAnalysis& analysis) {
  // The kept summaries are released whatever this call finds.
  std::map<std::string, FunctionSummary> kept = std::exchange(kept_, {});
  std::map<std::string, LinkCounters> kept_counters =
      std::exchange(kept_counters_, {});
  auto targets = IndirectTargets(program_);
  std::vector<std::string> owners;
  for (const auto& [name, fn_targets] : targets) {
    auto it = targets_.find(name);
    if (it == targets_.end() || it->second != fn_targets) {
      owners.push_back(name);
    }
  }
  targets_ = std::move(targets);
  if (owners.empty()) return 0;
  obs::PhaseScope phase("relink");
  CallGraph graph = CallGraph::Build(program_);
  std::vector<std::string> order = graph.BottomUpOrder();
  // Tarjan's inner order decides which same-SCC callees a member sees
  // linked: an SCC whose members changed relative order is dirty too.
  std::map<std::string, size_t> old_pos;
  for (size_t i = 0; i < order_.size(); ++i) old_pos[order_[i]] = i;
  const std::map<std::string, int>& scc_ids = graph.SccIds();
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const int id = scc_ids.at(order[begin]);
    bool reordered = false;
    for (end = begin + 1; end < order.size() && scc_ids.at(order[end]) == id;
         ++end) {
      reordered = reordered || old_pos[order[end]] < old_pos[order[end - 1]];
    }
    if (reordered) {
      owners.insert(owners.end(), order.begin() + begin, order.begin() + end);
    }
  }
  order_ = std::move(order);

  // Each dirty function leaves the linked map and is linked again from
  // its kept base summary, so it sees exactly the callees a full Link
  // would have linked before it.
  std::map<std::string, FunctionSummary> base;
  std::map<std::string, LinkCounters> relinked;
  LinkCounters stale;
  for (const std::string& name : CallersClosure(graph, std::move(owners))) {
    auto node = kept.extract(name);
    // Link kept every function a resolution can make dirty.
    assert(!node.empty());
    if (node.empty()) continue;
    base.insert(std::move(node));
    stale += kept_counters[name];
    relinked[name];
    analysis.summaries.erase(name);
  }
  kept.clear();
  ApplyLinkCounters(analysis.stats,
                    LinkPass(phase, program_, order_, base, analysis,
                             config_, &relinked),
                    stale);
  return relinked.size();
}

ProgramAnalysis RunBottomUp(const Program& program, const CallGraph& graph,
                            const SymEngine& engine,
                            const InterprocConfig& config) {
  return Link(program, graph, Summarize(program, graph, engine, config),
              config);
}

}  // namespace dtaint
