// The reference linker: Algorithm 2 as one loop over every call event,
// with no per-callee or per-site reuse. Link must produce the same
// linked summaries and the same three link counters; link_test holds
// it to that on the differential corpora, the paper images and
// hand-built edge cases.
//
// LinkDigest extends SummaryDigest with what the summary codec does not
// encode: the degraded flags linking propagates. HandProgram builds a
// Program and its base summaries directly, for the call-event shapes
// the synthesizer does not produce.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/interproc.h"
#include "tests/testing/differential.h"

namespace dtaint {
namespace testing_util {

/// Links `base` over `graph` one call event at a time: the reference
/// Link is held to (registry, events and the alias oracle left out).
inline ProgramAnalysis ReferenceLink(const Program& program,
                                     const CallGraph& graph,
                                     BaseSummaries base,
                                     const InterprocConfig& config = {}) {
  ProgramAnalysis analysis;
  analysis.stats = std::move(base.stats);
  InterprocStats& stats = analysis.stats;
  for (const std::string& name : graph.BottomUpOrder()) {
    const Function* fn = program.FindFunction(name);
    auto node = base.summaries.extract(name);
    if (!fn || node.empty()) continue;
    FunctionSummary& summary = node.mapped();

    std::vector<DefPair> imported_defs;
    std::vector<UseRecord> imported_uses;
    for (const CallEvent& call : summary.calls) {
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

        // ReplaceRetVariable, scanning every pair for every event.
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

        // UpdateDefPairs.
        size_t imported = 0;
        for (const DefPair* dp : callee.EscapingDefs()) {
          if (imported >= config.max_imported_per_callsite) break;
          DefPair linked;
          linked.d = ReplaceFormalArgs(dp->d, call.args);
          linked.u = ReplaceFormalArgs(dp->u, call.args);
          linked.d = RehashHeap(linked.d, call.callsite);
          linked.u = RehashHeap(linked.u, call.callsite);
          linked.site = dp->site;
          linked.path_id = call.path_id;
          linked.degraded = dp->degraded || callee.degraded;
          imported_defs.push_back(std::move(linked));
          ++imported;
          ++stats.defs_propagated;
        }

        // ForwardUndefinedUse.
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
  return analysis;
}

/// SummaryDigest plus, per function, the degraded flags (summary,
/// returns, and one character per def pair) and the three link
/// counters of `analysis`.
inline std::string LinkDigest(const ProgramAnalysis& analysis) {
  std::string out = SummaryDigest(analysis.summaries);
  for (const auto& [name, summary] : analysis.summaries) {
    out += name + " degraded=" + std::to_string(summary.degraded) +
           " ret_degraded=" + std::to_string(summary.ret_degraded) + " ";
    for (const DefPair& dp : summary.def_pairs) out += dp.degraded ? 'D' : '.';
    out += "\n";
  }
  const InterprocStats& stats = analysis.stats;
  out += "defs_propagated=" + std::to_string(stats.defs_propagated) +
         " uses_forwarded=" + std::to_string(stats.uses_forwarded) +
         " rets_replaced=" + std::to_string(stats.rets_replaced) + "\n";
  return out;
}

/// A Program of call sites only, with hand-written base summaries:
/// Link reads nothing else of a function.
struct HandProgram {
  Program program;
  BaseSummaries base;

  /// Adds function `name` with `callsites`; returns its empty base
  /// summary for the caller to fill.
  FunctionSummary& Add(const std::string& name,
                       std::vector<CallSite> callsites = {}) {
    Function& fn = program.functions[name];
    fn.name = name;
    fn.addr = 0x1000 * static_cast<uint32_t>(program.functions.size());
    fn.callsites = std::move(callsites);
    program.fn_by_addr[fn.addr] = name;
    FunctionSummary& summary = base.summaries[name];
    summary.name = name;
    summary.addr = fn.addr;
    return summary;
  }
};

inline CallSite DirectSite(uint32_t addr, const std::string& target) {
  CallSite cs;
  cs.call_addr = addr;
  cs.target_name = target;
  return cs;
}

inline CallSite IndirectSite(uint32_t addr,
                             std::vector<std::string> targets = {}) {
  CallSite cs;
  cs.call_addr = addr;
  cs.is_indirect = true;
  cs.resolved_targets = std::move(targets);
  return cs;
}

/// A call event at `site`; an empty `callee` makes it indirect.
inline CallEvent Call(uint32_t site, const std::string& callee,
                      std::vector<SymRef> args, int path_id = 0) {
  CallEvent call;
  call.callsite = site;
  call.callee = callee;
  call.is_indirect = callee.empty();
  call.args = std::move(args);
  call.path_id = path_id;
  return call;
}

inline DefPair Def(SymRef d, SymRef u, uint32_t site = 0) {
  DefPair dp;
  dp.d = std::move(d);
  dp.u = std::move(u);
  dp.site = site;
  return dp;
}

}  // namespace testing_util
}  // namespace dtaint
