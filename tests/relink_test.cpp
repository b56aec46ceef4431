// Linker::Relink against a full Link: after indirect-call resolution,
// relinking only the dirty functions must leave every linked summary,
// degraded flag and link counter exactly as a full Link of all base
// summaries over the new call graph — on every golden-corpus binary
// that resolves a call, in both alias modes, and on hand-built graphs
// where resolution reorders a recursive SCC or closes a new cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/structsim.h"
#include "src/obs/metrics.h"
#include "tests/testing/differential.h"
#include "tests/testing/reference_link.h"

namespace dtaint {
namespace {

using testing_util::Call;
using testing_util::Def;
using testing_util::DirectSite;
using testing_util::HandProgram;
using testing_util::IndirectSite;
using testing_util::LinkDigest;

uint64_t LinkedFunctions() {
  return obs::MetricsRegistry::Global().counter("link.functions").Value();
}

/// Links `base` with a Linker, runs `resolve` on the program, relinks,
/// and expects the result to equal a full Link over the new graph.
/// Returns how many functions the relink linked.
template <typename Resolve>
size_t ExpectRelinkMatchesFullLink(Program& program, BaseSummaries base,
                                   const InterprocConfig& config,
                                   Resolve resolve) {
  CallGraph graph = CallGraph::Build(program);
  BaseSummaries full_base = base;
  Linker linker(program, config);
  uint64_t before = LinkedFunctions();
  ProgramAnalysis analysis = linker.Link(graph, std::move(base));
  EXPECT_EQ(LinkedFunctions() - before, program.functions.size());
  resolve(analysis);
  before = LinkedFunctions();
  size_t relinked = linker.Relink(analysis);
  EXPECT_EQ(LinkedFunctions() - before, relinked);
  ProgramAnalysis full =
      Link(program, CallGraph::Build(program), std::move(full_base), config);
  EXPECT_EQ(LinkDigest(analysis), LinkDigest(full));
  EXPECT_EQ(analysis.alias_oracle != nullptr, full.alias_oracle != nullptr);
  return relinked;
}

TEST(RelinkOracle, GoldenCorporaMatchFullLink) {
  size_t resolved = 0;
  for (const testing_util::CorpusSpec* spec :
       {&testing_util::kStateCorpus, &testing_util::kInternCorpus}) {
    for (const Binary& binary : testing_util::BuildCorpus(*spec)) {
      for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
        SCOPED_TRACE(binary.soname + " " + std::string(AliasModeName(mode)));
        Program program = CfgBuilder(binary).BuildProgram().value();
        SymEngine engine(binary);
        InterprocConfig config;
        config.alias_mode = mode;
        BaseSummaries base =
            Summarize(program, CallGraph::Build(program), engine, config);
        size_t resolutions = 0;
        size_t relinked = ExpectRelinkMatchesFullLink(
            program, std::move(base), config,
            [&](const ProgramAnalysis& linked) {
              resolutions = ResolveIndirectCalls(program, linked.summaries,
                                                 linked.alias_oracle.get())
                                .size();
            });
        if (resolutions == 0) {
          EXPECT_EQ(relinked, 0u);
          continue;
        }
        ++resolved;
        // The resolving function and its callers, not the whole program.
        EXPECT_GT(relinked, 0u);
        EXPECT_LT(relinked, program.functions.size());
      }
    }
  }
  // The dispatch-pattern binaries: 6 of the 30, in both modes.
  EXPECT_EQ(resolved, 12u);
}

// a_disp's indirect call resolves to z_handler, which calls into the
// cycle b_loop <-> c_loop. Tarjan first met the cycle from b_loop and
// now meets it through z_handler from c_loop, so the cycle's inner
// order flips and each member sees the other linked where it did not:
// both are dirty though neither calls a_disp. m_top -> m_leaf is
// untouched.
TEST(RelinkOracle, ResolutionReordersRecursiveScc) {
  HandProgram hand;
  hand.Add("a_disp", {IndirectSite(0x100)}).calls = {
      Call(0x100, "", {SymExpr::Arg(0)}, 0)};
  FunctionSummary& b = hand.Add("b_loop", {DirectSite(0x200, "c_loop")});
  b.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x200))};
  b.return_values = {SymExpr::Arg(1)};
  b.calls = {Call(0x200, "c_loop", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0)};
  FunctionSummary& c = hand.Add("c_loop", {DirectSite(0x300, "b_loop")});
  c.def_pairs = {Def(SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4)),
                     SymExpr::Ret(0x300))};
  c.return_values = {SymExpr::Arg(0)};
  c.calls = {Call(0x300, "b_loop", {SymExpr::Arg(1), SymExpr::Arg(0)}, 0)};
  hand.Add("z_handler", {DirectSite(0x400, "c_loop")}).calls = {
      Call(0x400, "c_loop", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0)};
  hand.Add("m_leaf").def_pairs = {
      Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Arg(1))};
  hand.Add("m_top", {DirectSite(0x500, "m_leaf")}).calls = {
      Call(0x500, "m_leaf", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0)};

  std::vector<std::string> old_order =
      CallGraph::Build(hand.program).BottomUpOrder();
  ProgramAnalysis first = Link(hand.program, CallGraph::Build(hand.program),
                               hand.base);
  size_t relinked = ExpectRelinkMatchesFullLink(
      hand.program, hand.base, {}, [&](const ProgramAnalysis&) {
        hand.program.functions.at("a_disp").callsites[0].resolved_targets = {
            "z_handler"};
      });
  // All but m_top and m_leaf.
  EXPECT_EQ(relinked, 4u);
  // The order flip is what makes the cycle dirty, and it matters.
  std::vector<std::string> new_order =
      CallGraph::Build(hand.program).BottomUpOrder();
  auto pos = [](const std::vector<std::string>& order, const char* name) {
    return std::find(order.begin(), order.end(), name) - order.begin();
  };
  EXPECT_LT(pos(old_order, "c_loop"), pos(old_order, "b_loop"));
  EXPECT_LT(pos(new_order, "b_loop"), pos(new_order, "c_loop"));
  ProgramAnalysis full =
      Link(hand.program, CallGraph::Build(hand.program), hand.base);
  EXPECT_NE(testing_util::SummaryDigest({{"c_loop",
                                          first.summaries.at("c_loop")}}),
            testing_util::SummaryDigest({{"c_loop",
                                          full.summaries.at("c_loop")}}));
}

// f's indirect call resolves to g, which calls f: the new edge closes
// the cycle f <-> g through the resolving function. f, g and f's caller
// top are dirty; leaf, which f calls, is not.
TEST(RelinkOracle, ResolutionClosesNewCycle) {
  HandProgram hand;
  FunctionSummary& f =
      hand.Add("f", {IndirectSite(0x100), DirectSite(0x110, "leaf")});
  f.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x100))};
  f.return_values = {SymExpr::Ret(0x110)};
  f.calls = {Call(0x100, "", {SymExpr::Arg(1)}, 0),
             Call(0x110, "leaf", {SymExpr::Arg(0)}, 0)};
  FunctionSummary& g = hand.Add("g", {DirectSite(0x200, "f")});
  g.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x200))};
  g.return_values = {SymExpr::Arg(0)};
  g.calls = {Call(0x200, "f", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0)};
  hand.Add("leaf").return_values = {SymExpr::Arg(0)};
  hand.Add("top", {DirectSite(0x300, "f")}).calls = {
      Call(0x300, "f", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0)};
  for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
    HandProgram copy = hand;
    InterprocConfig config;
    config.alias_mode = mode;
    size_t relinked = ExpectRelinkMatchesFullLink(
        copy.program, copy.base, config, [&](const ProgramAnalysis&) {
          copy.program.functions.at("f").callsites[0].resolved_targets = {
              "g"};
        });
    EXPECT_EQ(relinked, 3u);
  }
}

TEST(RelinkOracle, NothingResolvedRelinksNothing) {
  HandProgram hand;
  hand.Add("f", {IndirectSite(0x100)}).calls = {Call(0x100, "", {}, 0)};
  hand.Add("g").return_values = {SymExpr::Arg(0)};
  EXPECT_EQ(ExpectRelinkMatchesFullLink(hand.program, hand.base, {},
                                        [](const ProgramAnalysis&) {}),
            0u);
}

}  // namespace
}  // namespace dtaint
