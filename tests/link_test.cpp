// Link against the reference linker (tests/testing/reference_link.h):
// the per-callee views and the ret-site skip must leave every linked
// summary, every degraded flag and the three link counters exactly as
// the one-loop-per-event reference makes them — on the differential
// corpora and the six paper images in both alias modes, before and
// after indirect-call resolution, and on hand-built call-event shapes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/binary/loader.h"
#include "src/core/structsim.h"
#include "src/synth/paper_images.h"
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
using testing_util::ReferenceLink;

/// Expects Link and ReferenceLink of the same base summaries over
/// `graph` to agree; returns Link's result.
ProgramAnalysis ExpectLinksLikeReference(const Program& program,
                                         const CallGraph& graph,
                                         const BaseSummaries& base,
                                         const InterprocConfig& config = {}) {
  ProgramAnalysis linked = Link(program, graph, base, config);
  EXPECT_EQ(LinkDigest(linked),
            LinkDigest(ReferenceLink(program, graph, base, config)));
  return linked;
}

/// Compares Link with the reference on `binary` in both alias modes,
/// over the direct call graph and again after indirect-call resolution.
/// Returns how many (binary, mode) pairs resolved a call.
size_t ExpectBinaryLinksLikeReference(const Binary& binary) {
  size_t resolved = 0;
  for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
    SCOPED_TRACE(binary.soname + " " + std::string(AliasModeName(mode)));
    Program program = CfgBuilder(binary).BuildProgram().value();
    SymEngine engine(binary);
    InterprocConfig config;
    config.alias_mode = mode;
    CallGraph graph = CallGraph::Build(program);
    BaseSummaries base = Summarize(program, graph, engine, config);
    ProgramAnalysis first = ExpectLinksLikeReference(program, graph, base,
                                                     config);
    if (ResolveIndirectCalls(program, first.summaries,
                             first.alias_oracle.get())
            .empty()) {
      continue;
    }
    ++resolved;
    ExpectLinksLikeReference(program, CallGraph::Build(program), base, config);
  }
  return resolved;
}

TEST(LinkOracle, DifferentialCorporaMatchReference) {
  size_t resolved = 0;
  for (const testing_util::CorpusSpec* spec :
       {&testing_util::kStateCorpus, &testing_util::kInternCorpus,
        &testing_util::kAliasCorpus, &testing_util::kCacheCorpus}) {
    for (const Binary& binary : testing_util::BuildCorpus(*spec)) {
      resolved += ExpectBinaryLinksLikeReference(binary);
    }
  }
  // The dispatch-pattern binaries resolve in both modes.
  EXPECT_GT(resolved, 0u);
}

TEST(LinkOracle, PaperImagesMatchReference) {
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    auto fw = BuildPaperImage(spec);
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    const FirmwareFile* file = fw->image.FindFile(spec.firmware.binary_path);
    ASSERT_NE(file, nullptr);
    auto binary = BinaryLoader::Load(file->bytes);
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();
    ExpectBinaryLinksLikeReference(*binary);
  }
}

// Several events at one site (one per explored path, plus a second
// indirect target): the first substitution of ret_{site} wins, and each
// event still imports the callee's escaping defs and arg-rooted uses.
TEST(LinkOracle, RepeatedEventsAtOneSite) {
  HandProgram hand;
  FunctionSummary& get = hand.Add("get");
  get.return_values = {SymExpr::Arg(0)};
  get.def_pairs = {Def(SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4)),
                       SymExpr::Arg(1), 0x10)};
  get.undefined_uses = {{SymExpr::Deref(SymExpr::Arg(1)), 0x14, 0}};
  FunctionSummary& heap = hand.Add("heap");
  heap.return_values = {SymExpr::Heap(7)};
  FunctionSummary& main = hand.Add(
      "main", {DirectSite(0x100, "get"), IndirectSite(0x110, {"heap", "get"})});
  main.def_pairs = {
      Def(SymExpr::Deref(SymExpr::Sp0()), SymExpr::Ret(0x100)),
      Def(SymExpr::Deref(SymExpr::Arg(0)),
          SymExpr::Bin(BinOp::kAdd, SymExpr::Ret(0x100), SymExpr::Ret(0x110))),
  };
  main.return_values = {SymExpr::Ret(0x110), SymExpr::Ret(0x100)};
  main.calls = {
      Call(0x100, "get", {SymExpr::Const(1), SymExpr::Const(2)}, 0),
      Call(0x110, "", {SymExpr::Const(5)}, 0),
      Call(0x100, "get", {SymExpr::Const(3), SymExpr::Const(4)}, 1),
      Call(0x110, "", {SymExpr::Const(6)}, 1),
      Call(0x100, "get", {SymExpr::Const(1), SymExpr::Const(2)}, 2),
  };
  CallGraph graph = CallGraph::Build(hand.program);
  ProgramAnalysis linked =
      ExpectLinksLikeReference(hand.program, graph, hand.base);
  EXPECT_EQ(linked.summaries.at("main").def_pairs[0].u->ToString(), "0x1");
  EXPECT_EQ(linked.stats.defs_propagated, 5u);  // 3 direct + 2 via "get"
  EXPECT_EQ(linked.stats.uses_forwarded, 5u);
}

// A call in a loop passes the previous iteration's return value back
// in: substituting ret_{site} reintroduces ret_{site}, so the next
// event at that site must scan again. A value substituted at another
// site can likewise bring a ret symbol back after its own scan.
TEST(LinkOracle, LoopArgumentsCarryTheirOwnRetSymbol) {
  HandProgram hand;
  hand.Add("id").return_values = {SymExpr::Arg(0)};
  FunctionSummary& loop =
      hand.Add("loop", {DirectSite(0x200, "id"), DirectSite(0x300, "id"),
                        DirectSite(0x310, "id")});
  loop.def_pairs = {
      Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x200)),
      Def(SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4)), SymExpr::Ret(0x310)),
  };
  loop.return_values = {SymExpr::Ret(0x200)};
  loop.calls = {
      Call(0x200, "id", {SymAdd(SymExpr::Ret(0x200), 4)}, 0),
      Call(0x300, "id", {SymExpr::Const(5)}, 0),
      Call(0x310, "id", {SymExpr::Ret(0x300)}, 0),
      Call(0x200, "id", {SymExpr::Const(7)}, 1),
      Call(0x300, "id", {SymExpr::Const(6)}, 1),
  };
  CallGraph graph = CallGraph::Build(hand.program);
  ProgramAnalysis linked =
      ExpectLinksLikeReference(hand.program, graph, hand.base);
  const FunctionSummary& out = linked.summaries.at("loop");
  EXPECT_EQ(out.def_pairs[0].u->ToString(), "0xb");  // (7) + 4
  EXPECT_EQ(out.def_pairs[1].u->ToString(), "0x6");  // via ret_0x300
}

// A callee with more escaping defs and arg-rooted uses than the cap
// (uses rooted elsewhere interleaved: they are skipped, not counted).
TEST(LinkOracle, CalleePastImportCap) {
  HandProgram hand;
  FunctionSummary& wide = hand.Add("wide");
  for (int i = 0; i < 300; ++i) {
    wide.def_pairs.push_back(
        Def(SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4 * i)), SymExpr::Arg(1),
            static_cast<uint32_t>(0x400 + i)));
    wide.undefined_uses.push_back(
        {SymExpr::Deref(SymAdd(SymExpr::Sp0(), 4 * i)), 0x800u, 0});
    wide.undefined_uses.push_back(
        {SymExpr::Deref(SymAdd(SymExpr::Arg(1), 4 * i)), 0x900u, 0});
  }
  FunctionSummary& caller = hand.Add("caller", {DirectSite(0x100, "wide")});
  caller.calls = {Call(0x100, "wide", {SymExpr::Arg(2), SymExpr::Arg(3)}, 0),
                  Call(0x100, "wide", {SymExpr::Arg(3), SymExpr::Arg(2)}, 1)};
  CallGraph graph = CallGraph::Build(hand.program);
  for (size_t cap : {size_t{256}, size_t{3}, size_t{0}}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    InterprocConfig config;
    config.max_imported_per_callsite = cap;
    ProgramAnalysis linked =
        ExpectLinksLikeReference(hand.program, graph, hand.base, config);
    EXPECT_EQ(linked.stats.defs_propagated, 2 * cap);
    EXPECT_EQ(linked.stats.uses_forwarded, 2 * cap);
  }
}

// Degraded callees taint what they export; a ret_degraded callee
// taints the pairs its return value lands in and the caller's returns,
// transitively.
TEST(LinkOracle, DegradedAndRetDegradedCallees) {
  HandProgram hand;
  FunctionSummary& deg = hand.Add("deg");
  deg.degraded = true;
  deg.return_values = {SymExpr::Arg(0)};
  deg.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Arg(1))};
  FunctionSummary& rdeg = hand.Add("rdeg", {DirectSite(0x20, "deg")});
  rdeg.return_values = {SymExpr::Ret(0x20)};
  rdeg.calls = {Call(0x20, "deg", {SymExpr::Arg(1)}, 0)};
  FunctionSummary& top =
      hand.Add("top", {DirectSite(0x30, "rdeg"), DirectSite(0x40, "deg")});
  top.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x30)),
                   Def(SymExpr::Deref(SymExpr::Sp0()), SymExpr::Arg(2))};
  top.return_values = {SymExpr::Ret(0x30)};
  top.calls = {Call(0x30, "rdeg", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0),
               Call(0x40, "deg", {SymExpr::Arg(2), SymExpr::Arg(3)}, 0)};
  CallGraph graph = CallGraph::Build(hand.program);
  ProgramAnalysis linked =
      ExpectLinksLikeReference(hand.program, graph, hand.base);
  EXPECT_TRUE(linked.summaries.at("rdeg").ret_degraded);
  EXPECT_TRUE(linked.summaries.at("top").ret_degraded);
  EXPECT_TRUE(linked.summaries.at("top").def_pairs[0].degraded);
  EXPECT_FALSE(linked.summaries.at("top").def_pairs[1].degraded);
}

// Self-recursion and a 2-cycle: a member never sees itself, or a
// same-SCC callee not linked yet, as a linked callee.
TEST(LinkOracle, SelfRecursionAndTwoCycle) {
  HandProgram hand;
  FunctionSummary& self = hand.Add("self", {DirectSite(0x50, "self")});
  self.return_values = {SymExpr::Ret(0x50), SymExpr::Arg(0)};
  self.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x50))};
  self.calls = {Call(0x50, "self", {SymAdd(SymExpr::Arg(0), 4)}, 0)};
  FunctionSummary& ping = hand.Add("ping", {DirectSite(0x60, "pong")});
  ping.return_values = {SymExpr::Arg(0)};
  ping.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x60))};
  ping.calls = {Call(0x60, "pong", {SymExpr::Arg(1)}, 0)};
  FunctionSummary& pong = hand.Add("pong", {DirectSite(0x70, "ping")});
  pong.return_values = {SymExpr::Arg(0)};
  pong.def_pairs = {Def(SymExpr::Deref(SymExpr::Arg(0)), SymExpr::Ret(0x70))};
  pong.calls = {Call(0x70, "ping", {SymExpr::Arg(1), SymExpr::Arg(0)}, 0)};
  FunctionSummary& top = hand.Add(
      "top", {DirectSite(0x80, "ping"), DirectSite(0x90, "self")});
  top.def_pairs = {Def(SymExpr::Deref(SymExpr::Sp0()), SymExpr::Ret(0x80))};
  top.calls = {Call(0x80, "ping", {SymExpr::Arg(0), SymExpr::Arg(1)}, 0),
               Call(0x90, "self", {SymExpr::Arg(2)}, 0)};
  CallGraph graph = CallGraph::Build(hand.program);
  ProgramAnalysis linked =
      ExpectLinksLikeReference(hand.program, graph, hand.base);
  EXPECT_EQ(linked.summaries.at("self").def_pairs[0].u->ToString(),
            "ret_{0x50}");
}

}  // namespace
}  // namespace dtaint
