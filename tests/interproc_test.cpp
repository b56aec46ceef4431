#include <gtest/gtest.h>

#include "src/binary/writer.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/interproc.h"
#include "src/isa/asm_builder.h"

namespace dtaint {
namespace {

ProgramAnalysis RunAnalysis(const Binary& bin, InterprocConfig config = {}) {
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  SymEngine engine(bin);
  CallGraph graph = CallGraph::Build(program);
  return RunBottomUp(program, graph, engine, config);
}

/// The paper's Fig. 5/6/7 worked example: woo taints the buffer whose
/// pointer it parks in ctx+0x4C; foo copies through the alias into a
/// stack buffer via memcpy.
Binary FooWooBinary() {
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("recv");
  writer.AddImport("memcpy");
  {
    FnBuilder b("woo");        // woo(ctx=r0, req=r1)
    b.LdrW(5, 1, 0x24);        // r5 = deref(arg1+0x24)
    b.StrW(5, 0, 0x4C);        // *(ctx+0x4C) = r5
    b.MovI(2, 0x200);
    b.MovR(1, 5);
    b.MovI(0, 3);
    b.Call("recv");            // taints *r5
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("foo");        // foo(ctx=r0, req=r1)
    b.SubI(13, 13, 0x118);
    b.MovR(7, 0);              // save ctx
    b.Call("woo");
    b.LdrW(1, 7, 0x4C);        // src = *(ctx+0x4C) via the alias name
    b.AddI(0, 13, 0x18);       // dst = SP-0x100 (frame SP0-0x118+0x18)
    b.MovI(2, 0x80);
    b.Call("memcpy");
    b.AddI(13, 13, 0x118);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  return writer.Build().value();
}

TEST(BottomUp, FooWooWorkedExample) {
  Binary bin = FooWooBinary();
  ProgramAnalysis analysis = RunAnalysis(bin);
  ASSERT_TRUE(analysis.summaries.count("foo"));
  const FunctionSummary& foo = analysis.summaries.at("foo");

  // woo's tainted definition arrived in foo, expressed through foo's
  // formals: deref(deref(arg1+0x24)) = taint (and, via Algorithm 1,
  // the alias twin deref(deref(arg0+0x4c)) = taint).
  bool direct = false, via_alias = false;
  for (const DefPair& dp : foo.def_pairs) {
    if (!dp.u || !dp.u->IsTainted()) continue;
    std::string d = dp.d->ToString();
    if (d == "deref(deref(arg1+0x24))") direct = true;
    if (d == "deref(deref(arg0+0x4c))") via_alias = true;
  }
  EXPECT_TRUE(direct);
  EXPECT_TRUE(via_alias);

  // The memcpy call sees the paper's Fig. 6 source argument.
  const CallEvent* memcpy_call = nullptr;
  for (const CallEvent& call : foo.calls) {
    if (call.callee == "memcpy") memcpy_call = &call;
  }
  ASSERT_NE(memcpy_call, nullptr);
  EXPECT_EQ(memcpy_call->args[1]->ToString(), "deref(arg0+0x4c)");
  EXPECT_EQ(memcpy_call->args[0]->ToString(), "SP-0x100");
}

TEST(BottomUp, AliasOffCanBeDisabled) {
  Binary bin = FooWooBinary();
  InterprocConfig config;
  config.apply_alias = false;
  ProgramAnalysis analysis = RunAnalysis(bin, config);
  const FunctionSummary& foo = analysis.summaries.at("foo");
  for (const DefPair& dp : foo.def_pairs) {
    if (dp.u && dp.u->IsTainted()) {
      EXPECT_NE(dp.d->ToString(), "deref(deref(arg0+0x4c))");
    }
  }
  EXPECT_EQ(analysis.stats.alias_pairs_added, 0u);
}

TEST(BottomUp, EachFunctionProcessedOnce) {
  Binary bin = FooWooBinary();
  ProgramAnalysis analysis = RunAnalysis(bin);
  EXPECT_EQ(analysis.stats.functions_processed, 2u);
  EXPECT_GT(analysis.stats.defs_propagated, 0u);
}

TEST(BottomUp, RetValueReplaced) {
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("get_arg");   // returns its first argument
    b.Ret();                  // r0 already holds arg0
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.MovR(0, 4);             // pass init_r4
    b.Call("get_arg");
    b.StrW(0, 13, 0);         // park the "returned" value
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const FunctionSummary& caller = analysis.summaries.at("caller");
  bool replaced = false;
  for (const DefPair& dp : caller.def_pairs) {
    if (dp.d->ToString() == "deref(SP)" &&
        dp.u->ToString() == "init_r4") {
      replaced = true;
    }
  }
  EXPECT_TRUE(replaced);
  EXPECT_GT(analysis.stats.rets_replaced, 0u);
}

TEST(BottomUp, ListingOneHeapIdentities) {
  // Paper Listing 1: x = B(); y = B(); with B returning malloc —
  // the two callsites must yield distinct heap objects.
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("malloc");
  {
    FnBuilder b("B");
    b.MovI(0, 4);
    b.Call("malloc");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("A");
    b.SubI(13, 13, 0x10);
    b.Call("B");
    b.MovR(4, 0);
    b.Call("B");
    b.MovR(5, 0);
    b.StrW(4, 13, 0);
    b.StrW(5, 13, 4);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const FunctionSummary& a = analysis.summaries.at("A");
  SymRef x, y;
  for (const DefPair& dp : a.def_pairs) {
    if (dp.d->ToString() == "deref(SP-0x10)") x = dp.u;
    if (dp.d->ToString() == "deref(SP-0xc)") y = dp.u;
  }
  ASSERT_TRUE(x);
  ASSERT_TRUE(y);
  EXPECT_EQ(x->kind(), SymKind::kHeap);
  EXPECT_EQ(y->kind(), SymKind::kHeap);
  EXPECT_NE(x->heap_id(), y->heap_id());
}

TEST(BottomUp, UndefinedUsesForwardToCallers) {
  // Callee reads deref(arg0+8) without defining it; the caller passes
  // a stack struct; the lifted use must appear in the caller's list.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("reader");
    b.LdrW(5, 0, 8);
    b.MovR(0, 5);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.SubI(13, 13, 0x20);
    b.MovR(0, 13);
    b.Call("reader");
    b.AddI(13, 13, 0x20);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const FunctionSummary& caller = analysis.summaries.at("caller");
  bool forwarded = false;
  for (const UseRecord& use : caller.undefined_uses) {
    if (use.u->ToString() == "deref(SP-0x18)") forwarded = true;
  }
  EXPECT_TRUE(forwarded);
  EXPECT_GT(analysis.stats.uses_forwarded, 0u);
}

TEST(BottomUp, MutualRecursionTerminates) {
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("ping");
    b.CmpI(0, 0);
    b.Beq("done");
    b.SubI(0, 0, 1);
    b.Call("pong");
    b.Label("done");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("pong");
    b.Call("ping");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  EXPECT_EQ(analysis.stats.functions_processed, 2u);
}

TEST(BottomUp, ImportCapBoundsWork) {
  // max_imported_per_callsite truncates pathological fan-in.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("many_defs");
    for (int i = 0; i < 20; ++i) b.StrW(1, 0, i * 4);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.Call("many_defs");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  InterprocConfig config;
  config.max_imported_per_callsite = 5;
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value(), config);
  EXPECT_EQ(analysis.stats.defs_propagated, 5u);
}

// A wrapper that passes its own formals on, swapped or shifted: every
// formal maps to its actual at once, never through another formal's
// actual.
TEST(ReplaceFormalArgs, SubstitutesAllFormalsSimultaneously) {
  const SymRef deref_arg0 = SymExpr::Deref(SymExpr::Arg(0));
  const SymRef deref_arg1 = SymExpr::Deref(SymExpr::Arg(1));
  // Swapped: arg0 -> arg1 must not then turn back into arg0.
  EXPECT_TRUE(SymExpr::Equal(
      ReplaceFormalArgs(deref_arg0, {SymExpr::Arg(1), SymExpr::Arg(0)}),
      deref_arg1));
  // Shifted: arg0 -> arg1 must not then turn into arg2.
  EXPECT_TRUE(SymExpr::Equal(
      ReplaceFormalArgs(deref_arg0, {SymExpr::Arg(1), SymExpr::Arg(2)}),
      deref_arg1));
  // Unmapped formals stay; Bin nodes are rebuilt through the factory.
  const SymRef sum = SymExpr::Bin(BinOp::kAdd, deref_arg0, SymExpr::Arg(2));
  EXPECT_TRUE(SymExpr::Equal(
      ReplaceFormalArgs(sum, {SymExpr::Arg(2), SymExpr::Arg(0)}),
      SymExpr::Bin(BinOp::kAdd, SymExpr::Deref(SymExpr::Arg(2)),
                   SymExpr::Arg(2))));
}

}  // namespace
}  // namespace dtaint
