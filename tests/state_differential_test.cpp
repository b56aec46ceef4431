// Differential oracle for the symbolic-state representations.
//
// The copy-on-write state (shared register-chunk/hash-trie spine with
// a per-path overlay, plus block-transfer memoization in the engine)
// is only admissible if it is *invisible*: for any input, the full
// analysis report — findings, def-pair propagation counts, path
// counts, everything except wall-clock timings and per-run metrics —
// must be byte-identical whether exploration ran on the CoW state (the
// default) or the legacy eagerly-copied containers, at any thread
// count, cold or warm cache, in either alias mode.
//
// A second tier of property tests drives both representations through
// the raw SymState API with randomized store/load/fork interleavings
// and asserts every observable (register values, memory loads, fork
// isolation, constraint trails, taint mask) agrees pointwise — the
// overlay/spine machinery must be semantics-free.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/report/json.h"
#include "src/symexec/symstate.h"
#include "src/synth/firmware_synth.h"
#include "src/util/rng.h"

namespace dtaint {
namespace {

/// 20 synthesized binaries (10 seeds x 2 architectures) rotating
/// through the five standard plant patterns, with a sanitized twin on
/// odd seeds so reports contain both findings and their absence.
std::vector<Binary> BuildCorpus() {
  std::vector<Binary> corpus;
  for (int seed = 0; seed < 10; ++seed) {
    for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
      ProgramSpec spec;
      spec.name = "sfw" + std::to_string(seed);
      spec.arch = arch;
      spec.seed = 900 + static_cast<uint64_t>(seed);
      spec.filler_functions = 12 + seed;
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

/// Serializes a report with the run-dependent fields (timings, cache
/// counters, per-run metrics, the timing-ordered hot-function profile)
/// zeroed; everything else must survive byte comparison.
std::string NormalizedJson(AnalysisReport report) {
  report.ssa_seconds = 0.0;
  report.ddg_seconds = 0.0;
  report.total_seconds = 0.0;
  report.interproc_stats.summary_seconds = 0.0;
  report.interproc_stats.cache_hits = 0;
  report.interproc_stats.cache_misses = 0;
  report.interproc_stats.cache_evictions = 0;
  report.interproc_stats.cache_memory_bytes = 0;
  report.interproc_stats.hot_functions.clear();
  report.metrics = obs::MetricsSnapshot{};
  return ReportToJson(report);
}

std::string AnalyzeNormalized(const Binary& binary, bool cow,
                              int num_threads = 1,
                              SummaryCache* cache = nullptr,
                              AliasMode alias_mode = AliasMode::kEager) {
  ScopedStateCow toggle(cow);
  DTaintConfig config;
  config.interproc.num_threads = num_threads;
  config.interproc.cache = cache;
  config.interproc.alias_mode = alias_mode;
  auto report = DTaint(config).Analyze(binary);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? NormalizedJson(*report) : std::string();
}

// ---------- the oracle -------------------------------------------------------

TEST(StateDifferential, CowAndLegacyReportsAreByteIdentical) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 20u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string legacy = AnalyzeNormalized(corpus[i], /*cow=*/false);
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(AnalyzeNormalized(corpus[i], /*cow=*/true), legacy)
        << "CoW run diverged on corpus[" << i << "]";
  }
}

TEST(StateDifferential, ByteIdenticalAtEveryThreadCount) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 8u);
  for (size_t i = 0; i < 4; ++i) {
    const Binary& binary = corpus[i * 2];
    std::string reference =
        AnalyzeNormalized(binary, /*cow=*/false, /*num_threads=*/1);
    ASSERT_FALSE(reference.empty());
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(AnalyzeNormalized(binary, /*cow=*/true, threads), reference)
          << "corpus[" << i * 2 << "] at num_threads=" << threads;
    }
  }
}

TEST(StateDifferential, ByteIdenticalColdAndWarmCache) {
  // Block memoization and the CoW spine must not leak into codec
  // bytes: a cache warmed by a CoW run must serve a legacy run (and
  // vice versa) without changing a single report byte.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const Binary& binary = corpus[i];
    std::string reference = AnalyzeNormalized(binary, /*cow=*/false);
    ASSERT_FALSE(reference.empty());
    SummaryCache cache;  // in-memory
    // Cold CoW run fills the cache; the warm runs — one per
    // representation — must replay it to the same bytes.
    EXPECT_EQ(AnalyzeNormalized(binary, /*cow=*/true, 1, &cache), reference)
        << "cold cow run, corpus[" << i << "]";
    EXPECT_EQ(AnalyzeNormalized(binary, /*cow=*/true, 1, &cache), reference)
        << "warm cow run, corpus[" << i << "]";
    EXPECT_EQ(AnalyzeNormalized(binary, /*cow=*/false, 1, &cache), reference)
        << "warm legacy run against a cow-warmed cache, corpus[" << i << "]";
  }
}

TEST(StateDifferential, ByteIdenticalInBothAliasModes) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const Binary& binary = corpus[i];
    for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
      std::string legacy =
          AnalyzeNormalized(binary, /*cow=*/false, 1, nullptr, mode);
      ASSERT_FALSE(legacy.empty());
      EXPECT_EQ(AnalyzeNormalized(binary, /*cow=*/true, 1, nullptr, mode),
                legacy)
          << "corpus[" << i << "] alias mode "
          << (mode == AliasMode::kEager ? "eager" : "on-demand");
    }
  }
}

TEST(StateDifferential, SummaryCodecBytesAreUnchanged) {
  // The persistent cache stores EncodeSummary(...) blobs keyed by a
  // content-addressed fingerprint; the state representation (and the
  // engine_stats counters it maintains, which the codec deliberately
  // skips) must not perturb the encoded bytes.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_FALSE(corpus.empty());
  const Binary& binary = corpus[0];
  CfgBuilder builder(binary);
  auto program = builder.BuildProgram();
  ASSERT_TRUE(program.ok());
  SymEngine engine(binary);
  CallGraph graph = CallGraph::Build(*program);

  ProgramAnalysis legacy, cow;
  {
    ScopedStateCow off(false);
    legacy = RunBottomUp(*program, graph, engine);
  }
  {
    ScopedStateCow on(true);
    cow = RunBottomUp(*program, graph, engine);
  }
  ASSERT_EQ(legacy.summaries.size(), cow.summaries.size());
  for (const auto& [name, summary] : legacy.summaries) {
    auto it = cow.summaries.find(name);
    ASSERT_NE(it, cow.summaries.end()) << name;
    EXPECT_EQ(EncodeSummary(it->second), EncodeSummary(summary))
        << name << ": codec bytes changed under the CoW state";
  }
}

// ---------- property tests: raw-state equivalence ---------------------------

/// A pool of address expressions the random walk stores to / loads
/// from: argument roots, field offsets, sp-relative slots, a heap
/// symbol — the shapes exploration actually produces.
std::vector<SymRef> AddressPool() {
  std::vector<SymRef> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(SymExpr::Arg(i));
    pool.push_back(SymAdd(SymExpr::Arg(i), 4 * (i + 1)));
  }
  pool.push_back(SymExpr::Sp0());
  pool.push_back(SymAdd(SymExpr::Sp0(), -8));
  pool.push_back(SymAdd(SymExpr::Sp0(), 16));
  pool.push_back(SymExpr::Heap(0xbeef));
  pool.push_back(SymAdd(SymExpr::Heap(0xbeef), 12));
  pool.push_back(SymExpr::Ret(0x1234));
  return pool;
}

/// A pool of values to store: constants, symbols, a taint marker.
std::vector<SymRef> ValuePool() {
  std::vector<SymRef> pool;
  pool.push_back(SymExpr::Const(0));
  pool.push_back(SymExpr::Const(0x41414141));
  pool.push_back(SymExpr::Arg(2));
  pool.push_back(SymExpr::InitReg(5));
  pool.push_back(SymExpr::Taint(0x2000, "recv"));
  pool.push_back(SymExpr::Deref(SymExpr::Arg(1)));
  return pool;
}

/// Asserts the observable surface of two states matches: every
/// register, every pool address, the constraint trail, the taint mask.
void ExpectStatesAgree(SymState& cow, SymState& legacy,
                       const std::vector<SymRef>& addrs, int tag) {
  for (int r = 0; r < kNumIrRegs; ++r) {
    const SymRef& a = cow.Reg(r);
    const SymRef& b = legacy.Reg(r);
    ASSERT_TRUE(a && b) << "reg " << r << " missing (step " << tag << ")";
    EXPECT_TRUE(SymExpr::Equal(a, b))
        << "reg " << r << ": " << a->ToString() << " vs " << b->ToString()
        << " (step " << tag << ")";
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    SymRef pa = cow.PeekMem(addrs[i]);
    SymRef pb = legacy.PeekMem(addrs[i]);
    ASSERT_EQ(pa != nullptr, pb != nullptr)
        << "addr[" << i << "] definedness diverged (step " << tag << ")";
    if (pa) {
      EXPECT_TRUE(SymExpr::Equal(pa, pb))
          << "addr[" << i << "]: " << pa->ToString() << " vs "
          << pb->ToString() << " (step " << tag << ")";
    }
  }
  EXPECT_EQ(cow.MemEntryCount(), legacy.MemEntryCount())
      << "(step " << tag << ")";
  EXPECT_EQ(cow.ConstraintCount(), legacy.ConstraintCount())
      << "(step " << tag << ")";
  std::vector<PathConstraint> ca = cow.ConstraintsSnapshot();
  std::vector<PathConstraint> cb = legacy.ConstraintsSnapshot();
  ASSERT_EQ(ca.size(), cb.size()) << "(step " << tag << ")";
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].op, cb[i].op);
    EXPECT_EQ(ca[i].taken, cb[i].taken);
    EXPECT_EQ(ca[i].site, cb[i].site);
    EXPECT_TRUE(SymExpr::Equal(ca[i].lhs, cb[i].lhs));
    EXPECT_TRUE(SymExpr::Equal(ca[i].rhs, cb[i].rhs));
  }
  EXPECT_EQ(cow.taint_mask(), legacy.taint_mask()) << "(step " << tag << ")";
}

TEST(StateProperty, RandomizedInterleavingsAgree) {
  std::vector<SymRef> addrs = AddressPool();
  std::vector<SymRef> values = ValuePool();
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(0x57A7E + seed);
    SymState cow_state = [] {
      ScopedStateCow on(true);
      return SymState::Entry(Arch::kDtArm);
    }();
    SymState legacy_state = [] {
      ScopedStateCow off(false);
      return SymState::Entry(Arch::kDtArm);
    }();
    ASSERT_TRUE(cow_state.cow());
    ASSERT_FALSE(legacy_state.cow());
    // Forked lineages kept in lockstep pairs; ops apply to a random
    // live pair, forks push a new pair, so spine sharing is exercised
    // across many generations.
    std::vector<std::pair<SymState, SymState>> lineages;
    lineages.emplace_back(std::move(cow_state), std::move(legacy_state));
    for (int step = 0; step < 400; ++step) {
      auto& [cw, lg] = lineages[rng.Below(lineages.size())];
      switch (rng.Below(6)) {
        case 0: {  // store
          const SymRef& addr = addrs[rng.Below(addrs.size())];
          const SymRef& value = values[rng.Below(values.size())];
          uint8_t size = rng.Chance(0.5) ? 4 : 1;
          cw.StoreMem(addr, value, size);
          lg.StoreMem(addr, value, size);
          break;
        }
        case 1: {  // load (defined or lazy deref)
          const SymRef& addr = addrs[rng.Below(addrs.size())];
          bool da = false, db = false;
          SymRef va = cw.LoadMem(addr, 4, &da);
          SymRef vb = lg.LoadMem(addr, 4, &db);
          ASSERT_EQ(da, db) << "seed " << seed << " step " << step;
          ASSERT_TRUE(SymExpr::Equal(va, vb))
              << "seed " << seed << " step " << step << ": "
              << va->ToString() << " vs " << vb->ToString();
          break;
        }
        case 2: {  // register write
          int reg = static_cast<int>(rng.Below(kNumIrRegs));
          const SymRef& value = values[rng.Below(values.size())];
          cw.SetReg(reg, value);
          lg.SetReg(reg, value);
          break;
        }
        case 3: {  // constraint push
          PathConstraint c;
          c.op = BinOp::kCmpLt;
          c.lhs = values[rng.Below(values.size())];
          c.rhs = SymExpr::Const(static_cast<uint32_t>(rng.Below(256)));
          c.taken = rng.Chance(0.5);
          c.site = static_cast<uint32_t>(0x4000 + step);
          cw.PushConstraint(c);
          lg.PushConstraint(c);
          break;
        }
        case 4: {  // visited-block marking
          // addr<->index is a bijection in the engine (index is the block's
          // dense position for its address), so derive both from one draw.
          int index = static_cast<int>(rng.Below(64));
          uint32_t addr = static_cast<uint32_t>(0x8000 + index * 4);
          ASSERT_EQ(cw.VisitedBlock(addr, index),
                    lg.VisitedBlock(addr, index))
              << "seed " << seed << " step " << step;
          cw.MarkVisited(addr, index);
          lg.MarkVisited(addr, index);
          break;
        }
        case 5: {  // fork: child must see parent state, then diverge
          if (lineages.size() >= 8) break;
          SymState cc = cw.Fork();
          SymState lc = lg.Fork();
          lineages.emplace_back(std::move(cc), std::move(lc));
          break;
        }
      }
    }
    for (size_t li = 0; li < lineages.size(); ++li) {
      ExpectStatesAgree(lineages[li].first, lineages[li].second, addrs,
                        static_cast<int>(li));
    }
  }
}

TEST(StateProperty, ForkIsolationAcrossRepresentations) {
  // Writes after a fork must stay invisible to the sibling — in both
  // representations, including overlay entries committed to the shared
  // trie at fork time.
  for (bool cow : {true, false}) {
    ScopedStateCow toggle(cow);
    SymState parent = SymState::Entry(Arch::kDtArm);
    SymRef addr = SymAdd(SymExpr::Arg(0), 8);
    SymRef before = SymExpr::Const(7);
    parent.StoreMem(addr, before, 4);
    SymState child = parent.Fork();
    // Diverge both sides.
    child.StoreMem(addr, SymExpr::Const(42), 4);
    child.SetReg(3, SymExpr::Const(42));
    SymRef parent_val = parent.PeekMem(addr);
    ASSERT_TRUE(parent_val);
    EXPECT_TRUE(SymExpr::Equal(parent_val, before))
        << "child store leaked into parent (cow=" << cow << ")";
    parent.StoreMem(addr, SymExpr::Const(99), 4);
    SymRef child_val = child.PeekMem(addr);
    ASSERT_TRUE(child_val);
    EXPECT_TRUE(SymExpr::Equal(child_val, SymExpr::Const(42)))
        << "parent store leaked into child (cow=" << cow << ")";
    EXPECT_TRUE(SymExpr::Equal(parent.Reg(3), child.Reg(3)) ==
                false)  // parent still holds entry value
        << "register write leaked (cow=" << cow << ")";
  }
}

TEST(StateProperty, TaintMaskTracksTaintedStores) {
  for (bool cow : {true, false}) {
    ScopedStateCow toggle(cow);
    SymState state = SymState::Entry(Arch::kDtArm);
    EXPECT_FALSE(state.MayHoldTaint()) << "cow=" << cow;
    // Untainted store: mask stays clear.
    state.StoreMem(SymExpr::Arg(0), SymExpr::Const(1), 4);
    EXPECT_FALSE(state.MayHoldTaint()) << "cow=" << cow;
    // Tainted store through arg1: mask sets the arg-class bit.
    state.StoreMem(SymAdd(SymExpr::Arg(1), 4),
                   SymExpr::Taint(0x100, "recv"), 4);
    EXPECT_TRUE(state.MayHoldTaint()) << "cow=" << cow;
    EXPECT_NE(state.taint_mask() & (kTaintClassArg0 << 1), 0u)
        << "cow=" << cow;
    // The mask is monotone: overwriting does not clear it.
    state.StoreMem(SymAdd(SymExpr::Arg(1), 4), SymExpr::Const(0), 4);
    EXPECT_TRUE(state.MayHoldTaint()) << "cow=" << cow;
    // Forks inherit the mask.
    SymState child = state.Fork();
    EXPECT_EQ(child.taint_mask(), state.taint_mask()) << "cow=" << cow;
  }
}

TEST(StateProperty, OverlaySpillKeepsLoadsExact) {
  // Far more distinct addresses than the overlay holds: every store
  // must stay retrievable after the forced spills to the trie.
  ScopedStateCow on(true);
  SymState state = SymState::Entry(Arch::kDtArm);
  std::vector<SymRef> addrs;
  for (int i = 0; i < 64; ++i) {
    addrs.push_back(SymAdd(SymExpr::Arg(i % 4), 8 * i));
  }
  for (int i = 0; i < 64; ++i) {
    state.StoreMem(addrs[i], SymExpr::Const(static_cast<uint32_t>(i)), 4);
  }
  for (int i = 0; i < 64; ++i) {
    SymRef v = state.PeekMem(addrs[i]);
    ASSERT_TRUE(v) << "addr " << i << " lost";
    EXPECT_TRUE(
        SymExpr::Equal(v, SymExpr::Const(static_cast<uint32_t>(i))))
        << "addr " << i;
  }
  // Overwrites replace, not duplicate.
  size_t count = state.MemEntryCount();
  state.StoreMem(addrs[0], SymExpr::Const(0xff), 4);
  EXPECT_EQ(state.MemEntryCount(), count);
}

}  // namespace
}  // namespace dtaint
