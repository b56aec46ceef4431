// Golden-report oracle for the symbolic state and block memoization.
//
// The copy-on-write state (shared register-chunk/hash-trie spine with
// a per-path overlay, plus block-transfer memoization in the engine)
// is only admissible if it is *invisible*. The goldens under
// tests/testing/golden/ were frozen while the legacy eagerly-copied
// containers still ran beside it, and both produced those exact bytes:
// the full analysis report — findings, def-pair propagation counts,
// path counts, everything except wall-clock timings and per-run
// metrics — and the codec bytes of every linked summary must match
// them at any thread count, cold or warm cache, in either alias mode.
// The legacy state ran without block memoization, so a run with
// EngineConfig::block_memo off is held to the same goldens: that is
// the in-process reference for the memoizer.
//
// A second tier of property tests drives SymState through its raw API
// with randomized store/load/fork interleavings and asserts every
// observable (register values, memory loads, fork isolation,
// constraint trails, visited blocks, taint mask) agrees pointwise with
// a plain reference model — the overlay/spine machinery must be
// semantics-free.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/symexec/symstate.h"
#include "src/util/rng.h"
#include "tests/testing/differential.h"

namespace dtaint {
namespace {

using testing_util::AnalyzeNormalized;
using testing_util::BuildCorpus;
using testing_util::GoldenName;
using testing_util::kStateCorpus;
using testing_util::MatchesGolden;

// ---------- the oracle -------------------------------------------------------

TEST(StateGolden, ReportsAndSummariesMatchGoldens) {
  testing_util::ExpectCorpusMatchesGoldens("state", kStateCorpus);
}

TEST(StateGolden, BlockMemoOffMatchesGoldens) {
  std::vector<Binary> corpus = BuildCorpus(kStateCorpus);
  ASSERT_EQ(corpus.size(), 20u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
      EXPECT_TRUE(MatchesGolden(GoldenName("state", i, mode) + ".json",
                                AnalyzeNormalized(corpus[i], mode, 1,
                                                  nullptr,
                                                  /*block_memo=*/false)));
    }
  }
}

TEST(StateSize, SymStateStaysSmall) {
  // Every queued path holds one SymState; the copy-on-write spine keeps
  // the per-state footprint to the overlay plus a few handles.
  EXPECT_LE(sizeof(SymState), 480u);
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

/// The plain model SymState must agree with: a register vector, an
/// address map searched with Equal, a constraint vector, a visited
/// set and a taint mask — eagerly copied on every fork.
class ReferenceState {
 public:
  explicit ReferenceState(Arch arch) : regs_(kNumIrRegs) {
    const CallingConvention& cc = ConventionFor(arch);
    for (int r = 0; r < kNumIrRegs; ++r) regs_[r] = SymExpr::InitReg(r);
    for (int i = 0; i < kNumRegArgs; ++i) {
      regs_[cc.arg_regs[i]] = SymExpr::Arg(i);
    }
    regs_[kRegSp] = SymExpr::Sp0();
    for (int i = kNumRegArgs; i < kMaxModeledArgs; ++i) {
      StoreMem(SymAdd(SymExpr::Sp0(), cc.StackArgOffset(i)),
               SymExpr::Arg(i), 4);
    }
  }

  const SymRef& Reg(int reg) const { return regs_[reg]; }
  void SetReg(int reg, SymRef value) {
    if (value->IsTainted()) taint_mask_ |= kTaintClassReg;
    regs_[reg] = std::move(value);
  }

  SymRef PeekMem(const SymRef& addr) const {
    for (const Cell& cell : mem_) {
      if (SymExpr::Equal(cell.addr, addr)) return cell.value;
    }
    return nullptr;
  }
  SymRef LoadMem(const SymRef& addr, uint8_t size, bool* was_defined) const {
    SymRef value = PeekMem(addr);
    *was_defined = value != nullptr;
    return value ? value : SymExpr::Deref(addr, size);
  }
  void StoreMem(const SymRef& addr, SymRef value, uint8_t size) {
    if (value->IsTainted()) taint_mask_ |= TaintClassOf(addr);
    for (Cell& cell : mem_) {
      if (SymExpr::Equal(cell.addr, addr)) {
        cell.value = std::move(value);
        cell.size = size;
        return;
      }
    }
    mem_.push_back({addr, std::move(value), size});
  }
  size_t MemEntryCount() const { return mem_.size(); }

  void PushConstraint(const PathConstraint& c) { constraints_.push_back(c); }
  const std::vector<PathConstraint>& constraints() const {
    return constraints_;
  }

  bool VisitedBlock(int index) const { return visited_.count(index) != 0; }
  void MarkVisited(int index) { visited_.insert(index); }

  uint32_t taint_mask() const { return taint_mask_; }

 private:
  struct Cell {
    SymRef addr;
    SymRef value;
    uint8_t size;
  };

  /// The source class a tainted store through `addr` records: the
  /// formal argument, heap, callsite return or stack pointer the
  /// address is rooted at, else "other memory".
  static uint32_t TaintClassOf(const SymRef& addr) {
    SymRef root = RootPointerOf(addr);
    if (!root) return kTaintClassOtherMem;
    switch (root->kind()) {
      case SymKind::kArg:
        return root->arg_index() < 10 ? kTaintClassArg0 << root->arg_index()
                                      : kTaintClassOtherMem;
      case SymKind::kHeap:
        return kTaintClassHeap;
      case SymKind::kRet:
        return kTaintClassRet;
      case SymKind::kSp0:
        return kTaintClassSp;
      default:
        return kTaintClassOtherMem;
    }
  }

  std::vector<SymRef> regs_;
  std::vector<Cell> mem_;
  std::vector<PathConstraint> constraints_;
  std::set<int> visited_;
  uint32_t taint_mask_ = 0;
};

/// Asserts the observable surface of the state and the model matches:
/// every register, every pool address, the constraint trail, the
/// visited blocks, the taint mask.
void ExpectStatesAgree(SymState& state, const ReferenceState& ref,
                       const std::vector<SymRef>& addrs, int tag) {
  for (int r = 0; r < kNumIrRegs; ++r) {
    const SymRef& a = state.Reg(r);
    const SymRef& b = ref.Reg(r);
    ASSERT_TRUE(a && b) << "reg " << r << " missing (step " << tag << ")";
    EXPECT_TRUE(SymExpr::Equal(a, b))
        << "reg " << r << ": " << a->ToString() << " vs " << b->ToString()
        << " (step " << tag << ")";
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    SymRef pa = state.PeekMem(addrs[i]);
    SymRef pb = ref.PeekMem(addrs[i]);
    ASSERT_EQ(pa != nullptr, pb != nullptr)
        << "addr[" << i << "] definedness diverged (step " << tag << ")";
    if (pa) {
      EXPECT_TRUE(SymExpr::Equal(pa, pb))
          << "addr[" << i << "]: " << pa->ToString() << " vs "
          << pb->ToString() << " (step " << tag << ")";
    }
  }
  EXPECT_EQ(state.MemEntryCount(), ref.MemEntryCount())
      << "(step " << tag << ")";
  EXPECT_EQ(state.ConstraintCount(), ref.constraints().size())
      << "(step " << tag << ")";
  std::vector<PathConstraint> ca = state.ConstraintsSnapshot();
  const std::vector<PathConstraint>& cb = ref.constraints();
  ASSERT_EQ(ca.size(), cb.size()) << "(step " << tag << ")";
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].op, cb[i].op);
    EXPECT_EQ(ca[i].taken, cb[i].taken);
    EXPECT_EQ(ca[i].site, cb[i].site);
    EXPECT_TRUE(SymExpr::Equal(ca[i].lhs, cb[i].lhs));
    EXPECT_TRUE(SymExpr::Equal(ca[i].rhs, cb[i].rhs));
  }
  for (int index = 0; index < 64; ++index) {
    EXPECT_EQ(state.VisitedBlock(index), ref.VisitedBlock(index))
        << "block " << index << " (step " << tag << ")";
  }
  EXPECT_EQ(state.taint_mask(), ref.taint_mask()) << "(step " << tag << ")";
}

TEST(StateProperty, RandomizedInterleavingsAgreeWithReference) {
  std::vector<SymRef> addrs = AddressPool();
  std::vector<SymRef> values = ValuePool();
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(0x57A7E + seed);
    // Forked lineages kept in lockstep pairs; ops apply to a random
    // live pair, forks push a new pair, so spine sharing is exercised
    // across many generations.
    std::vector<std::pair<SymState, ReferenceState>> lineages;
    lineages.emplace_back(SymState::Entry(Arch::kDtArm),
                          ReferenceState(Arch::kDtArm));
    ExpectStatesAgree(lineages[0].first, lineages[0].second, addrs, -1);
    for (int step = 0; step < 400; ++step) {
      auto& [st, ref] = lineages[rng.Below(lineages.size())];
      switch (rng.Below(6)) {
        case 0: {  // store
          const SymRef& addr = addrs[rng.Below(addrs.size())];
          const SymRef& value = values[rng.Below(values.size())];
          uint8_t size = rng.Chance(0.5) ? 4 : 1;
          st.StoreMem(addr, value, size);
          ref.StoreMem(addr, value, size);
          break;
        }
        case 1: {  // load (defined or lazy deref)
          const SymRef& addr = addrs[rng.Below(addrs.size())];
          bool da = false, db = false;
          SymRef va = st.LoadMem(addr, 4, &da);
          SymRef vb = ref.LoadMem(addr, 4, &db);
          ASSERT_EQ(da, db) << "seed " << seed << " step " << step;
          ASSERT_TRUE(SymExpr::Equal(va, vb))
              << "seed " << seed << " step " << step << ": "
              << va->ToString() << " vs " << vb->ToString();
          break;
        }
        case 2: {  // register write
          int reg = static_cast<int>(rng.Below(kNumIrRegs));
          const SymRef& value = values[rng.Below(values.size())];
          st.SetReg(reg, value);
          ref.SetReg(reg, value);
          break;
        }
        case 3: {  // constraint push
          PathConstraint c;
          c.op = BinOp::kCmpLt;
          c.lhs = values[rng.Below(values.size())];
          c.rhs = SymExpr::Const(static_cast<uint32_t>(rng.Below(256)));
          c.taken = rng.Chance(0.5);
          c.site = static_cast<uint32_t>(0x4000 + step);
          st.PushConstraint(c);
          ref.PushConstraint(c);
          break;
        }
        case 4: {  // visited-block marking
          int index = static_cast<int>(rng.Below(64));
          ASSERT_EQ(st.VisitedBlock(index), ref.VisitedBlock(index))
              << "seed " << seed << " step " << step;
          st.MarkVisited(index);
          ref.MarkVisited(index);
          break;
        }
        case 5: {  // fork: child must see parent state, then diverge
          if (lineages.size() >= 8) break;
          SymState child = st.Fork();
          ReferenceState ref_child = ref;
          lineages.emplace_back(std::move(child), std::move(ref_child));
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

TEST(StateProperty, ForkIsolation) {
  // Writes after a fork must stay invisible to the sibling, including
  // overlay entries committed to the shared trie at fork time.
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
      << "child store leaked into parent";
  parent.StoreMem(addr, SymExpr::Const(99), 4);
  SymRef child_val = child.PeekMem(addr);
  ASSERT_TRUE(child_val);
  EXPECT_TRUE(SymExpr::Equal(child_val, SymExpr::Const(42)))
      << "parent store leaked into child";
  // The parent still holds the entry value.
  EXPECT_FALSE(SymExpr::Equal(parent.Reg(3), child.Reg(3)))
      << "register write leaked";
}

TEST(StateProperty, TaintMaskTracksTaintedStores) {
  SymState state = SymState::Entry(Arch::kDtArm);
  EXPECT_FALSE(state.MayHoldTaint());
  // Untainted store: mask stays clear.
  state.StoreMem(SymExpr::Arg(0), SymExpr::Const(1), 4);
  EXPECT_FALSE(state.MayHoldTaint());
  // Tainted store through arg1: mask sets the arg-class bit.
  state.StoreMem(SymAdd(SymExpr::Arg(1), 4), SymExpr::Taint(0x100, "recv"),
                 4);
  EXPECT_TRUE(state.MayHoldTaint());
  EXPECT_NE(state.taint_mask() & (kTaintClassArg0 << 1), 0u);
  // The mask is monotone: overwriting does not clear it.
  state.StoreMem(SymAdd(SymExpr::Arg(1), 4), SymExpr::Const(0), 4);
  EXPECT_TRUE(state.MayHoldTaint());
  // Forks inherit the mask.
  SymState child = state.Fork();
  EXPECT_EQ(child.taint_mask(), state.taint_mask());
}

TEST(StateProperty, OverlaySpillKeepsLoadsExact) {
  // Far more distinct addresses than the overlay holds: every store
  // must stay retrievable after the forced spills to the trie.
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
