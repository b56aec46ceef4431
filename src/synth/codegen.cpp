#include "src/synth/codegen.h"

namespace dtaint {

namespace {

/// Sources that return a pointer to attacker bytes (vs filling a
/// caller buffer).
bool IsPtrReturningSource(const std::string& source) {
  return source == "getenv" || source == "websGetVar" ||
         source == "find_var";
}

/// Sources that write attacker bytes into the buffer passed as their
/// second argument: source(fd, buf, len).
bool IsBufferFillingSource(const std::string& source) {
  return source == "recv" || source == "read" || source == "recvfrom" ||
         source == "recvmsg";
}

/// Sinks whose dangerous parameter is a length (vs string contents).
bool IsLengthSink(const std::string& sink) {
  return sink == "memcpy" || sink == "strncpy";
}

bool IsCommandSink(const std::string& sink) {
  return sink == "system" || sink == "popen";
}

}  // namespace

CodeGen::CodeGen(const ProgramSpec& spec, BinaryWriter& writer)
    : spec_(spec), writer_(writer), rng_(spec.seed) {
  const CallingConvention& cc = ConventionFor(spec.arch);
  r_.a0 = cc.arg_regs[0];
  r_.a1 = cc.arg_regs[1];
  r_.a2 = cc.arg_regs[2];
  r_.a3 = cc.arg_regs[3];
  r_.rv = cc.ret_reg;
  if (spec.arch == Arch::kDtArm) {
    r_.s0 = 4; r_.s1 = 5; r_.s2 = 6; r_.s3 = 7; r_.s4 = 8; r_.s5 = 9;
  } else {
    r_.s0 = 8; r_.s1 = 9; r_.s2 = 10; r_.s3 = 11; r_.s4 = 12; r_.s5 = 3;
  }
}

uint32_t CodeGen::StrAddr(const std::string& text) {
  auto it = string_pool_.find(text);
  if (it != string_pool_.end()) return it->second;
  std::vector<uint8_t> bytes(text.begin(), text.end());
  bytes.push_back(0);
  uint32_t addr = kRodataBase + writer_.AddRodata(std::move(bytes));
  string_pool_[text] = addr;
  return addr;
}

void CodeGen::Import(const std::string& name) {
  if (imports_.insert(name).second) writer_.AddImport(name);
}

void CodeGen::Prologue(FnBuilder& b, int frame) {
  b.SubI(kRegSp, kRegSp, frame);
  b.StrW(kRegLr, kRegSp, frame - 4);
}

void CodeGen::Epilogue(FnBuilder& b, int frame) {
  b.LdrW(kRegLr, kRegSp, frame - 4);
  b.AddI(kRegSp, kRegSp, frame);
}

Status CodeGen::Finish(FnBuilder&& b) {
  auto fn = std::move(b).Finish();
  if (!fn.ok()) return fn.status();
  writer_.AddFunction(std::move(*fn));
  return Status::Ok();
}

void CodeGen::RecordPlant(const PlantSpec& plant,
                          const std::string& sink_fn, bool needs_alias,
                          bool needs_structsim, bool interprocedural) {
  PlantedVuln v;
  v.id = plant.id;
  v.sink_function = sink_fn;
  v.sink = plant.sink;
  v.source = plant.source;
  v.vuln_class = IsCommandSink(plant.sink)
                     ? VulnClass::kCommandInjection
                     : VulnClass::kBufferOverflow;
  v.sanitized = plant.sanitized;
  v.needs_alias = needs_alias;
  v.needs_structsim = needs_structsim;
  v.interprocedural = interprocedural;
  v.cve_label = plant.cve_label;
  ground_truth_.push_back(std::move(v));
}

bool CodeGen::EmitSource(FnBuilder& b, const std::string& source) {
  Import(source);
  if (IsPtrReturningSource(source)) {
    if (source == "getenv") {
      b.MovConst(r_.a0, StrAddr("HTTP_COOKIE"));
    } else if (source == "websGetVar") {
      b.MovI(r_.a0, 0);  // wp handle
      b.MovConst(r_.a1, StrAddr("host_name"));
      b.MovConst(r_.a2, StrAddr(""));
    } else {  // find_var
      b.MovI(r_.a0, 0);
      b.MovConst(r_.a1, StrAddr("cmd"));
    }
    b.Call(source);
    b.MovR(r_.s0, r_.rv);
    return true;
  }
  if (IsBufferFillingSource(source)) {
    b.AddI(r_.s0, kRegSp, 0x40);  // buf on the frame
    b.MovI(r_.a0, 3);             // fd
    b.MovR(r_.a1, r_.s0);
    b.MovI(r_.a2, 0x100);
    if (source == "recvfrom" || source == "recv") b.MovI(r_.a3, 0);
    b.Call(source);
    return true;
  }
  if (source == "fgets") {
    b.AddI(r_.s0, kRegSp, 0x40);
    b.MovR(r_.a0, r_.s0);
    b.MovI(r_.a1, 0x100);
    b.MovI(r_.a2, 0);  // stdin handle
    b.Call(source);
    return true;
  }
  return false;
}

bool CodeGen::EmitSink(FnBuilder& b, const std::string& sink,
                       bool sanitized) {
  Import(sink);
  if (IsCommandSink(sink)) {
    if (sanitized) {
      // Semicolon filter: scan the command string; reject on ';'.
      b.MovI(r_.s2, 0);
      b.Label("scan");
      b.LdrBR(r_.s3, r_.s0, r_.s2);
      b.CmpI(r_.s3, 0x3B);  // ';'
      b.Beq("out");
      b.AddI(r_.s2, r_.s2, 1);
      b.CmpI(r_.s3, 0);
      b.Bne("scan");
    }
    b.MovR(r_.a0, r_.s0);
    if (sink == "popen") b.MovConst(r_.a1, StrAddr("r"));
    b.Call(sink);
    return true;
  }
  if (IsLengthSink(sink)) {
    // Tainted length: pulled out of the attacker-controlled bytes.
    b.LdrW(r_.s1, r_.s0, 4);
    if (sanitized) {
      b.CmpI(r_.s1, 0x40);
      b.Bge("out");
    }
    b.AddI(r_.a0, kRegSp, 0x160);  // dst buffer
    b.AddI(r_.a1, r_.s0, 8);       // payload after the header
    b.MovR(r_.a2, r_.s1);
    b.Call(sink);
    return true;
  }
  // String-content sinks.
  if (sanitized) {
    Import("strlen");
    b.MovR(r_.a0, r_.s0);
    b.Call("strlen");
    b.MovR(r_.s1, r_.rv);
    b.CmpI(r_.s1, 0x40);
    b.Bge("out");
  }
  if (sink == "strcpy" || sink == "strcat") {
    b.AddI(r_.a0, kRegSp, 0x160);
    b.MovR(r_.a1, r_.s0);
    b.Call(sink);
    return true;
  }
  if (sink == "sprintf") {
    b.AddI(r_.a0, kRegSp, 0x160);
    b.MovConst(r_.a1, StrAddr("name=%s"));
    b.MovR(r_.a2, r_.s0);
    b.Call(sink);
    return true;
  }
  if (sink == "sscanf") {
    b.MovR(r_.a0, r_.s0);
    b.MovConst(r_.a1, StrAddr("%254s"));
    b.AddI(r_.a2, kRegSp, 0x160);
    b.Call(sink);
    return true;
  }
  return false;
}

Status CodeGen::EmitDirect(const PlantSpec& plant) {
  std::string handler = plant.id + "_handler";
  FnBuilder b(handler);
  Prologue(b, 0x200);
  if (!EmitSource(b, plant.source)) {
    return Unsupported("source " + plant.source);
  }
  if (!EmitSink(b, plant.sink, plant.sanitized)) {
    return Unsupported("sink " + plant.sink);
  }
  b.Label("out");
  Epilogue(b, 0x200);
  b.Ret();
  if (Status s = Finish(std::move(b)); !s.ok()) return s;
  entry_functions_.push_back(handler);
  RecordPlant(plant, handler, false, false, false);
  return Status::Ok();
}

Status CodeGen::EmitWrapper(const PlantSpec& plant) {
  // Source lives in a callee that fills the caller's buffer; the sink
  // fires in the caller — requires bottom-up summary propagation.
  std::string handler = plant.id + "_handler";
  std::vector<std::string> fills;
  std::vector<std::string> fill_sources{plant.source};
  for (int i = 0; i < plant.extra_callers; ++i) {
    // Extra taint paths into the same sink via alternative sources.
    fill_sources.push_back(i % 2 == 0 ? "read" : "recv");
  }
  for (size_t i = 0; i < fill_sources.size(); ++i) {
    std::string fill = plant.id + "_fill" + std::to_string(i);
    const std::string& source = fill_sources[i];
    Import(source);
    FnBuilder fb(fill);
    Prologue(fb, 0x10);
    // arg0 = destination buffer.
    if (IsPtrReturningSource(source)) {
      // Copy the returned attacker string into the caller's buffer.
      fb.MovR(r_.s4, r_.a0);
      fb.MovConst(r_.a0, StrAddr("SOAPAction"));
      if (source == "websGetVar" || source == "find_var") {
        fb.MovI(r_.a0, 0);
        fb.MovConst(r_.a1, StrAddr("ping_IPAddr"));
        if (source == "websGetVar") fb.MovConst(r_.a2, StrAddr(""));
      }
      fb.Call(source);
      // Copy the attacker string into the caller's buffer with a
      // bounded strncpy: the contents stay tainted (that's the point of
      // the plant) but this copy itself is not an unchecked sink.
      // Read the return register before a0 is repurposed (on ARM the
      // return register IS a0).
      Import("strncpy");
      fb.MovR(r_.a1, r_.rv);
      fb.MovR(r_.a0, r_.s4);
      fb.MovI(r_.a2, 0x100);
      fb.Call("strncpy");
    } else {
      fb.MovR(r_.a1, r_.a0);
      fb.MovI(r_.a0, 3);
      fb.MovI(r_.a2, 0x200);
      fb.Call(source);
    }
    Epilogue(fb, 0x10);
    fb.Ret();
    if (Status s = Finish(std::move(fb)); !s.ok()) return s;
    fills.push_back(fill);
  }

  FnBuilder b(handler);
  Prologue(b, 0x300);
  b.AddI(r_.s0, kRegSp, 0x40);
  if (fills.size() == 1) {
    b.MovR(r_.a0, r_.s0);
    b.Call(fills[0]);
  } else {
    // Pick a fill variant based on an input byte (symbolic), so every
    // variant's source yields a distinct path to the one sink.
    b.LdrB(r_.s2, r_.s0, 0);
    for (size_t i = 0; i + 1 < fills.size(); ++i) {
      std::string next = "try" + std::to_string(i + 1);
      b.CmpI(r_.s2, static_cast<int32_t>(0x41 + i));
      b.Bne(next);
      b.MovR(r_.a0, r_.s0);
      b.Call(fills[i]);
      b.B("copy");
      b.Label(next);
    }
    b.MovR(r_.a0, r_.s0);
    b.Call(fills.back());
    b.Label("copy");
  }
  if (!EmitSink(b, plant.sink, plant.sanitized)) {
    return Unsupported("sink " + plant.sink);
  }
  b.Label("out");
  Epilogue(b, 0x300);
  b.Ret();
  if (Status s = Finish(std::move(b)); !s.ok()) return s;
  entry_functions_.push_back(handler);
  RecordPlant(plant, handler, false, false, true);
  return Status::Ok();
}

Status CodeGen::EmitAliasChain(const PlantSpec& plant) {
  // The paper's foo/woo shape (Fig. 5-7): woo parks the request buffer
  // pointer in a context-struct field and taints the buffer; foo reads
  // the pointer back through the field (the alias name) and sinks it.
  std::string woo = plant.id + "_woo";
  std::string handler = plant.id + "_handler";
  std::string entry = plant.id + "_entry";
  Import(plant.source);

  {
    FnBuilder b(woo);  // woo(ctx, req)
    Prologue(b, 0x10);
    b.LdrW(r_.s0, r_.a1, 0x24);  // s0 = req->buf
    b.StrW(r_.s0, r_.a0, 0x4C);  // ctx->cache = s0   (the alias store)
    b.MovI(r_.a0, 3);
    b.MovR(r_.a1, r_.s0);
    b.MovI(r_.a2, 0x200);
    b.Call(plant.source);        // taints *s0
    Epilogue(b, 0x10);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(handler);  // foo(ctx, req)
    Prologue(b, 0x200);
    b.MovR(r_.s2, r_.a0);  // save ctx across the call
    b.Call(woo);           // args still live in a0/a1
    b.LdrW(r_.s0, r_.s2, 0x4C);  // read back via the alias name
    if (!EmitSink(b, plant.sink, plant.sanitized)) {
      return Unsupported("sink " + plant.sink);
    }
    b.Label("out");
    Epilogue(b, 0x200);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(entry);
    Prologue(b, 0x400);
    b.AddI(r_.s0, kRegSp, 0x10);   // ctx struct
    b.AddI(r_.s1, kRegSp, 0x80);   // req struct
    b.AddI(r_.s2, kRegSp, 0x100);  // network buffer
    b.StrW(r_.s2, r_.s1, 0x24);    // req->buf = buffer
    b.MovR(r_.a0, r_.s0);
    b.MovR(r_.a1, r_.s1);
    b.Call(handler);
    Epilogue(b, 0x400);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  entry_functions_.push_back(entry);
  RecordPlant(plant, handler, /*needs_alias=*/true, false, true);
  return Status::Ok();
}

Status CodeGen::EmitDispatch(const PlantSpec& plant) {
  // Sink behind an indirect call through a message-type dispatch
  // table; the callee is reachable only via structure-layout matching.
  std::string impl = plant.id + "_impl";
  std::string decoy = plant.id + "_decoy";
  std::string setup = plant.id + "_setup";
  std::string dispatch = plant.id + "_dispatch";
  std::string entry = plant.id + "_entry";
  Import(plant.source);
  Import("malloc");

  {
    FnBuilder b(impl);  // impl(msg): msg->{+0xC buf, +0x10 len}
    b.LdrW(r_.s0, r_.a0, 0xC);
    b.LdrW(r_.s1, r_.a0, 0x10);
    Prologue(b, 0x80);
    if (plant.sanitized) {
      b.CmpI(r_.s1, 0x40);
      b.Bge("out");
    }
    Import("memcpy");
    b.AddI(r_.a0, kRegSp, 0x10);
    b.MovR(r_.a1, r_.s0);
    b.MovR(r_.a2, r_.s1);
    b.Call("memcpy");
    b.Label("out");
    Epilogue(b, 0x80);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(decoy);  // decoy(cfg): completely different layout
    b.LdrW(r_.s0, r_.a0, 0x4);
    b.LdrW(r_.s1, r_.a0, 0x24);
    b.AddR(r_.s0, r_.s0, r_.s1);
    b.MovR(r_.rv, r_.s0);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(setup);  // setup(msg): allocate + taint the buffer
    Prologue(b, 0x10);
    b.MovR(r_.s3, r_.a0);
    b.MovI(r_.a0, 0x200);
    b.Call("malloc");
    b.MovR(r_.s0, r_.rv);
    b.StrW(r_.s0, r_.s3, 0xC);
    b.MovI(r_.a0, 3);
    b.MovR(r_.a1, r_.s0);
    b.MovI(r_.a2, 0x200);
    b.Call(plant.source);
    b.LdrW(r_.s1, r_.s0, 0);   // attacker-controlled length field
    b.StrW(r_.s1, r_.s3, 0x10);
    Epilogue(b, 0x10);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }

  // Dispatch table in .data: [impl, decoy].
  uint32_t table_off = writer_.AddData(std::vector<uint8_t>(8, 0));
  writer_.AddDataReloc({".data", table_off, impl});
  writer_.AddDataReloc({".data", table_off + 4, decoy});
  uint32_t table_addr = kDataBase + table_off;

  {
    FnBuilder b(dispatch);  // dispatch(msg, kind)
    Prologue(b, 0x10);
    // Touch the same struct fields the impl uses so the layouts align
    // (these reads are what real dispatchers do: validate the message).
    b.LdrW(r_.s2, r_.a0, 0xC);
    b.LdrW(r_.s1, r_.a0, 0x10);
    b.MovConst(r_.s0, table_addr);
    b.LslI(r_.s4, r_.a1, 2);
    b.LdrWR(r_.s0, r_.s0, r_.s4);  // fptr = table[kind]  (symbolic)
    b.CallReg(r_.s0);               // msg still in a0
    Epilogue(b, 0x10);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(entry);
    Prologue(b, 0x100);
    b.AddI(r_.s3, kRegSp, 0x20);  // msg struct on the stack
    b.MovR(r_.a0, r_.s3);
    b.Call(setup);
    b.MovR(r_.a0, r_.s3);
    b.LdrW(r_.a1, r_.s3, 0x14);   // message kind (symbolic index)
    b.Call(dispatch);
    Epilogue(b, 0x100);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  entry_functions_.push_back(entry);
  RecordPlant(plant, impl, false, /*needs_structsim=*/true, true);
  return Status::Ok();
}

Status CodeGen::EmitLoopCopy(const PlantSpec& plant) {
  std::string handler = plant.id + "_handler";
  Import(plant.source);
  FnBuilder b(handler);
  Prologue(b, 0x300);
  b.AddI(r_.s0, kRegSp, 0x10);   // src buffer (0x200 bytes)
  b.MovI(r_.a0, 3);
  b.MovR(r_.a1, r_.s0);
  b.MovI(r_.a2, 0x200);
  b.Call(plant.source);
  b.LdrW(r_.s2, r_.s0, 4);       // start offset: attacker-controlled
  b.AddI(r_.s1, kRegSp, 0x210);  // dst buffer (48 bytes)
  b.Label("loop");
  if (plant.sanitized) {
    b.CmpI(r_.s2, 0x2F);
    b.Bge("out");
  }
  b.LdrBR(r_.s3, r_.s0, r_.s2);
  b.StrBR(r_.s3, r_.s1, r_.s2);  // dst[off] = src[off] — the loop sink
  b.AddI(r_.s2, r_.s2, 1);
  b.CmpI(r_.s3, 0);
  b.Bne("loop");
  b.Label("out");
  Epilogue(b, 0x300);
  b.Ret();
  if (Status s = Finish(std::move(b)); !s.ok()) return s;
  entry_functions_.push_back(handler);
  PlantSpec adjusted = plant;
  adjusted.sink = "loop";
  RecordPlant(adjusted, handler, false, false, false);
  return Status::Ok();
}

Status CodeGen::EmitCrossCallAlias(const PlantSpec& plant) {
  // A handler registration spread across call boundaries, the shape
  // the eager alias pass structurally misses: link_ctx parks the ctx
  // pointer in a container field, install writes the handler address
  // into ctx, and the entry calls container->ctx->handler(msg). No
  // single function sees both the registration store and the indirect
  // call, so Algorithm 1 (per-function, pre-link) produces no usable
  // twin and layout similarity scores zero (the entry touches the
  // structs through stack roots, the impl through its argument). The
  // on-demand oracle runs on the *linked* entry summary where both
  // imported stores are visible, rewrites the call-target SSE through
  // the cross-boundary alias fact, and resolves the call exactly.
  std::string impl = plant.id + "_impl";
  std::string link_ctx = plant.id + "_link";
  std::string install = plant.id + "_install";
  std::string setup = plant.id + "_setup";
  std::string entry = plant.id + "_entry";
  Import(plant.source);
  Import("malloc");

  {
    FnBuilder b(impl);  // impl(msg): msg->{+0xC buf, +0x10 len}
    b.LdrW(r_.s0, r_.a0, 0xC);
    b.LdrW(r_.s1, r_.a0, 0x10);
    Prologue(b, 0x80);
    if (plant.sanitized) {
      b.CmpI(r_.s1, 0x40);
      b.Bge("out");
    }
    Import("memcpy");
    b.AddI(r_.a0, kRegSp, 0x10);
    b.MovR(r_.a1, r_.s0);
    b.MovR(r_.a2, r_.s1);
    b.Call("memcpy");
    b.Label("out");
    Epilogue(b, 0x80);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(link_ctx);  // link_ctx(container, ctx)
    b.StrW(r_.a1, r_.a0, 0x8);  // container->ctx = ctx (the alias store)
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }

  // Handler registry in .data: a single function-pointer slot holding
  // the impl's address (also what makes the impl address-taken).
  uint32_t slot_off = writer_.AddData(std::vector<uint8_t>(4, 0));
  writer_.AddDataReloc({".data", slot_off, impl});
  uint32_t slot_addr = kDataBase + slot_off;

  {
    FnBuilder b(install);  // install(ctx): ctx->handler = registry[0]
    b.MovConst(r_.s0, slot_addr);
    b.LdrW(r_.s0, r_.s0, 0);
    b.StrW(r_.s0, r_.a0, 0x30);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(setup);  // setup(msg): allocate + taint the buffer
    Prologue(b, 0x10);
    b.MovR(r_.s3, r_.a0);
    b.MovI(r_.a0, 0x200);
    b.Call("malloc");
    b.MovR(r_.s0, r_.rv);
    b.StrW(r_.s0, r_.s3, 0xC);
    b.MovI(r_.a0, 3);
    b.MovR(r_.a1, r_.s0);
    b.MovI(r_.a2, 0x200);
    b.Call(plant.source);
    b.LdrW(r_.s1, r_.s0, 0);   // attacker-controlled length field
    b.StrW(r_.s1, r_.s3, 0x10);
    Epilogue(b, 0x10);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  {
    FnBuilder b(entry);
    Prologue(b, 0x100);
    b.AddI(r_.s1, kRegSp, 0x18);  // container struct
    b.AddI(r_.s2, kRegSp, 0x40);  // ctx struct
    b.AddI(r_.s3, kRegSp, 0x80);  // msg struct
    b.MovR(r_.a0, r_.s1);
    b.MovR(r_.a1, r_.s2);
    b.Call(link_ctx);
    b.MovR(r_.a0, r_.s2);
    b.Call(install);
    b.MovR(r_.a0, r_.s3);
    b.Call(setup);
    // Reload through the container: the engine has no store to forward
    // here (the stores happened in the callees), so the target stays
    // the symbolic chain deref(deref(sp0+cont+8)+0x30).
    b.LdrW(r_.s4, r_.s1, 0x8);
    b.LdrW(r_.s4, r_.s4, 0x30);
    b.MovR(r_.a0, r_.s3);
    b.CallReg(r_.s4);
    Epilogue(b, 0x100);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
  }
  entry_functions_.push_back(entry);
  RecordPlant(plant, impl, /*needs_alias=*/true, /*needs_structsim=*/true,
              true);
  return Status::Ok();
}

Status CodeGen::EmitPlant(const PlantSpec& plant) {
  // The other plants call the source as a buffer filler; a source that
  // fills none would leave ground truth for a flow the binary lacks.
  if (plant.pattern != VulnPattern::kDirect &&
      plant.pattern != VulnPattern::kWrapper &&
      !IsBufferFillingSource(plant.source)) {
    return Unsupported("source " + plant.source + " fills no buffer in a " +
                       std::string(VulnPatternName(plant.pattern)) +
                       " plant");
  }
  switch (plant.pattern) {
    case VulnPattern::kDirect:
      return EmitDirect(plant);
    case VulnPattern::kWrapper:
      return EmitWrapper(plant);
    case VulnPattern::kAliasChain:
      return EmitAliasChain(plant);
    case VulnPattern::kDispatch:
      return EmitDispatch(plant);
    case VulnPattern::kLoopCopy:
      return EmitLoopCopy(plant);
    case VulnPattern::kCrossCallAlias:
      return EmitCrossCallAlias(plant);
  }
  return Unsupported("unknown pattern");
}

Status CodeGen::EmitFillers() {
  static const char* kSafeStrings[] = {"GET", "POST", "Content-Length",
                                       "text/html", "admin", "/tmp/run",
                                       "reboot", "br0", "eth0"};
  for (int i = 0; i < spec_.filler_functions; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "fn_%05x", i);
    FnBuilder b(name);
    int frame = static_cast<int>(rng_.Range(4, 32)) * 8;
    Prologue(b, frame);

    int target_blocks = static_cast<int>(
        rng_.Range(spec_.filler_min_blocks, spec_.filler_max_blocks));
    int diamonds = std::max(1, (target_blocks - 2) / 2);
    int calls_left = static_cast<int>(
        rng_.Range(0, static_cast<int64_t>(2 * spec_.filler_call_density)));

    for (int d = 0; d < diamonds; ++d) {
      std::string skip = "skip" + std::to_string(d);
      // Optional checksum/parse-style arithmetic: pure scratch-register
      // compute, never stored or passed — heavy to execute, invisible
      // in the summary.
      // (s3/s4 only: those never reach a store, argument, or return,
      // so the burst cannot inflate the recorded summary.)
      for (int k = 0; k < spec_.filler_alu_burst; ++k) {
        switch (k % 3) {
          case 0:
            b.AddR(r_.s4, r_.s4, r_.s3);
            break;
          case 1:
            b.LslI(r_.s3, r_.s4, static_cast<int32_t>(rng_.Range(1, 3)));
            break;
          default:
            b.MulR(r_.s4, r_.s3, r_.s4);
            break;
        }
      }
      // A few ALU ops on scratch registers.
      int ops = static_cast<int>(rng_.Range(1, 4));
      for (int k = 0; k < ops; ++k) {
        switch (rng_.Below(4)) {
          case 0:
            b.AddI(r_.s0, r_.s1, static_cast<int32_t>(rng_.Range(1, 64)));
            break;
          case 1:
            // Stay clear of the saved-lr slot at [sp + frame - 4].
            b.LdrW(r_.s1, kRegSp,
                   static_cast<int32_t>(rng_.Range(0, frame / 4 - 2)) * 4);
            break;
          case 2:
            b.StrW(r_.s0, kRegSp,
                   static_cast<int32_t>(rng_.Range(0, frame / 4 - 2)) * 4);
            break;
          default:
            b.LslI(r_.s2, r_.s0, static_cast<int32_t>(rng_.Range(1, 3)));
            break;
        }
      }
      b.CmpI(r_.s0, static_cast<int32_t>(rng_.Range(0, 255)));
      b.Bne(skip);
      // Then-branch: maybe a safe library call or a filler call.
      switch (rng_.Below(6)) {
        case 0: {  // bounded memcpy: a sink with untainted args
          Import("memcpy");
          b.AddI(r_.a0, kRegSp, 0);
          b.AddI(r_.a1, kRegSp, frame / 2);
          b.MovI(r_.a2, static_cast<int32_t>(rng_.Range(4, 32)));
          b.Call("memcpy");
          break;
        }
        case 1: {  // strncpy with constant bound
          Import("strncpy");
          b.AddI(r_.a0, kRegSp, 0);
          b.MovConst(r_.a1, StrAddr(
              kSafeStrings[rng_.Below(std::size(kSafeStrings))]));
          b.MovI(r_.a2, 16);
          b.Call("strncpy");
          break;
        }
        case 2: {  // constant command: system("reboot")-style sink
          Import("system");
          b.MovConst(r_.a0, StrAddr("reboot"));
          b.Call("system");
          break;
        }
        case 3: {  // strcmp against a literal
          Import("strcmp");
          b.AddI(r_.a0, kRegSp, 8);
          b.MovConst(r_.a1, StrAddr(
              kSafeStrings[rng_.Below(std::size(kSafeStrings))]));
          b.Call("strcmp");
          break;
        }
        case 4: {  // call an earlier filler (acyclic call graph)
          if (calls_left > 0 && !filler_names_.empty()) {
            b.MovI(r_.a0, 0);
            b.Call(filler_names_[rng_.Below(filler_names_.size())]);
            --calls_left;
          } else {
            b.AddI(r_.s3, r_.s3, 1);
          }
          break;
        }
        default:
          b.MulR(r_.s2, r_.s0, r_.s1);
          break;
      }
      b.Label(skip);
    }
    // Occasional small counted loop over the frame.
    if (rng_.Chance(0.35)) {
      b.LdrW(r_.s2, kRegSp, 0);  // symbolic trip count
      b.MovI(r_.s4, 0);
      b.Label("lp");
      b.LdrW(r_.s1, kRegSp, 8);
      b.AddI(r_.s4, r_.s4, 1);
      b.CmpR(r_.s4, r_.s2);
      b.Blt("lp");
    }
    // Drain remaining call budget with tail calls to earlier fillers.
    while (calls_left-- > 0 && !filler_names_.empty()) {
      b.MovI(r_.a0, 1);
      b.Call(filler_names_[rng_.Below(filler_names_.size())]);
    }
    b.MovR(r_.rv, r_.s0);
    Epilogue(b, frame);
    b.Ret();
    if (Status s = Finish(std::move(b)); !s.ok()) return s;
    filler_names_.push_back(name);
  }
  return Status::Ok();
}

Status CodeGen::EmitMain() {
  FnBuilder b("main");
  Prologue(b, 0x40);
  for (const std::string& handler : entry_functions_) {
    b.Call(handler);
  }
  // Root a slice of the filler forest so it is reachable from main.
  size_t stride = filler_names_.empty()
                      ? 1
                      : std::max<size_t>(1, filler_names_.size() / 8);
  for (size_t i = 0; i < filler_names_.size(); i += stride) {
    b.MovI(r_.a0, 0);
    b.Call(filler_names_[i]);
  }
  b.MovI(r_.rv, 0);
  Epilogue(b, 0x40);
  b.Ret();
  return Finish(std::move(b));
}

Status CodeGen::EmitAll() {
  for (const PlantSpec& plant : spec_.plants) {
    if (Status s = EmitPlant(plant); !s.ok()) {
      return Status(s.code(), "plant " + plant.id + ": " + s.message());
    }
  }
  if (Status s = EmitFillers(); !s.ok()) return s;
  if (Status s = EmitMain(); !s.ok()) return s;
  writer_.SetEntry("main");
  return Status::Ok();
}

}  // namespace dtaint
