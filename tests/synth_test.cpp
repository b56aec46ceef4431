#include <gtest/gtest.h>

#include "src/binary/writer.h"
#include "src/cfg/cfg_builder.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"

namespace dtaint {
namespace {

ProgramSpec BasicSpec() {
  ProgramSpec spec;
  spec.name = "t";
  spec.arch = Arch::kDtArm;
  spec.seed = 7;
  spec.filler_functions = 20;
  PlantSpec p;
  p.id = "x";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants = {p};
  return spec;
}

TEST(Synth, FunctionCountMatchesSpec) {
  ProgramSpec spec = BasicSpec();
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  size_t expected = 1 /*main*/ + spec.filler_functions +
                    PlantFunctionCount(spec.plants[0]);
  EXPECT_EQ(out->binary.symbols.size(), expected);
  EXPECT_NE(out->binary.FindSymbol("main"), nullptr);
  EXPECT_EQ(out->binary.entry, out->binary.FindSymbol("main")->addr);
}

TEST(Synth, PlantFunctionCounts) {
  PlantSpec p;
  p.pattern = VulnPattern::kDirect;
  EXPECT_EQ(PlantFunctionCount(p), 1);
  p.pattern = VulnPattern::kWrapper;
  EXPECT_EQ(PlantFunctionCount(p), 2);
  p.extra_callers = 2;
  EXPECT_EQ(PlantFunctionCount(p), 4);
  p.pattern = VulnPattern::kAliasChain;
  EXPECT_EQ(PlantFunctionCount(p), 3);
  p.pattern = VulnPattern::kDispatch;
  EXPECT_EQ(PlantFunctionCount(p), 5);
  p.pattern = VulnPattern::kLoopCopy;
  EXPECT_EQ(PlantFunctionCount(p), 1);
}

TEST(Synth, DeterministicForSeed) {
  auto a = SynthesizeBinary(BasicSpec());
  auto b = SynthesizeBinary(BasicSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(BinaryWriter::Serialize(a->binary),
            BinaryWriter::Serialize(b->binary));
}

TEST(Synth, DifferentSeedsDiffer) {
  ProgramSpec spec = BasicSpec();
  auto a = SynthesizeBinary(spec);
  spec.seed = 8;
  auto b = SynthesizeBinary(spec);
  EXPECT_NE(BinaryWriter::Serialize(a->binary),
            BinaryWriter::Serialize(b->binary));
}

TEST(Synth, GroundTruthRecordsPlantMetadata) {
  ProgramSpec spec = BasicSpec();
  spec.plants[0].cve_label = "CVE-0000-0001";
  auto out = SynthesizeBinary(spec);
  ASSERT_EQ(out->ground_truth.size(), 1u);
  const PlantedVuln& v = out->ground_truth[0];
  EXPECT_EQ(v.id, "x");
  EXPECT_EQ(v.sink_function, "x_handler");
  EXPECT_EQ(v.sink, "system");
  EXPECT_EQ(v.source, "getenv");
  EXPECT_EQ(v.vuln_class, VulnClass::kCommandInjection);
  EXPECT_FALSE(v.sanitized);
  EXPECT_EQ(v.cve_label, "CVE-0000-0001");
}

TEST(Synth, GroundTruthFlagsPatternRequirements) {
  ProgramSpec spec = BasicSpec();
  spec.plants[0].pattern = VulnPattern::kAliasChain;
  spec.plants[0].source = "recv";
  spec.plants[0].sink = "strcpy";
  auto out = SynthesizeBinary(spec);
  EXPECT_TRUE(out->ground_truth[0].needs_alias);
  EXPECT_TRUE(out->ground_truth[0].interprocedural);

  spec.plants[0].pattern = VulnPattern::kDispatch;
  spec.plants[0].sink = "memcpy";
  out = SynthesizeBinary(spec);
  EXPECT_TRUE(out->ground_truth[0].needs_structsim);
  EXPECT_EQ(out->ground_truth[0].sink_function, "x_impl");
}

TEST(Synth, LoopPlantRecordsLoopSink) {
  ProgramSpec spec = BasicSpec();
  spec.plants[0].pattern = VulnPattern::kLoopCopy;
  spec.plants[0].source = "recv";
  spec.plants[0].sink = "loop";
  auto out = SynthesizeBinary(spec);
  EXPECT_EQ(out->ground_truth[0].sink, "loop");
}

TEST(Synth, UnsupportedSourceFails) {
  ProgramSpec spec = BasicSpec();
  spec.plants[0].source = "gets_wild";
  auto out = SynthesizeBinary(spec);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);

  // These plants call the source as source(fd, buf, len): a source that
  // returns its bytes, or fgets (buffer first), would taint nothing the
  // plant reads while the ground truth records a flow.
  for (VulnPattern pattern :
       {VulnPattern::kAliasChain, VulnPattern::kDispatch,
        VulnPattern::kLoopCopy, VulnPattern::kCrossCallAlias}) {
    spec.plants[0].pattern = pattern;
    spec.plants[0].sink = "memcpy";
    for (const char* source : {"getenv", "websGetVar", "find_var", "fgets"}) {
      spec.plants[0].source = source;
      out = SynthesizeBinary(spec);
      ASSERT_FALSE(out.ok()) << VulnPatternName(pattern) << " " << source;
      EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
    }
    spec.plants[0].source = "recv";
    EXPECT_TRUE(SynthesizeBinary(spec).ok()) << VulnPatternName(pattern);
  }
}

TEST(Synth, ProgramIsWellFormed) {
  // Every synthesized function must survive CFG recovery (decodable,
  // branches in range).
  ProgramSpec spec = BasicSpec();
  spec.filler_functions = 60;
  auto out = SynthesizeBinary(spec);
  CfgBuilder builder(out->binary);
  auto program = builder.BuildProgram();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->functions.size(), out->binary.symbols.size());
}

TEST(Synth, FirmwareWrapsBinaryAndRootfs) {
  FirmwareSpec spec;
  spec.vendor = "V";
  spec.product = "P";
  spec.binary_path = "/bin/app";
  spec.program = BasicSpec();
  auto fw = SynthesizeFirmware(spec);
  ASSERT_TRUE(fw.ok());
  EXPECT_GE(fw->image.files.size(), 5u);
  const FirmwareFile* bin = fw->image.FindFile("/bin/app");
  ASSERT_NE(bin, nullptr);
  EXPECT_FALSE(fw->ground_truth.empty());
  EXPECT_NE(fw->image.FindFile("/etc/passwd"), nullptr);
}

TEST(PaperImages, SpecsMatchTable2Shape) {
  auto specs = PaperImageSpecs();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].firmware.vendor, "D-Link");
  EXPECT_EQ(specs[0].firmware.program.arch, Arch::kDtMips);
  EXPECT_EQ(specs[1].firmware.program.arch, Arch::kDtArm);
  EXPECT_EQ(specs[5].firmware.vendor, "Hikvision");
  // Function-count targets: full-scale images match Table II exactly.
  for (int i = 0; i < 4; ++i) {
    const PaperImageSpec& s = specs[i];
    int plant_fns = 1;
    for (const PlantSpec& p : s.firmware.program.plants) {
      plant_fns += PlantFunctionCount(p);
    }
    EXPECT_EQ(plant_fns + s.firmware.program.filler_functions,
              s.paper_table2.functions)
        << s.firmware.product;
    EXPECT_EQ(s.scale, 1.0);
  }
  // Scaled images: 1/10.
  EXPECT_EQ(specs[4].scale, 0.1);
  EXPECT_EQ(specs[5].scale, 0.1);
}

TEST(PaperImages, ZeroDayAndCveCountsMatchPaper) {
  // 13 zero-days and 8 known-vulnerability rows across the six images.
  int zero_days = 0, known = 0, sanitized = 0;
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    auto fw = BuildPaperImage(spec);
    ASSERT_TRUE(fw.ok());
    for (const PlantedVuln& v : fw->ground_truth) {
      if (v.sanitized) {
        ++sanitized;
      } else if (v.cve_label.find("unknown") != std::string::npos) {
        ++zero_days;
      } else if (!v.cve_label.empty()) {
        ++known;
      }
    }
  }
  EXPECT_EQ(zero_days, 13);
  EXPECT_EQ(known, 8);
  EXPECT_GE(sanitized, 10);
}

}  // namespace
}  // namespace dtaint
