#include "perfbench/corpus.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/firmware/packer.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using dtaint::Arch;
using dtaint::Packing;
using dtaint::PlantSpec;
using dtaint::Rng;
using dtaint::VulnPattern;

struct Vendor {
  const char* vendor;
  const char* product;
};
constexpr Vendor kVendors[] = {
    {"D-Link", "DIR-505"},  {"D-Link", "DIR-868L"}, {"Netgear", "R7000"},
    {"Netgear", "WNR2000"}, {"Tenda", "AC15"},      {"TP-Link", "WR841N"},
    {"Foscam", "C1"},       {"Zyxel", "NBG6817"},
};

// Source/sink pairs of the corpus_scan fleet for the direct and wrapper
// patterns. The alias-chain plant hands the source a buffer to fill,
// so it takes only the buffer-filling sources (recv, read): with a
// pointer-returning source (getenv, websGetVar) the synthesized code
// has no source-to-sink flow although the ground truth plants one.
// Loop copies read a buffer too.
constexpr std::pair<const char*, const char*> kCombos[] = {
    {"recv", "strcpy"}, {"read", "memcpy"}, {"getenv", "system"},
    {"websGetVar", "system"},
};
constexpr size_t kBufferCombos = 2;  // kCombos[0..1] fill a buffer
constexpr VulnPattern kFleetPatterns[] = {
    VulnPattern::kDirect, VulnPattern::kWrapper, VulnPattern::kAliasChain,
    VulnPattern::kLoopCopy};

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

/// `count` values spread evenly over the integers [lo, hi], in seeded
/// order.
std::vector<int> Stratified(size_t count, int lo, int hi, Rng& rng) {
  std::vector<int> values(count);
  const size_t span = static_cast<size_t>(hi - lo + 1);
  for (size_t i = 0; i < count; ++i) {
    values[i] = lo + static_cast<int>(i * span / count);
  }
  Shuffle(values, rng);
  return values;
}

PlantSpec FleetPlant(const std::string& id, Rng& rng) {
  PlantSpec plant;
  plant.id = id;
  plant.pattern = kFleetPatterns[rng.Below(std::size(kFleetPatterns))];
  if (plant.pattern == VulnPattern::kLoopCopy) {
    plant.source = "recv";
    plant.sink = "loop";
  } else {
    const size_t choices = plant.pattern == VulnPattern::kAliasChain
                               ? kBufferCombos
                               : std::size(kCombos);
    const auto& combo = kCombos[rng.Below(choices)];
    plant.source = combo.first;
    plant.sink = combo.second;
  }
  return plant;
}

PlantSpec DispatchPlant(const std::string& id) {
  PlantSpec plant;
  plant.id = id;
  plant.pattern = VulnPattern::kDispatch;
  plant.source = "recv";
  plant.sink = "memcpy";
  return plant;
}

/// Adds `twins` sanitized copies of the image's vulnerable plants.
void AddTwins(std::vector<PlantSpec>& plants, int twins, Rng& rng) {
  size_t vulnerable = plants.size();
  for (int t = 0; t < twins; ++t) {
    PlantSpec twin = plants[rng.Below(vulnerable)];
    twin.id = "s";
    twin.id += std::to_string(t);
    twin.sanitized = true;
    plants.push_back(std::move(twin));
  }
}

void Synthesize(CorpusImage& image) {
  auto fw = dtaint::SynthesizeFirmware(image.spec);
  if (!fw.ok()) {
    throw std::runtime_error("synthesis failed for " + image.label + ": " +
                             fw.status().ToString());
  }
  image.blob = dtaint::FirmwarePacker::Pack(fw->image);
  image.ground_truth = std::move(fw->ground_truth);
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "fleet_scan") {
    *out = Workload::kFleetScan;
  } else if (name == "dispatch_relink") {
    *out = Workload::kDispatchRelink;
  } else if (name == "isolated_rescan") {
    *out = Workload::kIsolatedRescan;
  } else {
    return false;
  }
  return true;
}

std::vector<CorpusImage> BuildCorpus(Workload workload, uint64_t seed,
                                     size_t images) {
  const bool dispatch = workload == Workload::kDispatchRelink;
  Rng rng(seed * 0x100000001B3ULL + (dispatch ? 2 : 1));
  std::vector<int> fillers = Stratified(images, 30, 90, rng);
  std::vector<int> arch = Stratified(images, 0, 1, rng);
  // Packing class: 0 = unextractable (one image in eight), else
  // plain/xor. Dispatch images are all extractable so every one of
  // them reaches the relink.
  std::vector<int> packing(images);
  for (size_t i = 0; i < images; ++i) {
    packing[i] = !dispatch && i < images / 8 ? 0 : 1 + static_cast<int>(i % 2);
  }
  Shuffle(packing, rng);
  std::vector<int> vulnerable = Stratified(images, dispatch ? 3 : 1, 3, rng);
  std::vector<int> twins = Stratified(images, 1, 2, rng);

  std::vector<CorpusImage> corpus(images);
  int unextractable = 0;
  for (size_t i = 0; i < images; ++i) {
    CorpusImage& image = corpus[i];
    const Vendor& vendor = kVendors[rng.Below(std::size(kVendors))];
    image.label = std::string(vendor.vendor) + " " + vendor.product + " #" +
                  std::to_string(i);
    dtaint::FirmwareSpec& spec = image.spec;
    spec.vendor = vendor.vendor;
    spec.product = vendor.product;
    spec.version = "1." + std::to_string(rng.Below(9));
    spec.release_year = static_cast<uint16_t>(rng.Range(2012, 2016));
    if (packing[i] == 0) {
      spec.packing = unextractable++ % 2 ? Packing::kUnknown
                                         : Packing::kEncrypted;
      image.extractable = false;
    } else {
      spec.packing = packing[i] == 1 ? Packing::kPlain : Packing::kXor;
    }
    spec.binary_path = kBinaryPath;
    spec.program.name = "httpd";
    spec.program.arch = arch[i] ? Arch::kDtMips : Arch::kDtArm;
    spec.program.seed = rng.Next();
    spec.program.filler_functions = fillers[i];
    for (int v = 0; v < vulnerable[i]; ++v) {
      std::string id = "p";
      id += std::to_string(v);
      spec.program.plants.push_back(dispatch ? DispatchPlant(id)
                                             : FleetPlant(id, rng));
    }
    AddTwins(spec.program.plants, dispatch ? 1 : twins[i], rng);
    Synthesize(image);
  }
  return corpus;
}

size_t ApplyUpdates(std::vector<CorpusImage>& corpus, uint64_t seed,
                    uint64_t pass) {
  Rng rng(seed * 0x100000001B3ULL + 3 + 0x10000 * pass);
  // Stratified like the corpus: rank the images by program size and
  // update one seeded image out of every four consecutive ranks, so
  // the updated quarter weighs the same whatever the seed.
  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corpus[a].spec.program.filler_functions <
           corpus[b].spec.program.filler_functions;
  });
  size_t updates = 0;
  for (size_t group = 0; group + 4 <= order.size(); group += 4) {
    CorpusImage& image = corpus[order[group + rng.Below(4)]];
    image.spec.program.seed = rng.Next();
    image.spec.version += ".u" + std::to_string(pass);
    Synthesize(image);
    ++updates;
  }
  return updates;
}

}  // namespace perfbench
