// Seeded corpus synthesis for the fleet benchmark workloads.
//
// Every workload's corpus is a pure function of (workload, seed, image
// count): the same arguments give byte-identical firmware blobs. The
// shape parameters that drive analysis cost (filler count, plant
// count, architecture, packing) are stratified — spread evenly over
// the images and then shuffled by the seed — so two seeds differ in
// which programs are generated, not in how much work they hold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/report/scoring.h"
#include "src/synth/firmware_synth.h"

namespace perfbench {

enum class Workload { kFleetScan, kDispatchRelink, kIsolatedRescan };

/// Parses "fleet_scan" | "dispatch_relink" | "isolated_rescan".
bool ParseWorkload(const std::string& name, Workload* out);

/// Where every synthesized image keeps the binary under analysis.
inline constexpr const char* kBinaryPath = "/bin/httpd";

/// Default images per corpus: at least 100, so an image-latency p90
/// has ten samples beyond it in every pass. The in-process workloads
/// scan 336 so one pass averages over enough programs that seeds agree;
/// isolated_rescan gets its spread of programs from its passes, each
/// with its own update, instead.
inline size_t DefaultImages(Workload workload) {
  return workload == Workload::kIsolatedRescan ? 112 : 336;
}

struct CorpusImage {
  std::string label;
  dtaint::FirmwareSpec spec;
  std::vector<uint8_t> blob;  // packed firmware, the scan's only input
  std::vector<dtaint::PlantedVuln> ground_truth;
  /// Known answer for extraction: false for encrypted/unknown packing.
  bool extractable = true;
};

/// Synthesizes and packs the workload's corpus. `isolated_rescan` uses
/// the `fleet_scan` shape (this is its pre-update corpus).
std::vector<CorpusImage> BuildCorpus(Workload workload, uint64_t seed,
                                     size_t images);

/// The firmware update step of `isolated_rescan`: a seeded one image in
/// four is rebuilt from a new program seed (same plants and size, new
/// code around them). Each `pass` draws its own update. Returns how many
/// images changed.
size_t ApplyUpdates(std::vector<CorpusImage>& corpus, uint64_t seed,
                    uint64_t pass);

}  // namespace perfbench
