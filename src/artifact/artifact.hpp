// Deployment-artifact assembly: one `.tadc` file carrying everything a
// serving process needs to cold-start in milliseconds.
//
// Sections (see format.hpp for the container layout):
//
//   META     architecture name + ModelConfig — enough to rebuild the
//            layer graph with nn::build_model (weights come separately)
//   WEIGHTS  trained parameters + buffers (Model::serialize)
//   PRUNE    prune specs and structural selections (optional: absent for
//            dense deployments)
//   MAPPING  the full crossbar mapping — config, quantizers, reform index
//            maps, block grids, quantized codes, occupancy census
//   PLANS    MsimConfig + per-layer compiled execution state (ADC sizing,
//            variation draws, sparsity-packed plans)
//   CALIB    activation-calibration state (quantizer ranges, signed flags)
//
// load_artifact() reconstructs the whole deployment *without* invoking the
// pruning pipeline, the plan compiler or the calibration pass — verified
// by AnalogLayerSim::plan_compilations() / AnalogNetwork::calibration_runs()
// staying flat across a load. A loaded deployment produces bit-identical
// forward outputs and ADC counters to the in-process pipeline it was saved
// from, and re-saving it reproduces the input file byte for byte.
//
// load_artifact_mapped() is the zero-copy variant: the file is mmap()ed
// once and the hot payloads — the PLANS SoA streams and the MAPPING code
// grids — become read-only spans over the mapping instead of copies (the
// Deployment's MappedFile handle pins the pages; see DESIGN.md §14). With
// async streaming the cold sections (WEIGHTS, PRUNE, CALIB) are paged in by
// a background thread while the main thread validates the hot ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/mmap_file.hpp"
#include "core/prune_spec.hpp"
#include "msim/analog_network.hpp"
#include "nn/model.hpp"
#include "nn/models.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::artifact {

/// Model-identity metadata (the META section).
struct ArtifactMeta {
  std::string arch;        ///< zoo name for nn::build_model
  std::string model_name;  ///< Model::name() of the deployed instance
  nn::ModelConfig model_config;
};

/// Everything save_artifact() snapshots. All references must outlive the
/// call; `analog` must be calibrated.
struct ArtifactInputs {
  ArtifactMeta meta;
  nn::Model& model;  ///< non-const: serialization walks live named views
  const xbar::MappedNetwork& mapping;
  const msim::AnalogNetwork& analog;
  /// Optional pruning provenance (empty for dense deployments).
  std::vector<core::LayerPruneSpec> specs;
  std::vector<core::StructuralSelection> selections;
};

/// Writes a deployment artifact to `path`.
void save_artifact(const std::string& path, const ArtifactInputs& inputs);

/// Background page-in of artifact sections (the io stage of a staged
/// cold-start): advises the kernel that the extents will be needed and then
/// touches one byte per page, so the first forward pass never stalls on
/// major faults for the cold sections. Purely read-side; joining (wait_ms
/// or destruction) is the only synchronization a caller needs.
class SectionStreamer {
 public:
  SectionStreamer(
      std::shared_ptr<MappedFile> map,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> extents);
  ~SectionStreamer();
  SectionStreamer(const SectionStreamer&) = delete;
  SectionStreamer& operator=(const SectionStreamer&) = delete;

  /// Joins the staging thread (idempotent) and returns its wall time in ms.
  double wait_ms();

 private:
  std::shared_ptr<MappedFile> map_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents_;
  double elapsed_ms_ = 0.0;
  std::thread thread_;
};

/// Identity of the artifact file a deployment was loaded from — the
/// version metadata a fleet registry surfaces so operators can tell which
/// bytes a tenant is actually serving after a hot-swap. The content digest
/// covers the hot sections only (META, MAPPING, PLANS): they are validated
/// eagerly by both load paths anyway, they pin the model identity (weights
/// reach inference through the quantized MAPPING codes and compiled PLANS),
/// and skipping the cold sections keeps the mapped load's async streaming
/// overlap intact (digesting the whole file would fault every page in
/// synchronously).
struct ArtifactInfo {
  std::string path;                     ///< file the deployment came from
  std::uint32_t container_version = 0;  ///< format.hpp container version
  std::uint64_t file_bytes = 0;         ///< total artifact size
  std::uint64_t content_digest = 0;     ///< FNV-1a over META+MAPPING+PLANS
};

/// Wall-clock breakdown of an artifact load (all milliseconds).
struct LoadPhases {
  double map_ms = 0.0;       ///< file open + mmap + container table parse
  double validate_ms = 0.0;  ///< section validation + engine construction
  double stream_ms = 0.0;    ///< async staging thread (finish_streaming())
};

/// A deployment reconstructed from an artifact. The members reference each
/// other (the analog network hooks the model and reads the mapping), so
/// they live behind stable unique_ptrs and the struct is move-only.
struct Deployment {
  ArtifactMeta meta;
  std::vector<core::LayerPruneSpec> specs;
  std::vector<core::StructuralSelection> selections;
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<xbar::MappedNetwork> mapping;
  std::unique_ptr<msim::AnalogNetwork> analog;
  /// Non-null for mapped loads: pins the pages every borrowed plan/mapping
  /// span points into. (The spans also hold their own keeper references,
  /// so the handle here is observability + explicit lifetime, not the only
  /// thing keeping the mapping alive.)
  std::shared_ptr<MappedFile> mapped;
  /// Live async section streamer, if the load requested one. Destroyed
  /// (joined) with the deployment; finish_streaming() collects it earlier.
  std::shared_ptr<SectionStreamer> streamer;
  LoadPhases load_phases;
  /// Provenance of the file this deployment was loaded from; default
  /// (empty path, zero digest) when the deployment was built in-process.
  ArtifactInfo info;

  /// Joins the async streamer if one is still running and records its wall
  /// time in load_phases.stream_ms. No-op for copied/sync loads.
  void finish_streaming();
};

/// Loads a deployment artifact: rebuilds the model from META, restores the
/// weights, mapping, compiled plans and calibration state. Never touches
/// training, pruning, plan-compilation or calibration code paths.
Deployment load_artifact(const std::string& path);

/// Zero-copy load: mmap()s the artifact and restores the PLANS streams and
/// MAPPING code grids (their 64-byte-aligned arrays) as read-only spans
/// over the mapping. With `async_stream` the cold
/// sections (WEIGHTS, PRUNE, CALIB) are paged in by a background thread
/// while the hot sections validate on the calling thread. Outputs, ADC
/// counters and serve digests are bit-identical to load_artifact(), and no
/// plan compilation or calibration runs either way.
Deployment load_artifact_mapped(const std::string& path,
                                bool async_stream = false);

/// Re-serializes a loaded deployment. save → load → save is byte-identical,
/// which is the round-trip guarantee tests/artifact_test.cpp enforces.
void save_artifact(const std::string& path, const Deployment& deployment);

}  // namespace tinyadc::artifact
