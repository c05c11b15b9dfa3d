// Deployment artifacts: container round trips, bit-identical forward
// outputs and ADC counters between the in-process pipeline and a loaded
// artifact (ideal and non-ideal datapaths, 1 and 4 workers), proof that
// loading never recompiles plans or recalibrates, byte-identical re-save,
// a pinned digest of the fixture's analog forward, refusal of old payload
// versions, and a corruption matrix (truncations, bad magic/version, table
// abuse) that must fail with CheckError instead of bad_alloc or garbage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "artifact/format.hpp"
#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "serve/engine.hpp"

namespace tinyadc::artifact {
namespace {

/// Tiny CP-pruned resnet18 + synthetic data: real sparsity so the packed
/// plans are non-trivial, but no training (bit-identity does not depend on
/// trained weights).
struct Fixture {
  std::unique_ptr<nn::Model> model;
  data::DatasetPair data;
  xbar::MappedNetwork net;
  std::unique_ptr<msim::AnalogNetwork> analog;
  std::vector<core::LayerPruneSpec> specs;
  ArtifactMeta meta;

  explicit Fixture(msim::MsimConfig mcfg = {}) {
    nn::ModelConfig mc;
    mc.num_classes = 4;
    mc.image_size = 8;
    mc.width_mult = 0.0625F;
    model = nn::build_model("resnet18", mc);
    meta.arch = "resnet18";
    meta.model_name = model->name();
    meta.model_config = mc;

    data::SyntheticSpec spec;
    spec.num_classes = 4;
    spec.image_size = 8;
    spec.train_per_class = 8;
    spec.test_per_class = 6;
    spec.seed = 17;
    data = data::make_synthetic(spec);

    // CP-prune in place (projection only — the constraint, not the
    // training) so most crossbar columns carry ≤ 4 active rows.
    core::CrossbarDims dims{16, 16};
    specs = core::uniform_cp_specs(*model, 4, dims, {});
    auto views = model->prunable_views();
    for (std::size_t i = 0; i < views.size(); ++i) {
      Tensor m = views[i].to_matrix();
      core::project_combined({m.data(), views[i].rows, views[i].cols},
                             specs[i], dims);
      views[i].from_matrix(m);
    }

    xbar::MappingConfig cfg;
    cfg.dims = {16, 16};
    net = xbar::map_model(*model, cfg);
    analog = std::make_unique<msim::AnalogNetwork>(*model, net, mcfg);
    analog->calibrate(data.train, 8);
  }

  ArtifactInputs inputs() const {
    return ArtifactInputs{meta, *model, net, *analog, specs, {}};
  }

  /// First `n` test images as one (n, C, H, W) batch.
  Tensor batch(std::int64_t n) const {
    const Tensor& all = data.test.images;
    Tensor b({n, all.dim(1), all.dim(2), all.dim(3)});
    std::memcpy(b.data(), all.data(),
                static_cast<std::size_t>(b.numel()) * sizeof(float));
    return b;
  }

  /// Test example `i` as a standalone (C, H, W) tensor.
  Tensor image(std::int64_t i) const {
    const Tensor& all = data.test.images;
    const std::int64_t chw = all.numel() / all.dim(0);
    Tensor img({all.dim(1), all.dim(2), all.dim(3)});
    std::memcpy(img.data(), all.data() + i * chw,
                static_cast<std::size_t>(chw) * sizeof(float));
    return img;
  }
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// File offset of section `tag`'s payload, from the section table (entries
/// of char tag[8], u64 offset, u64 length after the 16-byte header); 0 if
/// the artifact has no such section.
std::size_t section_offset(const std::vector<char>& bytes, const char* tag) {
  std::uint32_t nsections = 0;
  std::memcpy(&nsections, bytes.data() + 12, sizeof(nsections));
  std::string want(tag);
  want.resize(8, '\0');
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const char* entry = bytes.data() + 16 + static_cast<std::size_t>(i) * 24;
    if (std::memcmp(entry, want.data(), want.size()) != 0) continue;
    std::uint64_t offset = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    return static_cast<std::size_t>(offset);
  }
  return 0;
}

/// Sums the analog network's per-layer ADC/DAC counters.
msim::MsimStats total_stats(const msim::AnalogNetwork& analog) {
  msim::MsimStats total;
  for (const auto& sim : analog.sims()) {
    const auto s = sim->stats_snapshot();
    total.adc_conversions += s.adc_conversions;
    total.adc_clip_events += s.adc_clip_events;
    total.dac_cycles += s.dac_cycles;
  }
  return total;
}

/// Serves the first 20 test images (cycled) through a fresh deterministic
/// engine and digests logits+labels; also returns the sims' counter delta.
std::uint64_t serve_digest(const Fixture& f, msim::AnalogNetwork& analog,
                           int workers, msim::MsimStats* delta) {
  const msim::MsimStats before = total_stats(analog);
  serve::ServeConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = 8;
  cfg.deterministic = true;
  serve::InferenceEngine engine(analog, cfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (std::int64_t i = 0; i < 20; ++i)
    futures.push_back(engine.submit(f.image(i % f.data.test.size())));
  engine.wait_idle();
  std::uint64_t h = serve::fnv1a(nullptr, 0);
  for (auto& fut : futures) {
    const auto r = fut.get();
    h = serve::fnv1a(r.logits.data(), r.logits.size() * sizeof(float), h);
    h = serve::fnv1a(&r.label, sizeof(r.label), h);
  }
  const msim::MsimStats after = total_stats(analog);
  delta->adc_conversions = after.adc_conversions - before.adc_conversions;
  delta->adc_clip_events = after.adc_clip_events - before.adc_clip_events;
  delta->dac_cycles = after.dac_cycles - before.dac_cycles;
  return h;
}

TEST(Format, SectionRoundTripAndMissingTag) {
  const std::string path = "artifact_format_tmp.tadc";
  {
    ArtifactWriter w(path);
    auto& a = w.section("ALPHA");
    a.pod(std::int64_t{-7});
    a.str("hello");
    a.vec(std::vector<float>{1.0F, 2.5F});
    w.section("BETA").pod(std::uint32_t{99});
    w.finish();
  }
  ArtifactFile file(path);
  EXPECT_EQ(file.version(), kFormatVersion);
  EXPECT_TRUE(file.has("ALPHA"));
  EXPECT_TRUE(file.has("BETA"));
  EXPECT_FALSE(file.has("GAMMA"));
  EXPECT_THROW((void)file.section("GAMMA"), CheckError);
  auto r = file.section("ALPHA");
  EXPECT_EQ(r.pod<std::int64_t>(), -7);
  EXPECT_EQ(r.str(), "hello");
  const auto v = r.vec<float>();
  ASSERT_EQ(v.size(), 2U);
  EXPECT_EQ(v[1], 2.5F);
  EXPECT_EQ(r.remaining(), 0U);
  // Reading past the end must throw, not read a neighbour section.
  EXPECT_THROW((void)r.pod<std::uint8_t>(), CheckError);
  std::remove(path.c_str());
}

TEST(Format, EmptyArraysRoundTrip) {
  // Zero-length arrays read back as empty vectors without touching the
  // (possibly null) storage of the destination — the UBSan job checks that
  // no memcpy to a null pointer happens on the way.
  const std::string path = "artifact_format_empty_tmp.tadc";
  {
    ArtifactWriter w(path);
    auto& a = w.section("EMPTY");
    a.vec(std::vector<double>{});
    a.vec_aligned(std::vector<float>{});
    a.pod(std::int32_t{5});
    w.finish();
  }
  ArtifactFile file(path);
  auto r = file.section("EMPTY");
  EXPECT_TRUE(r.vec<double>().empty());
  EXPECT_EQ(r.arr_aligned<float>().size(), 0U);
  EXPECT_EQ(r.pod<std::int32_t>(), 5);
  EXPECT_EQ(r.remaining(), 0U);
  std::remove(path.c_str());
}

TEST(Artifact, LoadedForwardAndCountersBitIdenticalNoRecompile) {
  Fixture f;
  const std::string path = "artifact_roundtrip_tmp.tadc";
  save_artifact(path, f.inputs());

  const auto plans_before = msim::AnalogLayerSim::plan_compilations();
  const auto calib_before = msim::AnalogNetwork::calibration_runs();
  Deployment dep = load_artifact(path);
  EXPECT_EQ(msim::AnalogLayerSim::plan_compilations(), plans_before)
      << "loading must not invoke the plan compiler";
  EXPECT_EQ(msim::AnalogNetwork::calibration_runs(), calib_before)
      << "loading must not invoke calibration";
  EXPECT_TRUE(dep.analog->calibrated());
  EXPECT_EQ(dep.meta.arch, "resnet18");
  ASSERT_EQ(dep.specs.size(), f.specs.size());
  for (std::size_t i = 0; i < f.specs.size(); ++i) {
    EXPECT_EQ(dep.specs[i].layer_name, f.specs[i].layer_name);
    EXPECT_EQ(dep.specs[i].cp_keep, f.specs[i].cp_keep);
  }

  // Bit-identical forward outputs and per-layer ADC/DAC counter deltas.
  const Tensor batch = f.batch(8);
  ASSERT_EQ(f.analog->sims().size(), dep.analog->sims().size());
  const msim::MsimStats ob = total_stats(*f.analog);
  const msim::MsimStats lb = total_stats(*dep.analog);
  const Tensor y0 = f.analog->forward(batch);
  const Tensor y1 = dep.analog->forward(batch);
  ASSERT_EQ(y0.numel(), y1.numel());
  EXPECT_EQ(std::memcmp(y0.data(), y1.data(),
                        static_cast<std::size_t>(y0.numel()) * sizeof(float)),
            0);
  for (std::size_t i = 0; i < f.analog->sims().size(); ++i) {
    const auto s0 = f.analog->sims()[i]->stats_snapshot();
    const auto s1 = dep.analog->sims()[i]->stats_snapshot();
    EXPECT_EQ(s0.adc_conversions, s1.adc_conversions) << "layer " << i;
    EXPECT_EQ(s0.adc_clip_events, s1.adc_clip_events) << "layer " << i;
    EXPECT_EQ(s0.dac_cycles, s1.dac_cycles) << "layer " << i;
  }
  const msim::MsimStats oa = total_stats(*f.analog);
  const msim::MsimStats la = total_stats(*dep.analog);
  EXPECT_EQ(oa.adc_conversions - ob.adc_conversions,
            la.adc_conversions - lb.adc_conversions);
  std::remove(path.c_str());
}

TEST(Artifact, ServeDigestIdenticalAcrossWorkerCountsAndLoadPath) {
  Fixture f;
  const std::string path = "artifact_serve_tmp.tadc";
  save_artifact(path, f.inputs());
  const auto plans_before = msim::AnalogLayerSim::plan_compilations();
  const auto calib_before = msim::AnalogNetwork::calibration_runs();
  Deployment dep = load_artifact(path);

  std::uint64_t digests[4];
  msim::MsimStats deltas[4];
  int slot = 0;
  for (const int workers : {1, 4}) {
    digests[slot] = serve_digest(f, *f.analog, workers, &deltas[slot]);
    ++slot;
    digests[slot] = serve_digest(f, *dep.analog, workers, &deltas[slot]);
    ++slot;
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "run " << i;
    EXPECT_EQ(deltas[i].adc_conversions, deltas[0].adc_conversions);
    EXPECT_EQ(deltas[i].adc_clip_events, deltas[0].adc_clip_events);
    EXPECT_EQ(deltas[i].dac_cycles, deltas[0].dac_cycles);
  }
  // The whole serve-from-artifact path compiled nothing and calibrated
  // nothing.
  EXPECT_EQ(msim::AnalogLayerSim::plan_compilations(), plans_before);
  EXPECT_EQ(msim::AnalogNetwork::calibration_runs(), calib_before);
  std::remove(path.c_str());
}

TEST(Artifact, DenseDatapathWithVariationRoundTrips) {
  msim::MsimConfig mcfg;
  mcfg.variation_sigma = 0.1;
  mcfg.ir_drop_alpha = 0.3;
  Fixture f(mcfg);
  const std::string path = "artifact_dense_tmp.tadc";
  save_artifact(path, f.inputs());
  Deployment dep = load_artifact(path);
  const Tensor batch = f.batch(6);
  const Tensor y0 = f.analog->forward(batch);
  const Tensor y1 = dep.analog->forward(batch);
  ASSERT_EQ(y0.numel(), y1.numel());
  EXPECT_EQ(std::memcmp(y0.data(), y1.data(),
                        static_cast<std::size_t>(y0.numel()) * sizeof(float)),
            0)
      << "restored variation draws must reproduce the programmed chip";
  std::remove(path.c_str());
}

// The fixture's analog forward on six test images, folded with every
// layer's ADC/DAC counters. Model init, synthetic data, the CP projection,
// mapping, calibration (the float GEMMs) and the analog MVMs all feed it,
// so any unintended change in their floats between commits or between the
// portable and the -march=native build shows here. A change that moves
// these numbers on purpose re-pins the constant in the same commit and
// says so; the offset-invariant GEMM edge path (ROADMAP item 5) did.
TEST(Artifact, FixtureForwardMatchesPinnedDigest) {
  Fixture f;
  const Tensor y = f.analog->forward(f.batch(6));
  std::uint64_t h = serve::fnv1a(
      y.data(), static_cast<std::size_t>(y.numel()) * sizeof(float));
  for (const auto& sim : f.analog->sims()) {
    const msim::MsimStats s = sim->stats_snapshot();
    const std::int64_t counters[3] = {s.adc_conversions, s.adc_clip_events,
                                      s.dac_cycles};
    h = serve::fnv1a(counters, sizeof(counters), h);
  }
  EXPECT_EQ(h, 0x293c6e5410434110ULL);
}

TEST(Artifact, ResaveIsByteIdentical) {
  Fixture f;
  const std::string path0 = "artifact_resave0_tmp.tadc";
  const std::string path1 = "artifact_resave1_tmp.tadc";
  save_artifact(path0, f.inputs());
  Deployment dep = load_artifact(path0);
  save_artifact(path1, dep);
  const auto b0 = slurp(path0);
  const auto b1 = slurp(path1);
  ASSERT_FALSE(b0.empty());
  EXPECT_EQ(b0.size(), b1.size());
  EXPECT_TRUE(b0 == b1) << "save → load → save must reproduce the file";
  std::remove(path0.c_str());
  std::remove(path1.c_str());
}

TEST(Artifact, CorruptionMatrixFailsWithCheckError) {
  Fixture f;
  const std::string path = "artifact_corrupt_src_tmp.tadc";
  const std::string bad = "artifact_corrupt_tmp.tadc";
  save_artifact(path, f.inputs());
  const auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64U);

  // Missing file.
  EXPECT_THROW((void)load_artifact("artifact_does_not_exist.tadc"),
               CheckError);

  // Bad magic and unsupported container version.
  {
    auto b = bytes;
    b[0] ^= 0x5A;
    spit(bad, b);
    EXPECT_THROW((void)load_artifact(bad), CheckError);
  }
  {
    auto b = bytes;
    b[8] = 99;  // u32 version at offset 8
    spit(bad, b);
    EXPECT_THROW((void)load_artifact(bad), CheckError);
  }

  // Truncation at every section boundary (and inside every payload): walk
  // the section table for the offsets.
  std::uint32_t nsections = 0;
  std::memcpy(&nsections, bytes.data() + 12, sizeof(nsections));
  ASSERT_GE(nsections, 5U);
  std::vector<std::size_t> cuts = {0, 7, 8, 12, 15};
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const std::size_t entry = 16 + static_cast<std::size_t>(i) * 24;
    std::uint64_t offset = 0, length = 0;
    std::memcpy(&offset, bytes.data() + entry + 8, sizeof(offset));
    std::memcpy(&length, bytes.data() + entry + 16, sizeof(length));
    cuts.push_back(static_cast<std::size_t>(offset));
    cuts.push_back(static_cast<std::size_t>(offset + length / 2));
    cuts.push_back(static_cast<std::size_t>(offset + length) - 1);
  }
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    spit(bad, std::vector<char>(bytes.begin(),
                                bytes.begin() + static_cast<std::ptrdiff_t>(
                                                    cut)));
    EXPECT_THROW((void)load_artifact(bad), CheckError)
        << "truncation at byte " << cut << " must raise CheckError";
  }

  // A section length pointing past the end of the file.
  {
    auto b = bytes;
    const std::uint64_t absurd = bytes.size() * 16;
    std::memcpy(b.data() + 16 + 16, &absurd, sizeof(absurd));
    spit(bad, b);
    EXPECT_THROW((void)load_artifact(bad), CheckError);
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix over the v4 aligned SoA plan streams: tamper one field
// at a time in a single layer's serialized payload and require CheckError
// from the stream validators (never garbage execution or bad_alloc). Also
// covers the alignment-specific failure modes: non-zero padding bytes and
// a mapped payload whose pointer is 8- but not 64-byte aligned.

TEST(ArtifactVersioning, CorruptV4PlanStreamsRaiseCheckError) {
  Fixture f;
  const auto& layer = f.net.layers.front();
  msim::MsimConfig mcfg;  // defaults: ideal datapath
  msim::AnalogLayerSim sim(layer, mcfg);
  SectionWriter w;
  sim.serialize(w);
  const std::vector<char> base = w.bytes();

  // v4 layer payload (ideal fixture: no variation blocks): i32 adc_bits,
  // u8 plan_ideal, u64 nvar, u64 npairs, then seven aligned
  // arrays — u64 count, zero pad to the next 64-byte boundary, raw data —
  // out i64, seg u64, row/mag i32, level i32, var f32, denom f64. A
  // standalone payload starts at file offset 0, so payload-relative
  // padding equals the file-relative padding the writer laid down.
  auto read_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, base.data() + off, sizeof(v));
    return v;
  };
  std::size_t pos = 4 + 1 + 8;
  const std::size_t off_npairs = pos;
  const std::uint64_t npairs = read_u64(off_npairs);
  ASSERT_GE(npairs, 1U);
  pos += 8;
  // Walks one aligned array with the writer's own arithmetic: verify the
  // count field, skip the pad, return the data offset, advance past the
  // elements.
  auto aligned_array = [&](std::uint64_t count, std::size_t elem) {
    EXPECT_EQ(read_u64(pos), count);
    pos = (pos + 8 + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
    const std::size_t off = pos;
    pos += static_cast<std::size_t>(count) * elem;
    return off;
  };
  const std::size_t off_out = aligned_array(npairs, 8);
  const std::size_t off_seg = aligned_array(2 * npairs + 1, 8);
  const std::uint64_t slots = read_u64(pos);
  ASSERT_GE(slots, 2U);
  const auto slices = static_cast<std::uint64_t>(layer.config.slices());
  const std::size_t off_row = aligned_array(slots, 4);
  const std::size_t off_mag = aligned_array(slots, 4);
  const std::size_t off_level = aligned_array(slots * slices, 4);
  const std::size_t off_var = aligned_array(slots * slices, 4);
  const std::size_t off_denom = aligned_array(slots, 8);
  ASSERT_EQ(pos, base.size()) << "layout walk must land on the payload end";

  auto expect_throws = [&](const std::vector<char>& bytes, const char* what) {
    SectionReader r(bytes.data(), bytes.size(), "PLANS");
    EXPECT_THROW((void)msim::AnalogLayerSim::deserialize(layer, mcfg, r),
                 CheckError)
        << what;
  };
  auto tampered = [&](std::size_t off, const auto& v) {
    auto b = base;
    std::memcpy(b.data() + off, &v, sizeof(v));
    return b;
  };

  // Sanity: the untampered payload deserializes and executes.
  {
    SectionReader r(base.data(), base.size(), "PLANS");
    auto restored = msim::AnalogLayerSim::deserialize(layer, mcfg, r);
    EXPECT_EQ(r.remaining(), 0U);
    std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 3);
    EXPECT_EQ(restored->mvm(x), sim.mvm(x));
  }

  expect_throws(tampered(off_out, std::int64_t{-2}),
                "negative output column");
  expect_throws(tampered(off_out, layer.cols + 7),
                "output column past the layer");
  expect_throws(tampered(off_seg + 8, std::uint64_t{0xFFFFFFFFU}),
                "non-monotone segment table");
  expect_throws(tampered(off_row, std::int32_t{-1}),
                "negative activation row");
  expect_throws(
      tampered(off_row, static_cast<std::int32_t>(layer.rows + 13)),
      "activation row past the layer");
  expect_throws(tampered(off_mag, std::int32_t{0}), "zero magnitude");
  expect_throws(tampered(off_level, std::int32_t{1 << layer.config.cell_bits}),
                "cell level past the MLC range");
  {
    // An in-range level that no longer recomposes to the stored magnitude.
    std::int32_t lv = 0;
    std::memcpy(&lv, base.data() + off_level, sizeof(lv));
    expect_throws(tampered(off_level,
                           lv == 0 ? std::int32_t{1} : std::int32_t{0}),
                  "slice/magnitude cross-check");
  }
  expect_throws(tampered(off_var, -1.0F), "negative variation factor");
  expect_throws(tampered(off_denom, 0.0), "zero IR divisor");
  // The compiler writes divisors 1 + α·depth·load ≥ 1; a smaller one
  // could make a hoisted level·var/denom infinite.
  expect_throws(tampered(off_denom, 1e-300), "IR divisor below 1");
  expect_throws(tampered(off_denom, 0.999), "IR divisor below 1");
  // An ideal plan stores exactly 1.0 in both streams; a clipping ideal plan
  // runs the general lanes, which would multiply and divide by them.
  expect_throws(tampered(off_var, 1.5F), "variation without variation_sigma");
  expect_throws(tampered(off_denom, 2.0), "IR divisor without ir_drop_alpha");
  // Truncation inside each stream: the element-budget guard must fire.
  for (const std::size_t cut : {off_row + 3, off_level + 5, off_denom + 1})
    expect_throws(std::vector<char>(base.begin(),
                                    base.begin() +
                                        static_cast<std::ptrdiff_t>(cut)),
                  "truncated stream");

  // A non-zero byte inside the out array's alignment padding — the
  // reader verifies every pad byte, so silent payload shifts cannot hide.
  ASSERT_GT(off_out, off_npairs + 16) << "out array must have a pad region";
  expect_throws(tampered(off_out - 1, std::uint8_t{1}),
                "non-zero alignment padding");

  // Mapped mode with a payload that lands 8- but not 64-byte aligned (a
  // tampered section offset): the reader must refuse to hand out the
  // misaligned span. The keeper marks the buffer as mapped; the pad walk
  // still matches the writer's (abs_offset 0), so the pointer check is
  // exactly what fires.
  {
    std::vector<char> arena(base.size() + 2 * kPayloadAlign);
    const auto addr = reinterpret_cast<std::uintptr_t>(arena.data());
    const std::size_t skew =
        (kPayloadAlign - addr % kPayloadAlign) % kPayloadAlign + 8;
    std::memcpy(arena.data() + skew, base.data(), base.size());
    const auto keeper = std::make_shared<int>(0);
    SectionReader r(arena.data() + skew, base.size(), "PLANS",
                    /*abs_offset=*/0, keeper);
    EXPECT_THROW((void)msim::AnalogLayerSim::deserialize(layer, mcfg, r),
                 CheckError)
        << "misaligned mapped payload must be rejected";
  }
}

// Each section reads exactly the payload version its writer emits: a
// fresh save with its PLANS version word patched to 1, 2 or 3, or its
// MAPPING version word patched to 1, must fail through both load paths
// with a CheckError that names the version.
TEST(ArtifactVersioning, OldPayloadVersionsAreRefused) {
  Fixture f;
  const std::string path = "artifact_old_version_src_tmp.tadc";
  const std::string bad = "artifact_old_version_tmp.tadc";
  save_artifact(path, f.inputs());
  const auto bytes = slurp(path);
  struct Case {
    const char* tag;
    std::uint32_t version;
  };
  for (const Case c : {Case{"PLANS", 1}, Case{"PLANS", 2}, Case{"PLANS", 3},
                       Case{"MAPPING", 1}}) {
    const std::size_t off = section_offset(bytes, c.tag);
    ASSERT_GT(off, 0U) << c.tag;
    auto b = bytes;
    std::memcpy(b.data() + off, &c.version, sizeof(c.version));
    spit(bad, b);
    const std::string want = std::string(c.tag) + " section version " +
                             std::to_string(c.version);
    for (const bool mapped : {false, true}) {
      try {
        if (mapped)
          (void)load_artifact_mapped(bad);
        else
          (void)load_artifact(bad);
        ADD_FAILURE() << want << " loaded (mapped=" << mapped << ")";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << "mapped=" << mapped << ": " << e.what();
      }
    }
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// Zero-copy mapped loading: load_artifact_mapped must be observably
// zero-copy (spans point into the mapping) yet bit-identical — outputs,
// per-layer counters, serve digests — to the copied load path, with and
// without async section streaming, and must never compile or calibrate.

TEST(Artifact, MappedLoadBitIdenticalToCopiedLoad) {
  Fixture f;
  const std::string path = "artifact_mapped_tmp.tadc";
  save_artifact(path, f.inputs());

  const auto plans_before = msim::AnalogLayerSim::plan_compilations();
  const auto calib_before = msim::AnalogNetwork::calibration_runs();
  Deployment copied = load_artifact(path);
  Deployment mapped = load_artifact_mapped(path);
  Deployment streamed = load_artifact_mapped(path, /*async_stream=*/true);
  streamed.finish_streaming();
  EXPECT_EQ(msim::AnalogLayerSim::plan_compilations(), plans_before)
      << "no load path may invoke the plan compiler";
  EXPECT_EQ(msim::AnalogNetwork::calibration_runs(), calib_before);
  ASSERT_NE(mapped.mapped, nullptr);
  EXPECT_EQ(copied.mapped, nullptr);
  EXPECT_GT(streamed.load_phases.stream_ms, 0.0)
      << "finish_streaming must record the streamer's elapsed time";
  EXPECT_GT(mapped.load_phases.map_ms + mapped.load_phases.validate_ms, 0.0);

  // Observable zero-copy: the mapped deployment's crossbar code grids are
  // borrowed views into the mapping, not owned copies.
  const char* lo = mapped.mapped->data();
  const char* hi = lo + mapped.mapped->size();
  const auto& q = mapped.mapping->layers.front().blocks.front().q;
  ASSERT_FALSE(q.empty());
  EXPECT_FALSE(q.owned()) << "mapped MAPPING grids must be borrowed spans";
  const char* qp = reinterpret_cast<const char*>(q.data());
  EXPECT_TRUE(qp >= lo && qp < hi) << "span must point into the mapping";
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(qp) % kPayloadAlign, 0U);
  EXPECT_TRUE(copied.mapping->layers.front().blocks.front().q.owned());

  // Bit-identical forward outputs and per-layer counter deltas across all
  // three load paths.
  const Tensor batch = f.batch(8);
  const Tensor y0 = copied.analog->forward(batch);
  const Tensor y1 = mapped.analog->forward(batch);
  const Tensor y2 = streamed.analog->forward(batch);
  ASSERT_EQ(y0.numel(), y1.numel());
  ASSERT_EQ(y0.numel(), y2.numel());
  const auto nbytes = static_cast<std::size_t>(y0.numel()) * sizeof(float);
  EXPECT_EQ(std::memcmp(y0.data(), y1.data(), nbytes), 0)
      << "mapped forward must be byte-identical to copied";
  EXPECT_EQ(std::memcmp(y0.data(), y2.data(), nbytes), 0)
      << "streamed forward must be byte-identical to copied";
  ASSERT_EQ(copied.analog->sims().size(), mapped.analog->sims().size());
  for (std::size_t i = 0; i < copied.analog->sims().size(); ++i) {
    const auto s0 = copied.analog->sims()[i]->stats_snapshot();
    const auto s1 = mapped.analog->sims()[i]->stats_snapshot();
    const auto s2 = streamed.analog->sims()[i]->stats_snapshot();
    EXPECT_EQ(s0.adc_conversions, s1.adc_conversions) << "layer " << i;
    EXPECT_EQ(s0.adc_clip_events, s1.adc_clip_events) << "layer " << i;
    EXPECT_EQ(s0.dac_cycles, s1.dac_cycles) << "layer " << i;
    EXPECT_EQ(s0.adc_conversions, s2.adc_conversions) << "layer " << i;
    EXPECT_EQ(s0.dac_cycles, s2.dac_cycles) << "layer " << i;
  }
  std::remove(path.c_str());
}

TEST(Artifact, MappedServeDigestIdenticalAcrossWorkerCounts) {
  Fixture f;
  const std::string path = "artifact_mapped_serve_tmp.tadc";
  save_artifact(path, f.inputs());
  const auto plans_before = msim::AnalogLayerSim::plan_compilations();
  const auto calib_before = msim::AnalogNetwork::calibration_runs();
  Deployment copied = load_artifact(path);
  Deployment mapped = load_artifact_mapped(path);
  Deployment streamed = load_artifact_mapped(path, /*async_stream=*/true);
  streamed.finish_streaming();

  std::uint64_t digests[6];
  msim::MsimStats deltas[6];
  int slot = 0;
  for (const int workers : {1, 4})
    for (msim::AnalogNetwork* analog :
         {copied.analog.get(), mapped.analog.get(), streamed.analog.get()}) {
      digests[slot] = serve_digest(f, *analog, workers, &deltas[slot]);
      ++slot;
    }
  for (int i = 1; i < 6; ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "run " << i;
    EXPECT_EQ(deltas[i].adc_conversions, deltas[0].adc_conversions) << i;
    EXPECT_EQ(deltas[i].adc_clip_events, deltas[0].adc_clip_events) << i;
    EXPECT_EQ(deltas[i].dac_cycles, deltas[0].dac_cycles) << i;
  }
  EXPECT_EQ(msim::AnalogLayerSim::plan_compilations(), plans_before);
  EXPECT_EQ(msim::AnalogNetwork::calibration_runs(), calib_before);
  std::remove(path.c_str());
}

TEST(Artifact, MappedLoadResaveIsByteIdentical) {
  Fixture f;
  const std::string path0 = "artifact_mapped_resave0_tmp.tadc";
  const std::string path1 = "artifact_mapped_resave1_tmp.tadc";
  save_artifact(path0, f.inputs());
  Deployment dep = load_artifact_mapped(path0, /*async_stream=*/true);
  dep.finish_streaming();
  save_artifact(path1, dep);
  const auto b0 = slurp(path0);
  const auto b1 = slurp(path1);
  ASSERT_FALSE(b0.empty());
  EXPECT_EQ(b0.size(), b1.size());
  EXPECT_TRUE(b0 == b1)
      << "save → mapped load → save must reproduce the file byte-for-byte";
  std::remove(path0.c_str());
  std::remove(path1.c_str());
}

TEST(Artifact, MappedLoadRejectsMisalignedSectionOffset) {
  Fixture f;
  const std::string path = "artifact_misaligned_src_tmp.tadc";
  const std::string bad = "artifact_misaligned_tmp.tadc";
  save_artifact(path, f.inputs());
  auto bytes = slurp(path);
  // Shift the PLANS table entry's offset by 8: still 8-byte aligned (the
  // container minimum, so the table parses) but no longer 64 — both load
  // paths must fail with CheckError, never misread or hand out a
  // misaligned span.
  std::uint32_t nsections = 0;
  std::memcpy(&nsections, bytes.data() + 12, sizeof(nsections));
  bool patched = false;
  for (std::uint32_t i = 0; i < nsections; ++i) {
    char* entry = bytes.data() + 16 + static_cast<std::size_t>(i) * 24;
    if (std::memcmp(entry, "PLANS\0\0\0", 8) != 0) continue;
    std::uint64_t offset = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    ASSERT_EQ(offset % kPayloadAlign, 0U);
    offset += 8;
    std::memcpy(entry + 8, &offset, sizeof(offset));
    patched = true;
  }
  ASSERT_TRUE(patched);
  spit(bad, bytes);
  EXPECT_THROW((void)load_artifact_mapped(bad), CheckError);
  EXPECT_THROW((void)load_artifact(bad), CheckError);
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace tinyadc::artifact
