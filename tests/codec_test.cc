// Round-trip property tests for the uplink codec layer (fed/codec.h) and
// byte-level golden-fixture pins for the wire format (fed/wire.h).
//
// The golden blobs under tests/testdata/ freeze wire version 1: if any of
// the GoldenFixture tests fail after a format change, the change must bump
// kWireVersion (and keep decoding version 1) rather than silently rewriting
// the fixtures. Regenerate on purpose with:
//   FEDSC_UPDATE_GOLDEN=1 ./codec_test

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fed/codec.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "fed/wire.h"
#include "linalg/matrix.h"

namespace fedsc {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double scale = 1.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = scale * (2.0 * rng.Uniform() - 1.0);
  }
  return m;
}

std::vector<uint8_t> MustEncode(const Matrix& samples,
                                const CodecOptions& options) {
  auto wire = EncodeUpload(samples, options);
  EXPECT_TRUE(wire.ok()) << wire.status().ToString();
  return wire.ok() ? *wire : std::vector<uint8_t>{};
}

DecodedUpload MustDecode(const std::vector<uint8_t>& wire) {
  auto decoded = DecodeUpload(wire);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? std::move(*decoded) : DecodedUpload{};
}

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/IEEE check: crc("123456789") == 0xCBF43926.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(CodecTest, RawF64RoundTripsBitForBit) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Matrix samples = RandomMatrix(24, 7, seed, 10.0);
    const std::vector<uint8_t> wire = MustEncode(samples, CodecOptions{});
    EXPECT_EQ(static_cast<int64_t>(wire.size()),
              EncodedWireBytes(24, 7, CodecOptions{}));
    const DecodedUpload decoded = MustDecode(wire);
    EXPECT_EQ(decoded.mode, CodecMode::kRawSamples);
    EXPECT_EQ(decoded.version, kWireVersion);
    ASSERT_EQ(decoded.samples.rows(), 24);
    ASSERT_EQ(decoded.samples.cols(), 7);
    EXPECT_TRUE(AllClose(decoded.samples, samples, 0.0));  // bit-exact
  }
}

TEST(CodecTest, RawF32RoundTripsToFloatPrecision) {
  const Matrix samples = RandomMatrix(9, 5, 11, 3.0);
  CodecOptions options;
  options.raw_f32 = true;
  const std::vector<uint8_t> wire = MustEncode(samples, options);
  EXPECT_EQ(static_cast<int64_t>(wire.size()),
            EncodedWireBytes(9, 5, options));
  const DecodedUpload decoded = MustDecode(wire);
  ASSERT_EQ(decoded.samples.rows(), 9);
  ASSERT_EQ(decoded.samples.cols(), 5);
  for (int64_t i = 0; i < samples.size(); ++i) {
    // Exactly the f32 rounding of the input, no more loss.
    EXPECT_EQ(decoded.samples.data()[i],
              static_cast<double>(static_cast<float>(samples.data()[i])));
  }
}

TEST(CodecTest, RawRoundTripsDegenerateShapes) {
  // Zero samples, a single scalar, and one-dimensional ambient space.
  for (auto [rows, cols] : {std::pair<int64_t, int64_t>{4, 0},
                            {1, 1},
                            {1, 6},
                            {5, 1}}) {
    const Matrix samples = RandomMatrix(rows, cols, 17);
    const DecodedUpload decoded =
        MustDecode(MustEncode(samples, CodecOptions{}));
    ASSERT_EQ(decoded.samples.rows(), rows);
    ASSERT_EQ(decoded.samples.cols(), cols);
    EXPECT_TRUE(AllClose(decoded.samples, samples, 0.0));
  }
}

TEST(CodecTest, UniformQuantErrorIsAtMostHalfStep) {
  for (int bits : {2, 8, 32}) {
    CodecOptions options;
    options.mode = CodecMode::kUniformQuant;
    options.quant_bits = bits;
    options.quant_range = 1.5;
    // Values inside the clamp range: |error| <= step / 2.
    const Matrix samples = RandomMatrix(16, 9, 100 + bits, 1.5);
    const std::vector<uint8_t> wire = MustEncode(samples, options);
    EXPECT_EQ(static_cast<int64_t>(wire.size()),
              EncodedWireBytes(16, 9, options));
    const DecodedUpload decoded = MustDecode(wire);
    EXPECT_EQ(decoded.mode, CodecMode::kUniformQuant);
    const double levels =
        static_cast<double>((uint64_t{1} << bits) - 1);
    const double half_step = 1.5 / levels;  // (2 * range / levels) / 2
    for (int64_t i = 0; i < samples.size(); ++i) {
      EXPECT_LE(std::fabs(decoded.samples.data()[i] - samples.data()[i]),
                half_step * (1.0 + 1e-12))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(CodecTest, UniformQuantMatchesTheLegacyChannelGrid) {
  // The serialized quantizer must land on exactly the in-place grid the
  // Channel has always used, so flipping a quantized channel to the wire
  // path is result-preserving (values outside the range clamp to its edge).
  CodecOptions options;
  options.mode = CodecMode::kUniformQuant;
  options.quant_bits = 8;
  options.quant_range = 1.5;
  Matrix samples = RandomMatrix(10, 4, 23, 3.0);  // exercises clamping
  const DecodedUpload decoded = MustDecode(MustEncode(samples, options));
  const double range = 1.5;
  const double levels = 255.0;
  const double step = 2.0 * range / levels;
  for (int64_t i = 0; i < samples.size(); ++i) {
    const double clamped =
        std::min(range, std::max(-range, samples.data()[i]));
    const double expected =
        -range + step * std::round((clamped + range) / step);
    EXPECT_EQ(decoded.samples.data()[i], expected) << "i=" << i;
  }
}

// The vectorizable grid kernels must reproduce the scalar reference loops
// bit for bit — including grid ties (where a naive floor(u + 0.5) would
// round differently from llround), clamped values, and non-finite inputs —
// so swapping them in changed no wire byte anywhere.
TEST(CodecTest, QuantizerKernelsMatchTheScalarReferenceBitForBit) {
  for (int bits : {2, 8, 17, 32}) {
    const double range = 1.5;
    const double levels =
        static_cast<double>((uint64_t{1} << bits) - 1);
    const double step = 2.0 * range / levels;

    std::vector<double> values;
    const Matrix noise = RandomMatrix(16, 9, 500 + bits, 3.0);
    values.assign(noise.data(), noise.data() + noise.size());
    values.push_back(std::nan(""));
    values.push_back(std::numeric_limits<double>::infinity());
    values.push_back(-std::numeric_limits<double>::infinity());
    values.push_back(range);
    values.push_back(-range);
    values.push_back(0.0);
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{7}}) {
      // As close to the k + 0.5 grid tie as doubles land.
      values.push_back((static_cast<double>(k) + 0.5) * step - range);
    }
    const int64_t count = static_cast<int64_t>(values.size());

    std::vector<uint64_t> fast(values.size());
    std::vector<uint64_t> reference(values.size());
    internal_codec::QuantizeIndices(values.data(), count, range, step,
                                    fast.data());
    internal_codec::QuantizeIndicesScalar(values.data(), count, range, step,
                                          reference.data());
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(fast[i], reference[i]) << "bits=" << bits << " i=" << i
                                       << " value=" << values[i];
    }

    // Dequant over the real indices plus deliberately out-of-grid ones
    // (corruption the CRC missed must clamp identically on both paths).
    std::vector<uint64_t> indices = reference;
    indices.push_back(static_cast<uint64_t>(levels) + 1);
    indices.push_back(~uint64_t{0});
    std::vector<double> dfast(indices.size());
    std::vector<double> dreference(indices.size());
    const int64_t dcount = static_cast<int64_t>(indices.size());
    internal_codec::DequantizeValues(indices.data(), dcount, range, step,
                                     static_cast<uint64_t>(levels),
                                     dfast.data());
    internal_codec::DequantizeValuesScalar(indices.data(), dcount, range,
                                           step,
                                           static_cast<uint64_t>(levels),
                                           dreference.data());
    for (int64_t i = 0; i < dcount; ++i) {
      ASSERT_EQ(dfast[i], dreference[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(CodecTest, UniformQuantDegenerateShapesAndWidths) {
  for (int bits : {2, 8, 32}) {
    CodecOptions options;
    options.mode = CodecMode::kUniformQuant;
    options.quant_bits = bits;
    for (auto [rows, cols] : {std::pair<int64_t, int64_t>{3, 0},
                              {1, 1},
                              {1, 7},
                              {13, 1}}) {
      const Matrix samples = RandomMatrix(rows, cols, 7, 1.5);
      const std::vector<uint8_t> wire = MustEncode(samples, options);
      EXPECT_EQ(static_cast<int64_t>(wire.size()),
                EncodedWireBytes(rows, cols, options));
      const DecodedUpload decoded = MustDecode(wire);
      ASSERT_EQ(decoded.samples.rows(), rows);
      ASSERT_EQ(decoded.samples.cols(), cols);
    }
  }
}

TEST(CodecTest, ValidatesOptions) {
  CodecOptions bad_bits;
  bad_bits.mode = CodecMode::kUniformQuant;
  bad_bits.quant_bits = 1;
  EXPECT_FALSE(ValidateCodecOptions(bad_bits).ok());
  bad_bits.quant_bits = 33;
  EXPECT_FALSE(ValidateCodecOptions(bad_bits).ok());
  CodecOptions bad_range;
  bad_range.mode = CodecMode::kUniformQuant;
  bad_range.quant_range = 0.0;
  EXPECT_FALSE(ValidateCodecOptions(bad_range).ok());
  CodecOptions bad_limits;
  bad_limits.limits.max_elements = 0;
  EXPECT_FALSE(ValidateCodecOptions(bad_limits).ok());
  EXPECT_TRUE(ValidateCodecOptions(CodecOptions{}).ok());
}

TEST(ChannelTest, WireFaultedUplinkIsRejectedAsWireCorrupt) {
  FaultPlanOptions fault_options;
  fault_options.wire_corrupt_rate = 1.0;
  auto plan = FaultPlan::Create(5, fault_options);
  ASSERT_TRUE(plan.ok());
  Channel channel(ChannelOptions{});
  RetryOptions retry;
  retry.max_attempts = 3;
  const Matrix payload = RandomMatrix(8, 3, 53);
  for (int64_t z = 0; z < 5; ++z) {
    SimClock clock;
    const UplinkOutcome outcome =
        channel.UplinkWithRetry(z, payload, *plan, retry, &clock);
    EXPECT_FALSE(outcome.delivered) << "device " << z;
    EXPECT_EQ(outcome.status.code(), StatusCode::kWireCorrupt)
        << "device " << z << ": " << outcome.status.ToString();
    // Corruption is detected on arrival, not retried into oblivion.
    EXPECT_EQ(outcome.attempts, 1);
  }
  // Every corrupted message still consumed uplink bandwidth.
  EXPECT_GT(channel.stats().uplink_wire_bytes, 0);
}

TEST(FaultPlanTest, WireFaultsAreDeterministicAndDetectable) {
  FaultPlanOptions fault_options;
  fault_options.wire_corrupt_rate = 1.0;
  auto plan = FaultPlan::Create(10, fault_options);
  ASSERT_TRUE(plan.ok());
  auto replay = FaultPlan::Create(10, fault_options);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(plan->Fingerprint(), replay->Fingerprint());

  const Matrix samples = RandomMatrix(12, 6, 61);
  const std::vector<uint8_t> clean = MustEncode(samples, CodecOptions{});
  bool saw_fault = false;
  for (int64_t z = 0; z < 10; ++z) {
    std::vector<uint8_t> damaged = clean;
    const bool mutated = plan->ApplyWireFault(z, &damaged);
    EXPECT_TRUE(mutated) << "device " << z;
    saw_fault = saw_fault || mutated;
    std::vector<uint8_t> damaged_again = clean;
    plan->ApplyWireFault(z, &damaged_again);
    EXPECT_EQ(damaged, damaged_again) << "device " << z;
    auto decoded = DecodeUpload(damaged);
    ASSERT_FALSE(decoded.ok()) << "device " << z;
    EXPECT_EQ(decoded.status().code(), StatusCode::kWireCorrupt)
        << "device " << z;
  }
  EXPECT_TRUE(saw_fault);
}

TEST(WireTest, NonzeroReservedWordsAreRejected) {
  // The header's reserved u32 (bytes 28..31) and each section header's
  // reserved u16 (bytes 2..3) must be zero. The section word has no CRC
  // over it, so only this check catches a flip there; the header word is
  // also re-checked with its CRC patched, so the CRC is not what rejects it.
  // Two sections, so a reserved word past the first section is covered too.
  // The parser accepts any section count; only the codec insists on one.
  WireHeader header;
  std::vector<WireSectionSpec> sections(2);
  for (WireSectionSpec& section : sections) {
    section.rows = 4;
    section.cols = 3;
    section.payload.assign(4 * 3 * 8, 0x5a);
  }
  header.rows = 4;
  header.cols = 3;
  auto serialized = SerializeWireMessage(header, sections);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  const std::vector<uint8_t> clean = *serialized;
  auto parsed = ParseWireMessage(clean.data(), clean.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sections.size(), 2u);

  std::vector<size_t> reserved_bytes = {28, 29, 30, 31};
  size_t offset = kWireHeaderBytes;
  for (const WireSectionView& section : parsed->sections) {
    reserved_bytes.push_back(offset + 2);
    reserved_bytes.push_back(offset + 3);
    offset += kWireSectionHeaderBytes + section.payload_bytes;
  }
  for (size_t byte : reserved_bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> damaged = clean;
      damaged[byte] ^= static_cast<uint8_t>(1u << bit);
      for (bool patch_crc : {false, true}) {
        if (patch_crc && byte < kWireHeaderBytes) {
          const uint32_t crc = Crc32(damaged.data(), 32);
          for (int i = 0; i < 4; ++i) {
            damaged[32 + i] = static_cast<uint8_t>(crc >> (8 * i));
          }
        }
        auto result = ParseWireMessage(damaged.data(), damaged.size());
        ASSERT_FALSE(result.ok()) << "byte " << byte << " bit " << bit;
        EXPECT_EQ(result.status().code(), StatusCode::kWireCorrupt)
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(FaultPlanTest, ZeroWireRatePreservesLegacySchedules) {
  // With wire_corrupt_rate at its default the pre-existing draws (dropout,
  // straggler, transient, payload, seeds) must be bit-identical to what the
  // plan produced before wire faults existed: the new draws are appended
  // after them in each device's stream.
  FaultPlanOptions fault_options;
  fault_options.dropout_rate = 0.2;
  fault_options.straggler_rate = 0.3;
  fault_options.transient_rate = 0.25;
  fault_options.corrupt_rate = 0.2;
  fault_options.seed = 77;
  auto plan = FaultPlan::Create(64, fault_options);
  ASSERT_TRUE(plan.ok());
  for (int64_t z = 0; z < 64; ++z) {
    // Recompute the legacy draw sequence by hand.
    Rng rng(MixSeeds(77, static_cast<uint64_t>(z)));
    const DeviceFaultSchedule d = plan->ScheduleFor(z);
    EXPECT_EQ(d.dropped, rng.Uniform() < fault_options.dropout_rate);
    EXPECT_EQ(d.straggler, rng.Uniform() < fault_options.straggler_rate);
    int transient = 0;
    if (rng.Uniform() < fault_options.transient_rate) {
      transient = 1 + static_cast<int>(rng.UniformInt(2));
    }
    EXPECT_EQ(d.transient_failures, transient);
    rng.Uniform();  // u_corrupt
    rng.Uniform();  // u_byzantine
    EXPECT_EQ(d.payload_seed, rng.Next());
    EXPECT_EQ(d.delay_seed, rng.Next());
    EXPECT_EQ(d.wire, WireFault::kNone);
  }
}

// ---------------------------------------------------------------------------
// Golden wire fixtures: byte-level format stability.

struct GoldenCase {
  const char* file;
  CodecOptions options;
  Matrix samples;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase raw;
    raw.file = "raw_f64_4x3.wire";
    raw.samples = RandomMatrix(4, 3, 1001, 2.0);
    cases.push_back(std::move(raw));
  }
  {
    GoldenCase f32;
    f32.file = "raw_f32_4x3.wire";
    f32.options.raw_f32 = true;
    f32.samples = RandomMatrix(4, 3, 1002, 2.0);
    cases.push_back(std::move(f32));
  }
  {
    GoldenCase quant;
    quant.file = "quant_5bit_6x4.wire";
    quant.options.mode = CodecMode::kUniformQuant;
    quant.options.quant_bits = 5;  // exercises cross-byte bit packing
    quant.options.quant_range = 1.5;
    quant.samples = RandomMatrix(6, 4, 1003, 1.5);
    cases.push_back(std::move(quant));
  }
  return cases;
}

std::string GoldenPath(const char* file) {
  return std::string(FEDSC_TESTDATA_DIR) + "/" + file;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  uint8_t buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->insert(out->end(), buffer, buffer + n);
  }
  std::fclose(f);
  return true;
}

TEST(GoldenFixtureTest, EncodingsMatchTheCommittedBytes) {
  const bool update = std::getenv("FEDSC_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& c : GoldenCases()) {
    const std::vector<uint8_t> wire = MustEncode(c.samples, c.options);
    const std::string path = GoldenPath(c.file);
    if (update) {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr) << "cannot write " << path;
      ASSERT_EQ(std::fwrite(wire.data(), 1, wire.size(), f), wire.size());
      std::fclose(f);
      continue;
    }
    std::vector<uint8_t> committed;
    ASSERT_TRUE(ReadFileBytes(path, &committed))
        << "missing golden fixture " << path
        << " (generate with FEDSC_UPDATE_GOLDEN=1)";
    // Byte-for-byte: any mismatch means the wire layout changed without a
    // version bump.
    EXPECT_EQ(wire, committed) << c.file;
  }
}

TEST(GoldenFixtureTest, CommittedBytesDecodeToTheOriginalSamples) {
  if (std::getenv("FEDSC_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "regenerating fixtures";
  }
  for (const GoldenCase& c : GoldenCases()) {
    std::vector<uint8_t> committed;
    ASSERT_TRUE(ReadFileBytes(GoldenPath(c.file), &committed)) << c.file;
    auto decoded = DecodeUpload(committed);
    ASSERT_TRUE(decoded.ok()) << c.file << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->version, kWireVersion) << c.file;
    ASSERT_EQ(decoded->samples.rows(), c.samples.rows()) << c.file;
    ASSERT_EQ(decoded->samples.cols(), c.samples.cols()) << c.file;
    if (c.options.mode == CodecMode::kRawSamples && !c.options.raw_f32) {
      EXPECT_TRUE(AllClose(decoded->samples, c.samples, 0.0)) << c.file;
    } else {
      // f32 rounding / 5-bit quantization (half-step = 1.5 / 31 ~ 0.0484).
      EXPECT_TRUE(AllClose(decoded->samples, c.samples, 0.05)) << c.file;
    }
  }
}

// basis_16x8_rank2.wire is a well-formed version-1 message from the retired
// basis+coefficients codec (codec byte 2, sections of kind 1 and 2). It stays
// committed as a rejection fixture: today's decoder must refuse it with a
// typed kWireCorrupt, never decode it or crash.
TEST(GoldenFixtureTest, RetiredBasisCodecIsRejectedAsWireCorrupt) {
  std::vector<uint8_t> committed;
  ASSERT_TRUE(ReadFileBytes(GoldenPath("basis_16x8_rank2.wire"), &committed));
  ASSERT_GE(committed.size(), kWireHeaderBytes);
  EXPECT_EQ(committed[8], 2);  // the codec byte
  auto decoded = DecodeUpload(committed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kWireCorrupt)
      << decoded.status().ToString();
}

}  // namespace
}  // namespace fedsc
