// Deterministic structure-aware decoder fuzzer for the wire format
// (fed/wire.h) and codec layer (fed/codec.h).
//
// Every iteration derives its own Rng from a fixed seed, takes a valid
// encoded upload, and damages it the way transports do — truncation, bit
// flips in header/payload/CRC, length-field lies, dtype/codec confusion,
// section-count lies, random splices — then decodes. The contract under
// test: DecodeUpload NEVER crashes, never reads out of bounds (this suite
// runs under ASAN in scripts/ci_tsan.sh), and every outcome is a typed
// Status — OK with a well-formed matrix, or kWireCorrupt. Anything else
// (another status code, a crash, a hang) is a decoder bug.
//
// >= 10k structured mutations plus pure-noise buffers, all replayable from
// the fixed kFuzzSeed.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fed/codec.h"
#include "fed/wire.h"
#include "linalg/matrix.h"

namespace fedsc {
namespace {

constexpr uint64_t kFuzzSeed = 0xF022'FEEDULL;
constexpr int kStructuredIterations = 12000;
constexpr int kRandomBufferIterations = 3000;

Matrix SeedMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 2.0 * rng.Uniform() - 1.0;
  }
  return m;
}

// A corpus of valid raw and quant encodings covering every dtype and a spread
// of shapes (including degenerate ones) so mutations explore every parser
// branch.
std::vector<std::vector<uint8_t>> BuildCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  const auto push = [&corpus](const Matrix& samples,
                              const CodecOptions& options) {
    auto wire = EncodeUpload(samples, options);
    EXPECT_TRUE(wire.ok()) << wire.status().ToString();
    if (wire.ok()) corpus.push_back(std::move(*wire));
  };
  push(SeedMatrix(8, 5, 1), CodecOptions{});
  push(SeedMatrix(1, 1, 2), CodecOptions{});
  push(SeedMatrix(3, 0, 3), CodecOptions{});
  CodecOptions f32;
  f32.raw_f32 = true;
  push(SeedMatrix(6, 4, 4), f32);
  for (int bits : {2, 8, 32}) {
    CodecOptions quant;
    quant.mode = CodecMode::kUniformQuant;
    quant.quant_bits = bits;
    push(SeedMatrix(7, 3, static_cast<uint64_t>(10 + bits)), quant);
  }
  // A larger message, so mutations also land deep inside long payloads.
  push(SeedMatrix(16, 10, 20), CodecOptions{});
  CodecOptions quant5;
  quant5.mode = CodecMode::kUniformQuant;
  quant5.quant_bits = 5;  // indices straddle byte boundaries
  push(SeedMatrix(16, 10, 21), quant5);
  return corpus;
}

// One structure-aware mutation. Mutations target the regions where parser
// bugs live: the magic, the version, the shape/count/length fields, CRCs,
// section headers, and arbitrary payload bytes.
void Mutate(Rng* rng, std::vector<uint8_t>* wire) {
  if (wire->empty()) return;
  const size_t size = wire->size();
  switch (rng->UniformInt(10)) {
    case 0:  // truncate anywhere
      wire->resize(static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(size))));
      break;
    case 1: {  // flip one bit anywhere
      const size_t pos = static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(size)));
      (*wire)[pos] ^= static_cast<uint8_t>(1u << rng->UniformInt(8));
      break;
    }
    case 2: {  // overwrite one byte in the fixed header
      const size_t span = std::min(size, kWireHeaderBytes);
      (*wire)[static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(span)))] =
          static_cast<uint8_t>(rng->UniformInt(256));
      break;
    }
    case 3:  // dtype / codec / quant_bits / num_sections confusion
      if (size > 11) {
        const size_t pos = 8 + static_cast<size_t>(rng->UniformInt(4));
        (*wire)[pos] = static_cast<uint8_t>(rng->UniformInt(256));
      }
      break;
    case 4:  // shape lies: header rows/cols
      if (size > 19) {
        const size_t pos = 12 + static_cast<size_t>(rng->UniformInt(8));
        (*wire)[pos] = static_cast<uint8_t>(rng->UniformInt(256));
      }
      break;
    case 5:  // section length-field lie
      if (size > kWireHeaderBytes + 20) {
        const size_t pos = kWireHeaderBytes + 12 +
                           static_cast<size_t>(rng->UniformInt(8));
        (*wire)[pos] = static_cast<uint8_t>(rng->UniformInt(256));
      }
      break;
    case 6: {  // CRC stomp (header or first section)
      const size_t base =
          (size > kWireHeaderBytes + 24 && rng->UniformInt(2) == 0)
              ? kWireHeaderBytes + 20
              : 32;
      for (size_t i = base; i < std::min(size, base + 4); ++i) {
        (*wire)[i] ^= 0xFF;
      }
      break;
    }
    case 7: {  // append random junk (trailing-byte detection)
      const int64_t extra = 1 + rng->UniformInt(64);
      for (int64_t i = 0; i < extra; ++i) {
        wire->push_back(static_cast<uint8_t>(rng->UniformInt(256)));
      }
      break;
    }
    case 8: {  // duplicate a chunk into a random position (splice)
      const size_t from = static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(size)));
      const size_t len = std::min(
          size - from, static_cast<size_t>(1 + rng->UniformInt(32)));
      const size_t to = static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(size)));
      const std::vector<uint8_t> chunk(wire->begin() + from,
                                       wire->begin() + from + len);
      wire->insert(wire->begin() + to, chunk.begin(), chunk.end());
      break;
    }
    default: {  // overwrite a random span with noise
      const size_t pos = static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(size)));
      const size_t len =
          std::min(size - pos, static_cast<size_t>(1 + rng->UniformInt(16)));
      for (size_t i = 0; i < len; ++i) {
        (*wire)[pos + i] = static_cast<uint8_t>(rng->UniformInt(256));
      }
      break;
    }
  }
}

// Returns true when the decode outcome honored the typed-Status contract.
bool TypedOutcome(const Result<DecodedUpload>& decoded, int64_t* ok_count,
                  int64_t* corrupt_count) {
  if (decoded.ok()) {
    // A message that still parses must carry a coherent matrix.
    const Matrix& m = decoded->samples;
    if (m.rows() < 0 || m.cols() < 0) return false;
    ++*ok_count;
    return true;
  }
  if (decoded.status().code() == StatusCode::kWireCorrupt) {
    ++*corrupt_count;
    return true;
  }
  return false;
}

TEST(WireFuzzTest, StructuredMutationsAlwaysYieldTypedStatus) {
  const std::vector<std::vector<uint8_t>> corpus = BuildCorpus();
  ASSERT_FALSE(corpus.empty());
  int64_t ok_count = 0;
  int64_t corrupt_count = 0;
  for (int iter = 0; iter < kStructuredIterations; ++iter) {
    Rng rng(MixSeeds(kFuzzSeed, static_cast<uint64_t>(iter)));
    std::vector<uint8_t> wire =
        corpus[static_cast<size_t>(rng.UniformInt(
            static_cast<int64_t>(corpus.size())))];
    const int64_t mutations = 1 + rng.UniformInt(3);
    for (int64_t m = 0; m < mutations; ++m) Mutate(&rng, &wire);
    const auto decoded = DecodeUpload(wire);
    ASSERT_TRUE(TypedOutcome(decoded, &ok_count, &corrupt_count))
        << "iteration " << iter << " produced non-typed outcome: "
        << decoded.status().ToString();
  }
  // The mutator must actually be corrupting things (and a few mutations —
  // e.g. a flipped payload bit whose section CRC is then stomped to match
  // nothing — may cancel out; surviving is fine, crashing is not).
  EXPECT_GT(corrupt_count, kStructuredIterations / 2);
  RecordProperty("decoded_ok", static_cast<int>(ok_count));
  RecordProperty("rejected_corrupt", static_cast<int>(corrupt_count));
}

TEST(WireFuzzTest, PureNoiseBuffersNeverCrashTheDecoder) {
  int64_t ok_count = 0;
  int64_t corrupt_count = 0;
  for (int iter = 0; iter < kRandomBufferIterations; ++iter) {
    Rng rng(MixSeeds(kFuzzSeed ^ 0xD15EA5EULL,
                     static_cast<uint64_t>(iter)));
    std::vector<uint8_t> noise(
        static_cast<size_t>(rng.UniformInt(512)));
    for (auto& b : noise) b = static_cast<uint8_t>(rng.UniformInt(256));
    // Sometimes graft a valid magic/version prefix so parsing gets past the
    // first checks into the interesting code.
    if (!noise.empty() && rng.UniformInt(2) == 0) {
      noise[0] = 'F';
      if (noise.size() > 1) noise[1] = 'S';
      if (noise.size() > 2) noise[2] = 'C';
      if (noise.size() > 3) noise[3] = 'W';
      if (noise.size() > 5) {
        noise[4] = 1;
        noise[5] = 0;
      }
    }
    const auto decoded = DecodeUpload(noise);
    ASSERT_TRUE(TypedOutcome(decoded, &ok_count, &corrupt_count))
        << "iteration " << iter << ": " << decoded.status().ToString();
  }
  // Random bytes essentially never form a CRC-consistent message.
  EXPECT_EQ(ok_count, 0);
  EXPECT_EQ(corrupt_count, kRandomBufferIterations);
}

TEST(WireFuzzTest, NullAndEmptyInputs) {
  int64_t ok_count = 0;
  int64_t corrupt_count = 0;
  EXPECT_TRUE(TypedOutcome(DecodeUpload(nullptr, 0), &ok_count,
                           &corrupt_count));
  EXPECT_TRUE(TypedOutcome(DecodeUpload(std::vector<uint8_t>{}), &ok_count,
                           &corrupt_count));
  const std::vector<uint8_t> magic_only = {'F', 'S', 'C', 'W'};
  EXPECT_TRUE(TypedOutcome(DecodeUpload(magic_only), &ok_count,
                           &corrupt_count));
  EXPECT_EQ(ok_count, 0);
  EXPECT_EQ(corrupt_count, 3);
}

}  // namespace
}  // namespace fedsc
