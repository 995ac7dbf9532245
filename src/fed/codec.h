// Uplink codecs over the wire format (fed/wire.h): how a device's sample
// matrix becomes the byte stream a transport would carry.
//
// Two modes, picked by CodecOptions::mode (a user-facing bytes/accuracy
// trade-off; the encoding is a pure function of the options and the data,
// never of timing):
//
//   kRawSamples   — the paper's uplink: every D-dim sample column shipped
//                   verbatim (f64 bit-exactly; optionally f32).
//   kUniformQuant — Section IV-E's q-bit uniform quantizer, but *actually
//                   serialized*: indices packed at quant_bits bits each, so
//                   the measured wire bytes equal what a real transport
//                   would carry.
//
// EncodeUpload / DecodeUpload round-trip exactly for kRawSamples (bit for
// bit); kUniformQuant incurs at most a half-step error inside the clamp
// range (tests/codec_test.cc sweeps both across dtypes, degenerate shapes,
// and bit widths). DecodeUpload returns typed Status on ANY malformed
// input — never crashing or reading out of bounds (tests/wire_fuzz_test.cc).

#ifndef FEDSC_FED_CODEC_H_
#define FEDSC_FED_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "fed/wire.h"
#include "linalg/matrix.h"

namespace fedsc {

enum class CodecMode : uint8_t {
  kRawSamples = 0,
  kUniformQuant = 1,
};

const char* CodecModeName(CodecMode mode);

struct CodecOptions {
  CodecMode mode = CodecMode::kRawSamples;
  // kUniformQuant: bits per value (in [2, 32]) and the symmetric clamp
  // range, i.e. Section IV-E's q and the grid's half-width.
  int quant_bits = 8;
  double quant_range = 1.5;
  // kRawSamples: ship f32 instead of f64 (halves payload, lossy rounding).
  bool raw_f32 = false;
  // Decoder resource bounds (see WireLimits).
  WireLimits limits;
};

Status ValidateCodecOptions(const CodecOptions& options);

struct DecodedUpload {
  Matrix samples;
  // The codec the header records.
  CodecMode mode = CodecMode::kRawSamples;
  uint16_t version = kWireVersion;
};

// Serializes `samples` under `options` into a self-contained wire message.
// Pure function of (samples, options) — bit-identical across thread counts
// and platforms.
Result<std::vector<uint8_t>> EncodeUpload(const Matrix& samples,
                                          const CodecOptions& options);

// Parses, validates (magic, version, CRCs, shape consistency) and inverts
// the codec. Every failure is Status(kWireCorrupt, reason); `limits` bounds
// what a hostile length field can make the decoder allocate.
Result<DecodedUpload> DecodeUpload(const uint8_t* data, size_t size,
                                   const CodecOptions& options = {});
Result<DecodedUpload> DecodeUpload(const std::vector<uint8_t>& wire,
                                   const CodecOptions& options = {});

// Exact serialized size in bytes of a rows x cols upload under `options`
// (every mode's size is a function of the shape alone). Used by the
// accounting regression tests and the comm-cost bench.
int64_t EncodedWireBytes(int64_t rows, int64_t cols,
                         const CodecOptions& options);

namespace internal_codec {
// The quantizer grid kernels behind EncodeQuant / DecodeUpload, exposed for
// the bit-equality regression tests. Each ships in two forms: the scalar
// reference (the loop the codec ran historically, kept as the oracle) and
// the vectorizable hot path the codec now calls, which must produce
// IDENTICAL bits — the vector form replaces std::llround with the exact
// floor(u) + (u - floor(u) >= 0.5) decomposition (u >= 0 always, and
// u - floor(u) is exact in binary floating point), so the grid is the same
// to the last ulp, not approximately.

// indices[i] = llround((clamp(src[i]) + range) / step) on the 2^bits-level
// grid over [-range, range]; NaN maps to the bottom of the grid, +-inf to
// the range edges. `step` must be 2 * range / (2^bits - 1).
void QuantizeIndices(const double* src, int64_t count, double range,
                     double step, uint64_t* indices);
void QuantizeIndicesScalar(const double* src, int64_t count, double range,
                           double step, uint64_t* indices);

// values[i] = -range + step * min(indices[i], top): the grid inverse, with
// out-of-grid indices (corruption the CRC missed, hostile encoders) clamped
// onto the top level instead of extrapolating past the declared range.
void DequantizeValues(const uint64_t* indices, int64_t count, double range,
                      double step, uint64_t top, double* values);
void DequantizeValuesScalar(const uint64_t* indices, int64_t count,
                            double range, double step, uint64_t top,
                            double* values);
}  // namespace internal_codec

}  // namespace fedsc

#endif  // FEDSC_FED_CODEC_H_
