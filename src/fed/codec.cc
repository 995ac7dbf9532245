#include "fed/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace fedsc {

namespace {

Status Corrupt(std::string reason) {
  return Status::WireCorrupt(std::move(reason));
}

// Packs `values` (each < 2^bits) little-endian at `bits` bits per value,
// zero-padding the final byte. Exactly ceil(n * bits / 8) bytes.
std::vector<uint8_t> PackBits(const std::vector<uint64_t>& values, int bits) {
  std::vector<uint8_t> out;
  out.reserve((values.size() * static_cast<size_t>(bits) + 7) / 8);
  uint64_t acc = 0;
  int filled = 0;
  for (uint64_t v : values) {
    acc |= v << filled;
    filled += bits;
    while (filled >= 8) {
      out.push_back(static_cast<uint8_t>(acc & 0xFF));
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) out.push_back(static_cast<uint8_t>(acc & 0xFF));
  return out;
}

// Inverse of PackBits; the caller guarantees payload holds >= count * bits
// bits (ParseWireMessage validated the exact byte count).
std::vector<uint64_t> UnpackBits(const uint8_t* payload, int64_t count,
                                 int bits) {
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  std::vector<uint64_t> values;
  values.reserve(static_cast<size_t>(count));
  uint64_t acc = 0;
  int filled = 0;
  size_t p = 0;
  for (int64_t i = 0; i < count; ++i) {
    while (filled < bits) {
      acc |= static_cast<uint64_t>(payload[p++]) << filled;
      filled += 8;
    }
    values.push_back(acc & mask);
    acc >>= bits;
    filled -= bits;
  }
  return values;
}

std::vector<uint8_t> F64Payload(const Matrix& m) {
  std::vector<uint8_t> payload(static_cast<size_t>(m.size()) * 8);
  if (!payload.empty()) {
    std::memcpy(payload.data(), m.data(), payload.size());
  }
  return payload;
}

Matrix MatrixFromF64(const WireSectionView& view) {
  Matrix m(view.rows, view.cols);
  if (view.payload_bytes > 0) {
    std::memcpy(m.data(), view.payload, view.payload_bytes);
  }
  return m;
}

Result<std::vector<uint8_t>> EncodeRaw(const Matrix& samples,
                                       const CodecOptions& options) {
  WireHeader header;
  header.codec = static_cast<uint8_t>(CodecMode::kRawSamples);
  header.dtype = options.raw_f32 ? WireDtype::kF32 : WireDtype::kF64;
  header.rows = static_cast<uint32_t>(samples.rows());
  header.cols = static_cast<uint32_t>(samples.cols());

  WireSectionSpec section;
  section.kind = WireSectionKind::kSamples;
  section.dtype = header.dtype;
  section.rows = header.rows;
  section.cols = header.cols;
  if (options.raw_f32) {
    section.payload.resize(static_cast<size_t>(samples.size()) * 4);
    const double* src = samples.data();
    for (int64_t i = 0; i < samples.size(); ++i) {
      const float f = static_cast<float>(src[i]);
      std::memcpy(section.payload.data() + 4 * i, &f, 4);
    }
  } else {
    section.payload = F64Payload(samples);
  }
  return SerializeWireMessage(header, {std::move(section)});
}

}  // namespace

namespace internal_codec {

void QuantizeIndicesScalar(const double* src, int64_t count, double range,
                           double step, uint64_t* indices) {
  for (int64_t i = 0; i < count; ++i) {
    // Non-finite values cannot cross a quantized wire meaningfully; clamp
    // maps +-inf to the range edges and NaN to the bottom of the grid.
    double v = src[i];
    if (std::isnan(v)) v = -range;
    const double clamped = std::min(range, std::max(-range, v));
    indices[i] =
        static_cast<uint64_t>(std::llround((clamped + range) / step));
  }
}

void QuantizeIndices(const double* src, int64_t count, double range,
                     double step, uint64_t* indices) {
  // Branch-free body so the grid mapping autovectorizes. u >= 0 always, and
  // u - floor(u) is exact (Sterbenz for u >= 1, trivially for u < 1), so
  // floor(u) + (u - floor(u) >= 0.5) IS llround(u) — the scalar reference's
  // bits, not an approximation. The obvious floor(u + 0.5) would not be:
  // u + 0.5 can round up across the tie.
  for (int64_t i = 0; i < count; ++i) {
    double v = src[i];
    v = v == v ? v : -range;  // NaN -> bottom of the grid
    v = std::min(range, std::max(-range, v));
    const double u = (v + range) / step;
    const double f = std::floor(u);
    indices[i] = static_cast<uint64_t>(f + (u - f >= 0.5 ? 1.0 : 0.0));
  }
}

void DequantizeValuesScalar(const uint64_t* indices, int64_t count,
                            double range, double step, uint64_t top,
                            double* values) {
  for (int64_t i = 0; i < count; ++i) {
    // An index above the top grid level can only come from corruption the
    // CRC missed or a hostile encoder; clamp onto the grid rather than
    // extrapolating past the declared range.
    const double index =
        static_cast<double>(std::min<uint64_t>(indices[i], top));
    values[i] = -range + step * index;
  }
}

void DequantizeValues(const uint64_t* indices, int64_t count, double range,
                      double step, uint64_t top, double* values) {
  // Same arithmetic as the scalar reference with __restrict-free simple
  // bodies; the ternary min keeps the clamp branch-free for the vectorizer.
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t clamped = indices[i] < top ? indices[i] : top;
    values[i] = -range + step * static_cast<double>(clamped);
  }
}

}  // namespace internal_codec

namespace {

Result<std::vector<uint8_t>> EncodeQuant(const Matrix& samples,
                                         const CodecOptions& options) {
  WireHeader header;
  header.codec = static_cast<uint8_t>(CodecMode::kUniformQuant);
  header.dtype = WireDtype::kPackedUint;
  header.quant_bits = static_cast<uint8_t>(options.quant_bits);
  header.rows = static_cast<uint32_t>(samples.rows());
  header.cols = static_cast<uint32_t>(samples.cols());
  header.quant_range = options.quant_range;

  // Indices round((clamped + range) / step) on the 2^bits-level uniform
  // grid over [-range, range].
  const double range = options.quant_range;
  const double levels =
      static_cast<double>((uint64_t{1} << options.quant_bits) - 1);
  const double step = 2.0 * range / levels;
  std::vector<uint64_t> indices(static_cast<size_t>(samples.size()));
  internal_codec::QuantizeIndices(samples.data(), samples.size(), range,
                                  step, indices.data());

  WireSectionSpec section;
  section.kind = WireSectionKind::kSamples;
  section.dtype = WireDtype::kPackedUint;
  section.rows = header.rows;
  section.cols = header.cols;
  section.payload = PackBits(indices, options.quant_bits);
  return SerializeWireMessage(header, {std::move(section)});
}

}  // namespace

const char* CodecModeName(CodecMode mode) {
  switch (mode) {
    case CodecMode::kRawSamples:
      return "raw";
    case CodecMode::kUniformQuant:
      return "quant";
  }
  return "unknown";
}

Status ValidateCodecOptions(const CodecOptions& options) {
  if (options.mode != CodecMode::kRawSamples &&
      options.mode != CodecMode::kUniformQuant) {
    return Status::InvalidArgument("unknown codec mode");
  }
  if (options.mode == CodecMode::kUniformQuant) {
    if (options.quant_bits < 2 || options.quant_bits > 32) {
      return Status::InvalidArgument(
          "kUniformQuant requires quant_bits in [2, 32], got " +
          std::to_string(options.quant_bits));
    }
    if (!(options.quant_range > 0.0) || !std::isfinite(options.quant_range)) {
      return Status::InvalidArgument(
          "kUniformQuant requires a positive finite quant_range, got " +
          std::to_string(options.quant_range));
    }
  }
  if (options.limits.max_elements <= 0) {
    return Status::InvalidArgument("limits.max_elements must be positive");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> EncodeUpload(const Matrix& samples,
                                          const CodecOptions& options) {
  FEDSC_RETURN_NOT_OK(ValidateCodecOptions(options));
  if (samples.rows() > UINT32_MAX || samples.cols() > UINT32_MAX ||
      samples.size() > options.limits.max_elements) {
    return Status::InvalidArgument(
        "upload shape " + std::to_string(samples.rows()) + "x" +
        std::to_string(samples.cols()) + " exceeds the wire format bounds");
  }
  switch (options.mode) {
    case CodecMode::kRawSamples:
      return EncodeRaw(samples, options);
    case CodecMode::kUniformQuant:
      return EncodeQuant(samples, options);
  }
  return Status::InvalidArgument("unknown codec mode");
}

Result<DecodedUpload> DecodeUpload(const uint8_t* data, size_t size,
                                   const CodecOptions& options) {
  FEDSC_ASSIGN_OR_RETURN(WireMessage message,
                         ParseWireMessage(data, size, options.limits));
  const WireHeader& header = message.header;
  if (header.codec > static_cast<uint8_t>(CodecMode::kUniformQuant)) {
    return Corrupt("unknown codec byte " + std::to_string(header.codec));
  }
  DecodedUpload out;
  out.mode = static_cast<CodecMode>(header.codec);
  out.version = header.version;

  switch (out.mode) {
    case CodecMode::kRawSamples: {
      if (message.sections.size() != 1) {
        return Corrupt("raw codec expects 1 section, found " +
                       std::to_string(message.sections.size()));
      }
      const WireSectionView& section = message.sections[0];
      if (section.kind != WireSectionKind::kSamples) {
        return Corrupt("raw codec expects a samples section, found '" +
                       std::string(WireSectionKindName(section.kind)) + "'");
      }
      if (section.dtype != WireDtype::kF64 &&
          section.dtype != WireDtype::kF32) {
        return Corrupt("raw codec cannot carry a packed-uint section");
      }
      if (section.rows != header.rows || section.cols != header.cols) {
        return Corrupt("samples section shape disagrees with the header");
      }
      if (section.dtype == WireDtype::kF64) {
        out.samples = MatrixFromF64(section);
      } else {
        out.samples = Matrix(section.rows, section.cols);
        double* dst = out.samples.data();
        for (int64_t i = 0; i < out.samples.size(); ++i) {
          float f;
          std::memcpy(&f, section.payload + 4 * i, 4);
          dst[i] = static_cast<double>(f);
        }
      }
      return out;
    }
    case CodecMode::kUniformQuant: {
      if (message.sections.size() != 1) {
        return Corrupt("quant codec expects 1 section, found " +
                       std::to_string(message.sections.size()));
      }
      const WireSectionView& section = message.sections[0];
      if (section.kind != WireSectionKind::kSamples ||
          section.dtype != WireDtype::kPackedUint) {
        return Corrupt("quant codec expects one packed samples section");
      }
      if (section.rows != header.rows || section.cols != header.cols) {
        return Corrupt("samples section shape disagrees with the header");
      }
      const int bits = header.quant_bits;
      if (bits < 2 || bits > 32) {
        return Corrupt("quant_bits " + std::to_string(bits) +
                       " outside [2, 32]");
      }
      const double range = header.quant_range;
      if (!std::isfinite(range) || range <= 0.0) {
        return Corrupt("quant_range is not a positive finite number");
      }
      const double levels =
          static_cast<double>((uint64_t{1} << bits) - 1);
      const double step = 2.0 * range / levels;
      const int64_t count = static_cast<int64_t>(section.rows) *
                            static_cast<int64_t>(section.cols);
      const std::vector<uint64_t> indices =
          UnpackBits(section.payload, count, bits);
      out.samples = Matrix(section.rows, section.cols);
      internal_codec::DequantizeValues(indices.data(), count, range, step,
                                       static_cast<uint64_t>(levels),
                                       out.samples.data());
      return out;
    }
  }
  return Corrupt("unknown codec byte " + std::to_string(header.codec));
}

Result<DecodedUpload> DecodeUpload(const std::vector<uint8_t>& wire,
                                   const CodecOptions& options) {
  return DecodeUpload(wire.data(), wire.size(), options);
}

int64_t EncodedWireBytes(int64_t rows, int64_t cols,
                         const CodecOptions& options) {
  const int64_t overhead = static_cast<int64_t>(kWireHeaderBytes) +
                           static_cast<int64_t>(kWireSectionHeaderBytes);
  switch (options.mode) {
    case CodecMode::kUniformQuant:
      return overhead + WirePayloadBytes(WireDtype::kPackedUint, rows, cols,
                                         options.quant_bits);
    case CodecMode::kRawSamples:
      return overhead +
             WirePayloadBytes(options.raw_f32 ? WireDtype::kF32
                                              : WireDtype::kF64,
                              rows, cols, 0);
  }
  return -1;
}

}  // namespace fedsc
