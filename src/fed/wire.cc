#include "fed/wire.h"

#include <cmath>
#include <cstring>
#include <string>

namespace fedsc {

namespace {

// Little-endian scalar append / read. The wire format is little-endian on
// every platform; these avoid any aliasing or alignment assumptions.
template <typename T>
void AppendLe(std::vector<uint8_t>* out, T value) {
  static_assert(sizeof(T) <= 8, "scalar expected");
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(T));
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>((bits >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T ReadLe(const uint8_t* data) {
  uint64_t bits = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    bits |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  T value;
  std::memcpy(&value, &bits, sizeof(T));
  return value;
}

Status Corrupt(std::string reason) {
  return Status::WireCorrupt(std::move(reason));
}

bool ValidDtype(uint8_t raw) {
  return raw <= static_cast<uint8_t>(WireDtype::kPackedUint);
}

bool ValidSectionKind(uint8_t raw) {
  return raw == static_cast<uint8_t>(WireSectionKind::kSamples);
}

}  // namespace

const char* WireDtypeName(WireDtype dtype) {
  switch (dtype) {
    case WireDtype::kF64:
      return "f64";
    case WireDtype::kF32:
      return "f32";
    case WireDtype::kPackedUint:
      return "packed-uint";
  }
  return "unknown";
}

const char* WireSectionKindName(WireSectionKind kind) {
  switch (kind) {
    case WireSectionKind::kSamples:
      return "samples";
  }
  return "unknown";
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  // Table generated on first use from the reflected IEEE 802.3 polynomial.
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ data[i]) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

int64_t WirePayloadBytes(WireDtype dtype, int64_t rows, int64_t cols,
                         int quant_bits) {
  if (rows < 0 || cols < 0) return -1;
  // Shapes fit u32 on the wire, so the element count fits in 64 bits; the
  // caller-facing guard against absurd sizes is WireLimits::max_elements.
  const int64_t elements = rows * cols;
  switch (dtype) {
    case WireDtype::kF64:
      return elements * 8;
    case WireDtype::kF32:
      return elements * 4;
    case WireDtype::kPackedUint: {
      if (quant_bits < 2 || quant_bits > 32) return -1;
      return (elements * quant_bits + 7) / 8;
    }
  }
  return -1;
}

Result<std::vector<uint8_t>> SerializeWireMessage(
    const WireHeader& header, const std::vector<WireSectionSpec>& sections) {
  if (sections.empty() || sections.size() > 255) {
    return Status::InvalidArgument("a wire message carries 1..255 sections");
  }
  for (const WireSectionSpec& section : sections) {
    const int64_t expected =
        WirePayloadBytes(section.dtype, section.rows, section.cols,
                         header.quant_bits);
    if (expected < 0 ||
        static_cast<size_t>(expected) != section.payload.size()) {
      return Status::InvalidArgument(
          std::string("section '") + WireSectionKindName(section.kind) +
          "' payload is " + std::to_string(section.payload.size()) +
          " bytes, expected " + std::to_string(expected) + " for " +
          std::to_string(section.rows) + "x" + std::to_string(section.cols) +
          " " + WireDtypeName(section.dtype));
    }
  }

  std::vector<uint8_t> out;
  size_t total = kWireHeaderBytes;
  for (const WireSectionSpec& section : sections) {
    total += kWireSectionHeaderBytes + section.payload.size();
  }
  out.reserve(total);

  // Header: layout in DESIGN.md §9.
  out.insert(out.end(), kWireMagic, kWireMagic + 4);
  AppendLe<uint16_t>(&out, header.version);
  AppendLe<uint16_t>(&out, static_cast<uint16_t>(kWireHeaderBytes));
  out.push_back(header.codec);
  out.push_back(static_cast<uint8_t>(header.dtype));
  out.push_back(header.quant_bits);
  out.push_back(static_cast<uint8_t>(sections.size()));
  AppendLe<uint32_t>(&out, header.rows);
  AppendLe<uint32_t>(&out, header.cols);
  AppendLe<double>(&out, header.quant_range);
  AppendLe<uint32_t>(&out, 0);  // reserved
  AppendLe<uint32_t>(&out, Crc32(out.data(), out.size()));

  for (const WireSectionSpec& section : sections) {
    out.push_back(static_cast<uint8_t>(section.kind));
    out.push_back(static_cast<uint8_t>(section.dtype));
    AppendLe<uint16_t>(&out, 0);  // reserved
    AppendLe<uint32_t>(&out, section.rows);
    AppendLe<uint32_t>(&out, section.cols);
    AppendLe<uint64_t>(&out, static_cast<uint64_t>(section.payload.size()));
    AppendLe<uint32_t>(&out,
                       Crc32(section.payload.data(), section.payload.size()));
    out.insert(out.end(), section.payload.begin(), section.payload.end());
  }
  return out;
}

Result<WireMessage> ParseWireMessage(const uint8_t* data, size_t size,
                                     const WireLimits& limits) {
  if (data == nullptr && size > 0) {
    return Corrupt("null buffer with nonzero size");
  }
  if (size < kWireHeaderBytes) {
    return Corrupt("buffer of " + std::to_string(size) +
                   " bytes is shorter than the " +
                   std::to_string(kWireHeaderBytes) + "-byte header");
  }
  if (std::memcmp(data, kWireMagic, 4) != 0) {
    return Corrupt("bad magic (expected 'FSCW')");
  }
  const uint16_t version = ReadLe<uint16_t>(data + 4);
  if (version == 0 || version > kWireVersion) {
    return Corrupt("unsupported wire version " + std::to_string(version) +
                   " (this decoder knows <= " +
                   std::to_string(kWireVersion) + ")");
  }
  const uint16_t header_bytes = ReadLe<uint16_t>(data + 6);
  if (header_bytes != kWireHeaderBytes) {
    return Corrupt("header_bytes " + std::to_string(header_bytes) +
                   " != " + std::to_string(kWireHeaderBytes));
  }
  const uint32_t declared_crc = ReadLe<uint32_t>(data + 32);
  const uint32_t actual_crc = Crc32(data, 32);
  if (declared_crc != actual_crc) {
    return Corrupt("header CRC mismatch");
  }

  WireMessage message;
  message.header.version = version;
  message.header.codec = data[8];
  if (!ValidDtype(data[9])) {
    return Corrupt("unknown dtype byte " + std::to_string(data[9]));
  }
  message.header.dtype = static_cast<WireDtype>(data[9]);
  message.header.quant_bits = data[10];
  message.header.num_sections = data[11];
  message.header.rows = ReadLe<uint32_t>(data + 12);
  message.header.cols = ReadLe<uint32_t>(data + 16);
  message.header.quant_range = ReadLe<double>(data + 20);
  if (ReadLe<uint32_t>(data + 28) != 0) {
    return Corrupt("nonzero reserved word in the header");
  }
  if (message.header.num_sections == 0) {
    return Corrupt("message declares zero sections");
  }
  const int64_t header_elements =
      static_cast<int64_t>(message.header.rows) *
      static_cast<int64_t>(message.header.cols);
  if (header_elements > limits.max_elements) {
    return Corrupt("declared shape " + std::to_string(message.header.rows) +
                   "x" + std::to_string(message.header.cols) +
                   " exceeds the decoder element cap");
  }

  size_t offset = kWireHeaderBytes;
  for (int s = 0; s < message.header.num_sections; ++s) {
    if (size - offset < kWireSectionHeaderBytes) {
      return Corrupt("truncated before section " + std::to_string(s) +
                     " header");
    }
    const uint8_t* sh = data + offset;
    WireSectionView view;
    if (!ValidSectionKind(sh[0])) {
      return Corrupt("unknown section kind byte " + std::to_string(sh[0]));
    }
    view.kind = static_cast<WireSectionKind>(sh[0]);
    if (!ValidDtype(sh[1])) {
      return Corrupt("unknown section dtype byte " + std::to_string(sh[1]));
    }
    view.dtype = static_cast<WireDtype>(sh[1]);
    if (ReadLe<uint16_t>(sh + 2) != 0) {
      return Corrupt("section " + std::to_string(s) +
                     " has a nonzero reserved word");
    }
    view.rows = ReadLe<uint32_t>(sh + 4);
    view.cols = ReadLe<uint32_t>(sh + 8);
    const uint64_t declared_bytes = ReadLe<uint64_t>(sh + 12);
    const uint32_t payload_crc = ReadLe<uint32_t>(sh + 20);
    offset += kWireSectionHeaderBytes;

    const int64_t elements = static_cast<int64_t>(view.rows) *
                             static_cast<int64_t>(view.cols);
    if (elements > limits.max_elements) {
      return Corrupt("section " + std::to_string(s) + " shape " +
                     std::to_string(view.rows) + "x" +
                     std::to_string(view.cols) +
                     " exceeds the decoder element cap");
    }
    const int64_t expected_bytes = WirePayloadBytes(
        view.dtype, view.rows, view.cols, message.header.quant_bits);
    if (expected_bytes < 0) {
      return Corrupt("section " + std::to_string(s) +
                     " has no valid payload size (dtype " +
                     WireDtypeName(view.dtype) + ", quant_bits " +
                     std::to_string(message.header.quant_bits) + ")");
    }
    if (declared_bytes != static_cast<uint64_t>(expected_bytes)) {
      return Corrupt("section " + std::to_string(s) + " declares " +
                     std::to_string(declared_bytes) + " payload bytes, " +
                     std::to_string(expected_bytes) + " expected for its " +
                     "shape and dtype");
    }
    if (size - offset < declared_bytes) {
      return Corrupt("section " + std::to_string(s) +
                     " payload truncated (" +
                     std::to_string(size - offset) + " of " +
                     std::to_string(declared_bytes) + " bytes present)");
    }
    view.payload = data + offset;
    view.payload_bytes = static_cast<size_t>(declared_bytes);
    offset += view.payload_bytes;
    if (Crc32(view.payload, view.payload_bytes) != payload_crc) {
      return Corrupt("section " + std::to_string(s) + " payload CRC " +
                     "mismatch");
    }
    message.sections.push_back(view);
  }
  if (offset != size) {
    return Corrupt(std::to_string(size - offset) +
                   " trailing bytes after the last section");
  }
  return message;
}

}  // namespace fedsc
