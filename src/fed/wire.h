// Versioned flat binary wire format for one-shot uplink payloads.
//
// Until now the simulated Channel handed Matrix structs around and *counted*
// bits analytically; this layer makes the upload a real byte stream so it
// can cross a transport (ROADMAP item 5). A wire message is:
//
//   fixed 36-byte header | section 0 | section 1 | ...
//
// where each section is a 24-byte section header followed by its payload
// bytes. Every section payload carries a CRC32, and the header protects
// itself with one too, so truncation, bit flips, and length lies are all
// detectable before any payload byte is interpreted. The byte layout is
// specified field-by-field in DESIGN.md §9; tests/testdata/*.wire pins it
// at byte level — any layout change MUST bump kWireVersion and keep the old
// decoder path alive.
//
// Parsing NEVER crashes and never reads out of bounds on any input: every
// malformed buffer yields a typed Status (StatusCode::kWireCorrupt), which
// tests/wire_fuzz_test.cc enforces over >= 10k seed-driven mutations under
// ASAN. The codec layer (fed/codec.h) sits on top and interprets sections
// as sample matrices.

#ifndef FEDSC_FED_WIRE_H_
#define FEDSC_FED_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace fedsc {

// "FSCW" — the first four bytes of every Fed-SC wire message.
inline constexpr uint8_t kWireMagic[4] = {'F', 'S', 'C', 'W'};
// Bump on ANY byte-layout change; decoders reject versions they don't know.
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kWireHeaderBytes = 36;
inline constexpr size_t kWireSectionHeaderBytes = 24;

// On-the-wire element encodings. kPackedUint is the uniform-quantizer
// output: indices of quant_bits bits each, packed little-endian into the
// payload with zero padding in the final byte.
enum class WireDtype : uint8_t {
  kF64 = 0,
  kF32 = 1,
  kPackedUint = 2,
};

const char* WireDtypeName(WireDtype dtype);

// Role of a section inside the message. Both codecs carry a single
// kSamples section; other kind bytes are rejected on parse.
enum class WireSectionKind : uint8_t {
  kSamples = 0,
};

const char* WireSectionKindName(WireSectionKind kind);

// Decoded fixed header (bytes [0, 36) of the message; layout in DESIGN.md
// §9). `codec` is the raw codec-mode byte — the codec layer owns the enum.
struct WireHeader {
  uint16_t version = kWireVersion;
  uint8_t codec = 0;
  WireDtype dtype = WireDtype::kF64;
  uint8_t quant_bits = 0;       // 0 unless dtype == kPackedUint
  uint8_t num_sections = 0;
  uint32_t rows = 0;            // decoded sample-matrix shape
  uint32_t cols = 0;
  double quant_range = 0.0;     // 0 unless dtype == kPackedUint
};

// One parsed section: a validated view into the message buffer (payload CRC
// already checked). Views borrow the caller's buffer and are invalidated
// with it.
struct WireSectionView {
  WireSectionKind kind = WireSectionKind::kSamples;
  WireDtype dtype = WireDtype::kF64;
  uint32_t rows = 0;
  uint32_t cols = 0;
  const uint8_t* payload = nullptr;
  size_t payload_bytes = 0;
};

// A fully parsed message: header plus CRC-verified section views into the
// original buffer.
struct WireMessage {
  WireHeader header;
  std::vector<WireSectionView> sections;
};

// Decode-side resource bounds: a hostile length field must not be able to
// make the parser allocate unbounded memory. rows * cols of any section (and
// of the header shape) is capped.
struct WireLimits {
  int64_t max_elements = int64_t{1} << 26;  // 64 Mi values = 512 MB of f64
};

// IEEE 802.3 CRC32 (polynomial 0xEDB88320, initial/final 0xFFFFFFFF).
uint32_t Crc32(const uint8_t* data, size_t size);

// Serializes a message: header with `header`'s fields (num_sections is
// taken from `sections`; every section's CRC and byte count are computed
// here). Section payload sizes must match rows * cols at the section dtype
// (exactly, packed sizes included) — violations are programming errors and
// return InvalidArgument.
struct WireSectionSpec {
  WireSectionKind kind = WireSectionKind::kSamples;
  WireDtype dtype = WireDtype::kF64;
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::vector<uint8_t> payload;
};

Result<std::vector<uint8_t>> SerializeWireMessage(
    const WireHeader& header, const std::vector<WireSectionSpec>& sections);

// Parses and fully validates a message: magic, version, header CRC, section
// count and bounds, per-section payload sizes and CRCs, exact total length.
// Every failure is Status(kWireCorrupt, reason); success guarantees each
// view's [payload, payload + payload_bytes) lies inside [data, data + size).
Result<WireMessage> ParseWireMessage(const uint8_t* data, size_t size,
                                     const WireLimits& limits = {});

// Exact payload byte count of rows x cols values at `dtype` (`quant_bits`
// used only for kPackedUint). Returns -1 on overflow / invalid dtype.
int64_t WirePayloadBytes(WireDtype dtype, int64_t rows, int64_t cols,
                         int quant_bits);

}  // namespace fedsc

#endif  // FEDSC_FED_WIRE_H_
