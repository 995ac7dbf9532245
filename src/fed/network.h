// One-shot communication channel simulation: uplink/downlink bit accounting
// (Section IV-E of the paper), Gaussian channel noise on uploaded samples
// (the robustness experiment of Fig. 7, where samples from device z receive
// noise of standard deviation delta / sqrt(r^(z))), and the fault-tolerant
// uplink path — per-attempt deadlines on a simulated clock, exponential
// backoff with seeded jitter, and a bounded retry budget — driven by a
// deterministic FaultPlan (fed/faults.h).

#ifndef FEDSC_FED_NETWORK_H_
#define FEDSC_FED_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "fed/codec.h"
#include "fed/faults.h"
#include "linalg/matrix.h"

namespace fedsc {

struct ChannelOptions {
  // Fig. 7's delta; the uplink of device z is perturbed by i.i.d. Gaussian
  // noise with stddev delta / sqrt(r^(z)). 0 disables noise.
  double noise_delta = 0.0;
  uint64_t seed = 0x5eed'c4a7ULL;
  // How uploads are serialized (fed/codec.h); Section IV-E's q-bit
  // quantization is codec.mode = kUniformQuant at codec.quant_bits. Every
  // uplink is actually encoded to wire bytes and decoded back — CommStats
  // counts the true serialized size, and wire faults (fed/faults.h) mutate
  // the byte stream in between.
  CodecOptions codec;
  // Observation hook: called with every transmitted (post-wire-fault)
  // uplink message. Device is -1 for direct Uplink() calls that carry no
  // device identity. Used by `fedsc_cli --wire-dump` and the accounting
  // regression tests; leave empty to pay nothing.
  std::function<void(int64_t device, const std::vector<uint8_t>& wire)>
      wire_sink;
};

// The codec the channel runs: `options.codec`.
CodecOptions EffectiveCodecOptions(const ChannelOptions& options);

// Rejects out-of-range ChannelOptions up front instead of letting the
// channel silently misbehave: noise_delta must be nonnegative and the
// codec valid (ValidateCodecOptions).
Status ValidateChannelOptions(const ChannelOptions& options);

// Retry semantics for one device's uplink. The defaults describe the
// paper's idealized network: a single attempt that always succeeds.
struct RetryOptions {
  // Attempts before the server gives the device up (>= 1).
  int max_attempts = 1;
  // Per-attempt deadline on the simulated clock; an attempt whose simulated
  // latency exceeds it counts as a timeout.
  int64_t timeout_ms = 1000;
  // Exponential backoff between attempts: the a-th retry waits
  // base_backoff_ms * backoff_multiplier^(a-1), stretched by up to
  // jitter_fraction of itself using the seeded per-device RNG (so backoff
  // schedules are deterministic yet decorrelated across devices).
  int64_t base_backoff_ms = 50;
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.1;
};

Status ValidateRetryOptions(const RetryOptions& options);

// Simulated wall clock, advanced by uplink latency, timeouts, and backoff.
// Purely logical: nothing sleeps, so fault schedules replay bit-identically
// at any thread count or machine speed.
class SimClock {
 public:
  int64_t now_ms() const { return now_ms_; }
  void AdvanceMs(int64_t ms) {
    if (ms > 0) now_ms_ += ms;
  }

 private:
  int64_t now_ms_ = 0;
};

struct CommStats {
  int64_t uplink_values = 0;
  // 8 * uplink_wire_bytes: the uplink cost in bits of every transmitted
  // attempt's *serialized* message (header + section headers + payload),
  // not an analytic values-times-bits estimate.
  int64_t uplink_bits = 0;
  // True byte count of every transmitted uplink message.
  int64_t uplink_wire_bytes = 0;
  int64_t downlink_values = 0;
  double downlink_bits = 0.0;  // assignments cost log2(L) bits each
  // Communication rounds actually consumed: 1 for the clean one-shot
  // protocol, the worst per-device attempt count when retries happened.
  int64_t rounds = 0;
  int64_t retries = 0;         // re-attempts after a failed upload
  int64_t timeouts = 0;        // attempts that exceeded the deadline
  // Simulated duration of the uplink phase: the worst per-device elapsed
  // time (devices upload concurrently in a real federation).
  int64_t sim_uplink_ms = 0;
};

// What one device's (possibly retried) uplink produced.
struct UplinkOutcome {
  bool delivered = false;
  Matrix received;     // post-fault, post-channel payload (when delivered)
  int attempts = 0;    // attempts actually made
  int64_t elapsed_ms = 0;  // simulated time this device's uplink consumed
  Status status;       // why delivery failed (OK when delivered)
};

// Simulates the client->server->client channel of the one-shot protocol.
class Channel {
 public:
  // Validates `options` first; prefer this over the raw constructor.
  static Result<Channel> Create(const ChannelOptions& options);

  explicit Channel(const ChannelOptions& options);

  // Uplink of an n x r sample matrix from one device: applies channel noise
  // (if configured), encodes the result with the codec, charges the
  // serialized byte count to the stats, and returns the decoded matrix —
  // i.e. exactly what the server reconstructs from the wire.
  Matrix Uplink(const Matrix& samples);

  // Fault-aware uplink of device z's payload: applies the device's payload
  // fault once, then attempts delivery up to retry.max_attempts times.
  // Dropped devices and attempts whose simulated latency exceeds
  // retry.timeout_ms time out (the deadline is charged to the clock);
  // scheduled transient losses consume the attempt and its bandwidth;
  // between attempts the clock advances by jittered exponential backoff.
  // Every transmitted attempt is charged to the uplink bit accounting —
  // retries are exactly the communication overhead the one-shot claim is
  // measured against. The delivering attempt's payload travels as encoded
  // wire bytes; the device's scheduled WireFault (if any) mutates those
  // bytes in flight, and a message the decoder rejects yields
  // delivered = false with a kWireCorrupt status (the caller quarantines
  // the device — the bytes arrived, they were just unusable).
  // Deterministic in (options, plan, device, payload).
  UplinkOutcome UplinkWithRetry(int64_t device, const Matrix& payload,
                                const FaultPlan& plan,
                                const RetryOptions& retry, SimClock* clock);

  // Downlink of `count` cluster assignments out of `num_clusters` classes to
  // one device: log2(L) bits each.
  void Downlink(int64_t count, int64_t num_clusters);

  // Marks the completion of `n` communication rounds (1 for the clean
  // one-shot protocol; the worst per-device attempt count under faults).
  void FinishRounds(int64_t n);
  void FinishRound() { FinishRounds(1); }

  const CommStats& stats() const { return stats_; }

 private:
  // Adds channel noise in place (no-op when noise_delta == 0). Consumes
  // rng_ draws in the same order as the historical in-place path.
  void ApplyNoise(Matrix* samples);
  // Serializes under the codec; encoding a validated channel's
  // payload cannot fail, so failures crash (programming error).
  std::vector<uint8_t> Encode(const Matrix& samples);
  // Charges one transmitted attempt: `values` sample values as
  // `wire_bytes` serialized bytes.
  void ChargeUplinkAttempt(int64_t values, int64_t wire_bytes);

  ChannelOptions options_;
  Rng rng_;
  CommStats stats_;
};

}  // namespace fedsc

#endif  // FEDSC_FED_NETWORK_H_
