// Deterministic fault injection for the simulated federated network.
//
// The paper's one-shot protocol assumes every device uploads successfully;
// production federations do not (k-FED motivates one-shot schemes precisely
// by device unreliability). A FaultPlan is a seed-driven, per-device
// schedule of failures — dropout, straggler latency, transient upload
// losses, payload truncation/duplication, corruption (NaN/Inf, wrong
// dimension, non-unit-norm), and Byzantine uploads — that the Channel's
// retry loop (fed/network.h) and FedScServer's intake (core/server.h)
// interpret. Every draw is a pure function of
// (seed, device, attempt): schedules are bit-identical for any thread count
// and any processing order, composable with ChannelOptions noise and
// quantization, and replayable for regression tests.
//
// Server-side upload validation lives here too: ValidateUpload quarantines
// corrupt sample columns (instead of letting them poison — or crash — the
// central solve) and reports exactly which columns were rejected and why.

#ifndef FEDSC_FED_FAULTS_H_
#define FEDSC_FED_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace fedsc {

// What a faulty device does to its upload payload. The three kCorrupt*
// classes are detectable (and must be quarantined) by ValidateUpload;
// kByzantine uploads are well-formed unit vectors pointing nowhere useful,
// so they pass validation and degrade accuracy instead — the robustness
// bench measures how gracefully.
enum class PayloadFault {
  kNone = 0,
  kTruncate,     // only a prefix of the sample columns arrives
  kDuplicate,    // some sample columns arrive twice
  kCorruptNan,   // NaN/Inf entries scattered through the payload
  kCorruptDim,   // wrong ambient dimension (extra row)
  kCorruptNorm,  // columns blown up / collapsed far off the unit sphere
  kByzantine,    // adversarial random unit vectors replace the samples
};

const char* PayloadFaultName(PayloadFault fault);

// What a faulty transport does to the *serialized* upload (fed/wire.h)
// between encoder and decoder. Unlike PayloadFault — which models devices
// sending the wrong samples — these model the byte stream itself being
// damaged in flight. Every one of them is detectable by ParseWireMessage
// (header CRC, payload CRCs, exact length checks), so a wire-faulted upload
// always decodes to a typed kWireCorrupt status, never to silent garbage.
enum class WireFault {
  kNone = 0,
  kTruncate,        // a suffix of the byte stream never arrives
  kBitFlipHeader,   // a bit flips inside the fixed 36-byte header
  kBitFlipPayload,  // a bit flips somewhere past the header
  kCrcStomp,        // a stored CRC field is overwritten
  kLengthLie,       // a section's declared payload byte count is rewritten
};

const char* WireFaultName(WireFault fault);

// How a Byzantine device picks its adversarial (well-formed) samples.
// kRandom is the legacy attack: isotropic unit vectors, uncoordinated.
// kCollude and kMimic model the stronger adversaries the defense layer
// (fed/defense.h) must survive: colluders agree on a common fake subspace
// (their uploads mutually cohere like a legitimate cluster), mimics rotate
// each honest sample by a controlled angle off its true subspace (they keep
// most of their coherence with honest devices and are invisible to pure
// coherence tests).
enum class ByzantineMode {
  kRandom = 0,
  kCollude,
  kMimic,
};

const char* ByzantineModeName(ByzantineMode mode);

struct FaultPlanOptions {
  // Fraction of devices that never respond (every attempt times out).
  double dropout_rate = 0.0;
  // Fraction of devices whose attempts carry exponential latency with the
  // given mean; an attempt slower than RetryOptions::timeout_ms times out.
  double straggler_rate = 0.0;
  double straggler_mean_delay_ms = 400.0;
  // Fraction of devices whose first `transient failures` attempts are lost
  // in flight (they succeed once retried enough).
  double transient_rate = 0.0;
  int max_transient_failures = 2;
  // Fraction of devices uploading a corrupted payload; the corruption class
  // cycles deterministically through truncate/duplicate/NaN/dim/norm.
  double corrupt_rate = 0.0;
  // Fraction of devices uploading adversarial (Byzantine) samples.
  double byzantine_rate = 0.0;
  // Attack strategy shared by every Byzantine device in the plan.
  ByzantineMode byzantine_mode = ByzantineMode::kRandom;
  // Dimension of the colluders' common fake subspace (kCollude). The basis
  // is a pure function of `seed` alone, so every colluder agrees on it.
  int64_t collude_dim = 2;
  // Angle (degrees, in (0, 90]) between a mimic's samples and the honest
  // samples they are derived from (kMimic).
  double mimic_angle_deg = 30.0;
  // Fraction of devices whose serialized upload is damaged in flight; the
  // damage class cycles through truncate/header-flip/payload-flip/CRC-stomp/
  // length-lie. Requires the serialized uplink path (it operates on wire
  // bytes, not matrices).
  double wire_corrupt_rate = 0.0;
  uint64_t seed = 0x5eed'FA17ULL;
};

// One device's schedule, fixed at FaultPlan::Create time.
struct DeviceFaultSchedule {
  bool dropped = false;
  bool straggler = false;
  int transient_failures = 0;  // attempts lost before one can succeed
  PayloadFault payload = PayloadFault::kNone;
  uint64_t payload_seed = 0;  // drives the payload mutation
  uint64_t delay_seed = 0;    // drives per-attempt latency draws
  WireFault wire = WireFault::kNone;
  uint64_t wire_seed = 0;     // drives the wire-byte mutation
  // Byzantine strategy (meaningful when payload == kByzantine) and the seed
  // driving its column draws. The seed is drawn AFTER every legacy draw so
  // plans built before the hardened attack suite replay bit-identically.
  ByzantineMode byzantine_mode = ByzantineMode::kRandom;
  uint64_t byzantine_seed = 0;
};

// Compact human/journal-readable summary of every fault class scheduled for
// one device, '+'-joined in a fixed order ("dropout+byzantine"); "none" for
// a fault-free schedule. Used as the `fault` field of the run journal's
// per-device `scheduled` events (common/journal.h).
std::string FaultClassName(const DeviceFaultSchedule& schedule);

// Immutable per-device fault schedule. A default-constructed plan is
// fault-free for any device index, so the happy path never pays for one.
class FaultPlan {
 public:
  FaultPlan() = default;

  // Validates every rate (must lie in [0, 1], delays/budgets nonnegative)
  // and draws the schedule for `num_devices` devices. Each device's draws
  // come from Rng(MixSeeds(seed, z)), so the schedule is a pure function of
  // (options, z).
  static Result<FaultPlan> Create(int64_t num_devices,
                                  const FaultPlanOptions& options);

  int64_t num_devices() const {
    return static_cast<int64_t>(devices_.size());
  }
  // True when any fault was scheduled for any device.
  bool active() const { return active_; }

  // The schedule for device z; fault-free beyond the planned range (late
  // joiners simply have no faults scheduled).
  DeviceFaultSchedule ScheduleFor(int64_t z) const;

  // Simulated uplink latency of `attempt` (1-based) for device z, in
  // milliseconds. Deterministic in (plan, z, attempt); 0 for
  // non-stragglers.
  int64_t UplinkDelayMs(int64_t z, int attempt) const;

  // Applies device z's payload fault to its upload (identity for kNone).
  Matrix ApplyPayloadFault(int64_t z, const Matrix& upload) const;

  // Applies device z's wire fault to its serialized upload in place.
  // Returns true when bytes were actually mutated (false for kNone or an
  // empty buffer). Deterministic in (plan, z, wire contents' size).
  bool ApplyWireFault(int64_t z, std::vector<uint8_t>* wire) const;

  // A printable digest of every device's schedule, for asserting that two
  // plans (e.g. built under different thread counts) are bit-identical.
  std::string Fingerprint() const;

 private:
  FaultPlanOptions options_;
  bool active_ = false;
  std::vector<DeviceFaultSchedule> devices_;
};

// Server-side acceptance bounds for one uploaded sample column. The bounds
// are deliberately loose: honest uploads are unit vectors, but channel
// noise, quantization, and DP perturb them, so only violations orders of
// magnitude off (or non-finite values, or a wrong ambient dimension) are
// quarantined.
struct UploadValidationOptions {
  double min_norm = 1e-6;
  double max_norm = 1e6;
};

// Verdict of ValidateUpload: the accepted columns (original order) plus the
// original index and reason of every quarantined column.
struct UploadValidation {
  Matrix accepted;
  std::vector<int64_t> kept;  // original column index of accepted.col(j)
  std::vector<int64_t> quarantined;
  std::vector<std::string> reasons;  // parallel to `quarantined`
};

// Every offending column with its reason, ';'-joined in column order
// ("col 0: non-finite value; col 2: norm ..."), so the journal's quarantine
// diagnostics name all of them instead of just the first. "none" when no
// column was quarantined.
std::string QuarantinedColumnsSummary(const UploadValidation& validation);

// Validates one device's received upload against `expected_dim`. A wrong
// ambient dimension rejects the whole upload (typed InvalidArgument — the
// columns are meaningless in the federation's space); otherwise non-finite
// or norm-violating columns are quarantined per column and the rest
// accepted. Never crashes on any payload ApplyPayloadFault can produce.
Result<UploadValidation> ValidateUpload(const Matrix& samples,
                                        int64_t expected_dim,
                                        const UploadValidationOptions& options);

Status ValidateFaultPlanOptions(const FaultPlanOptions& options);
Status ValidateUploadValidationOptions(const UploadValidationOptions& options);

}  // namespace fedsc

#endif  // FEDSC_FED_FAULTS_H_
