// Byzantine-robust central aggregation: server-side screening of accepted
// uploads before pooling.
//
// The one-shot protocol gives every device exactly one chance to poison the
// central solve: a well-formed adversarial upload (fed/faults.h kByzantine)
// passes wire CRCs and ValidateUpload's norm bounds, and there is no
// iterative averaging to dilute it. A DefensePlan closes that gap with two
// statistical screens run on the post-validation pool (mirroring the
// FaultPlan / CodecOptions options-struct + pure-dispatch contract):
//
//   1. Cross-device coherence support. Honest samples live on one of a few
//      low-dimensional subspaces that the partition spreads over many
//      devices, so strongly coherent sample pairs chain honest devices
//      through shared subspaces into large connected components of the
//      device support graph. Two devices are linked when their best sample
//      pair clears a MAD-derived noise threshold theta AND is comparable to
//      the linked devices' own best cross-device coherence (the relative
//      rule): a colluding clique's members cohere near-perfectly with each
//      other, so their weaker incidental alignments with honest subspaces
//      fail the relative rule and the clique stays an isolated island no
//      matter where the global threshold lands. An uncoordinated random
//      upload is near-orthogonal to everything and isolated outright. The
//      screen is a median-absolute-deviation outlier test on the per-device
//      component size: a device whose component falls a MAD-scaled margin
//      below the pool median — and is a minority (below 30% of the pooled
//      devices, the standing Byzantine assumption) — is screened.
//
//   2. Peer-subspace self-consistency. Each sample is projected onto the
//      span of its most-coherent samples from other devices; honest samples
//      reconstruct to noise level (their peers span the same subspace),
//      while subspace-mimicry attacks — samples rotated a controlled angle
//      off a true subspace — leave a residual ~ sin(angle). Devices whose
//      *best* sample residual is a MAD outlier above the pool are screened.
//
// Determinism contract: every reduction runs on ParallelForRanges with each
// parallel iteration writing a disjoint output slot, and the pooled order
// statistics (median / MAD) are value-based, so the screening verdicts are
// bit-identical for any num_threads. Screening consumes no RNG draws:
// defense off (the default) reproduces pre-defense results bit-for-bit.

#ifndef FEDSC_FED_DEFENSE_H_
#define FEDSC_FED_DEFENSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct DefenseOptions {
  // Master switch. Off: RunFedSc and FedScServer behave exactly as before
  // this subsystem existed (no screening, no robust k-engine).
  bool enabled = false;
  // The two screens' thresholds are constants in defense.cc (DESIGN.md
  // section 11).

  // --- Robust central k-engine wiring (cluster/kmeans.h) ---
  // Applied to the central spectral k-means when the defense is enabled:
  // trimmed assignment fraction, robust center estimator, and the per-device
  // influence cap (no device contributes more than this fraction of any
  // cluster's update mass).
  double trim_fraction = 0.1;
  KMeansCenter robust_center = KMeansCenter::kCoordinateMedian;
  double max_device_fraction = 0.5;
};

Status ValidateDefenseOptions(const DefenseOptions& options);

// One pooled device's screening verdict with the statistics behind it.
struct DeviceScreenVerdict {
  int64_t device = 0;
  bool screened = false;
  // Size of this device's connected component in the device support graph
  // (devices linked by a sample pair clearing theta and the relative edge
  // rule; includes the device itself), and the cut it was tested against.
  int64_t support = 0;
  double support_cut = 0.0;
  // Best (minimum over the device's samples) peer-subspace residual, and
  // the cut it was tested against.
  double residual = 0.0;
  double residual_cut = 0.0;
  // Human-readable triggering statistic ("coherence component 2/24 below
  // cut 20.5"); empty when the device passed.
  std::string statistic;
};

struct ScreeningOutcome {
  // One verdict per pooled device, in ascending device order.
  std::vector<DeviceScreenVerdict> verdicts;
  // Pool-derived coherence threshold theta (0 when screening was skipped).
  double coherence_threshold = 0.0;
  int64_t screened_devices = 0;
  // True when the pool was too small (under 4 devices) to screen.
  bool skipped = false;
};

// The screen. Its thresholds are constants, so Screen() is a pure function
// of (samples, sample_device) — bit-identical for any num_threads.
class DefensePlan {
 public:
  DefensePlan() = default;

  // Validates the robust k-engine fractions.
  static Result<DefensePlan> Create(const DefenseOptions& options);

  // Screens the pooled accepted uploads: `samples` holds every accepted
  // column (n x m) and sample_device[j] names the owning device of column j.
  // Returns a verdict for every distinct device present. Never fails: an
  // undersized pool yields skipped = true with every device passing.
  ScreeningOutcome Screen(const Matrix& samples,
                          const std::vector<int64_t>& sample_device,
                          int num_threads) const;
};

namespace internal_defense {

// Puts the `take` entries of *peers most coherent with one sample first, in
// rank order: |coherence[i]| descending, ties by the lower index i. The
// order is strict and total, so they are the first `take` of a full sort
// (the order of the rest is unspecified). `coherence` is that sample's
// column of the pool Gram, indexed by sample.
void RankTopPeers(const double* coherence, int64_t take,
                  std::vector<int64_t>* peers);

}  // namespace internal_defense

}  // namespace fedsc

#endif  // FEDSC_FED_DEFENSE_H_
