#include "fed/defense.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"

namespace fedsc {

namespace {

// --- Screen 1: cross-device coherence support ---
// Noise threshold theta = median + kCoherenceMadMultiplier * MAD over the
// pooled cross-device |<s_i, s_j>| distribution; a device pair can only be
// linked by a sample pair above theta (the relative edge rule below prunes
// the survivors further).
constexpr double kCoherenceMadMultiplier = 3.0;
// Relative edge rule: a device pair is linked only when its best sample
// pair is at least this fraction of the weaker endpoint's own best
// cross-device coherence. Colluders cohere near-perfectly with each other
// (best ~1), so their weaker incidental alignments with honest subspaces
// fall below the fraction and the clique stays isolated, independent of
// where the global noise threshold theta lands.
constexpr double kRelativeEdgeFraction = 0.85;
// A device is support-screened when its support-graph component size falls
// below median_size - kSupportMadMultiplier * max(MAD, kMinSupportMad) AND
// below kMaxScreenSupportFraction of the pooled devices. The MAD floor keeps
// a degenerate (all-equal) component distribution from screening everything
// below the median; the fraction guard encodes the standing Byzantine
// assumption (an adversarial clique is a minority) and protects legitimate
// small subspace groups larger than that minority.
constexpr double kSupportMadMultiplier = 3.0;
constexpr double kMinSupportMad = 0.5;
constexpr double kMaxScreenSupportFraction = 0.3;

// --- Screen 2: peer-subspace self-consistency ---
// Number of most-coherent cross-device peers spanning the reference
// subspace each sample is reconstructed from. Deliberately larger than a
// typical subspace dimension: honest peers beyond dim d cost nothing
// (near-dependent directions vanish in the orthogonalization), while too
// few peers can under-span the subspace and false-screen honest devices.
constexpr int64_t kPeerRank = 6;
// A device is residual-screened when even its best (minimum) sample
// residual exceeds median + kResidualMadMultiplier * max(MAD,
// kMinResidualMad) AND the absolute floor kMinScreenResidual (so noise on a
// clean pool can never trip the screen).
constexpr double kResidualMadMultiplier = 4.0;
constexpr double kMinResidualMad = 0.02;
constexpr double kMinScreenResidual = 0.15;

// Below this many pooled devices the order statistics are meaningless and
// screening is a no-op (every device passes).
constexpr int64_t kMinPoolDevices = 4;

// Value-based order statistics: insensitive to the order the inputs were
// collected in, which is what makes the parallel collection passes safe.
double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  const size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double median = values[mid];
  if (n % 2 == 0) {
    std::nth_element(values.begin(), values.begin() + (mid - 1),
                     values.begin() + mid);
    median = 0.5 * (median + values[mid - 1]);
  }
  return median;
}

double MadAbout(const std::vector<double>& values, double median) {
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - median));
  return MedianOf(std::move(deviations));
}

std::string Format3(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

}  // namespace

Status ValidateDefenseOptions(const DefenseOptions& options) {
  if (options.trim_fraction < 0.0 || options.trim_fraction > 0.5) {
    return Status::InvalidArgument(
        "defense trim_fraction must lie in [0, 0.5], got " +
        std::to_string(options.trim_fraction));
  }
  if (options.max_device_fraction <= 0.0 ||
      options.max_device_fraction > 1.0) {
    return Status::InvalidArgument(
        "defense max_device_fraction must lie in (0, 1], got " +
        std::to_string(options.max_device_fraction));
  }
  return Status::OK();
}

Result<DefensePlan> DefensePlan::Create(const DefenseOptions& options) {
  Status status = ValidateDefenseOptions(options);
  if (!status.ok()) return status;
  return DefensePlan();
}

ScreeningOutcome DefensePlan::Screen(
    const Matrix& samples, const std::vector<int64_t>& sample_device,
    int num_threads) const {
  FEDSC_CHECK(static_cast<int64_t>(sample_device.size()) == samples.cols())
      << "one owning device per pooled sample";
  const int64_t n = samples.rows();
  const int64_t m = samples.cols();

  ScreeningOutcome outcome;

  // Distinct pooled devices in ascending order, and a dense index for each.
  std::map<int64_t, int64_t> device_index;
  for (int64_t z : sample_device) device_index.emplace(z, 0);
  int64_t num_devices = 0;
  for (auto& [z, idx] : device_index) idx = num_devices++;
  outcome.verdicts.resize(static_cast<size_t>(num_devices));
  {
    int64_t slot = 0;
    for (const auto& [z, idx] : device_index) {
      outcome.verdicts[static_cast<size_t>(slot++)].device = z;
    }
  }
  if (num_devices < kMinPoolDevices || m < 2 || n < 1) {
    outcome.skipped = true;
    return outcome;
  }
  std::vector<int64_t> owner(static_cast<size_t>(m), 0);
  for (int64_t j = 0; j < m; ++j) {
    owner[static_cast<size_t>(j)] =
        device_index.at(sample_device[static_cast<size_t>(j)]);
  }

  // Unit-normalized copy of the pool, so |<x_i, x_j>| is a true coherence
  // and the peer residual lands in [0, 1].
  Matrix x = samples;
  ParallelForRanges(0, m, num_threads,
                    [&](int64_t begin, int64_t end, int /*chunk*/) {
                      for (int64_t j = begin; j < end; ++j) {
                        double* col = x.ColData(j);
                        const double norm = Norm2(col, n);
                        if (norm > 0.0) Scal(1.0 / norm, col, n);
                      }
                    });
  const Matrix gram = Gram(x, num_threads);

  // Pooled cross-device coherence distribution -> threshold theta. The
  // collection order is irrelevant: the median/MAD are value-based.
  std::vector<double> cross;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = i + 1; j < m; ++j) {
      if (owner[static_cast<size_t>(i)] == owner[static_cast<size_t>(j)]) {
        continue;
      }
      cross.push_back(std::fabs(gram(i, j)));
    }
  }
  if (cross.empty()) {
    outcome.skipped = true;
    return outcome;
  }
  const double coherence_median = MedianOf(cross);
  const double coherence_mad = MadAbout(cross, coherence_median);
  const double theta =
      coherence_median + kCoherenceMadMultiplier * coherence_mad;
  outcome.coherence_threshold = theta;

  // Per-sample pass: the best coherence from sample j to every other
  // device, and the peer-subspace residual of sample j. Each parallel
  // iteration writes only slots of sample j — disjoint across chunks.
  const int64_t rank =
      std::min<int64_t>(kPeerRank, std::max<int64_t>(m - 1, 1));
  std::vector<double> pair_best(
      static_cast<size_t>(m) * static_cast<size_t>(num_devices), 0.0);
  std::vector<double> sample_residual(static_cast<size_t>(m), 1.0);
  ParallelForRanges(0, m, num_threads, [&](int64_t begin, int64_t end,
                                           int /*chunk*/) {
    std::vector<int64_t> peers;
    Matrix basis(n, rank);
    std::vector<double> coeff(static_cast<size_t>(rank), 0.0);
    for (int64_t j = begin; j < end; ++j) {
      double* row = pair_best.data() + static_cast<size_t>(j) * num_devices;
      // Cross-device peers ranked by coherence (ties by lowest index).
      peers.clear();
      for (int64_t i = 0; i < m; ++i) {
        if (owner[static_cast<size_t>(i)] == owner[static_cast<size_t>(j)]) {
          continue;
        }
        const double coherence = std::fabs(gram(i, j));
        if (coherence > row[owner[static_cast<size_t>(i)]]) {
          row[owner[static_cast<size_t>(i)]] = coherence;
        }
        peers.push_back(i);
      }
      if (peers.empty()) continue;
      const int64_t take =
          std::min<int64_t>(rank, static_cast<int64_t>(peers.size()));
      internal_defense::RankTopPeers(gram.ColData(j), take, &peers);
      // Modified Gram-Schmidt basis of the top-rank peers; near-dependent
      // peers contribute nothing (their orthogonalized direction vanishes).
      int64_t basis_cols = 0;
      for (int64_t p = 0; p < take; ++p) {
        basis.SetCol(basis_cols, x.ColData(peers[static_cast<size_t>(p)]));
        double* v = basis.ColData(basis_cols);
        for (int64_t b = 0; b < basis_cols; ++b) {
          const double proj = Dot(basis.ColData(b), v, n);
          Axpy(-proj, basis.ColData(b), v, n);
        }
        const double norm = Norm2(v, n);
        if (norm > 1e-10) {
          Scal(1.0 / norm, v, n);
          ++basis_cols;
        }
      }
      if (basis_cols == 0) continue;
      // Residual of x_j against span(basis): ||x_j||^2 = 1, so
      // residual^2 = 1 - sum_b <x_j, q_b>^2 (clamped against roundoff).
      double captured = 0.0;
      for (int64_t b = 0; b < basis_cols; ++b) {
        coeff[static_cast<size_t>(b)] = Dot(basis.ColData(b), x.ColData(j), n);
        captured +=
            coeff[static_cast<size_t>(b)] * coeff[static_cast<size_t>(b)];
      }
      sample_residual[static_cast<size_t>(j)] =
          std::sqrt(std::max(0.0, 1.0 - captured));
    }
  });

  // Device-level reduction (serial over devices: cheap, and deterministic by
  // construction).
  std::vector<double> support(static_cast<size_t>(num_devices), 0.0);
  std::vector<double> residual(
      static_cast<size_t>(num_devices), std::numeric_limits<double>::max());
  for (int64_t j = 0; j < m; ++j) {
    const int64_t z = owner[static_cast<size_t>(j)];
    residual[static_cast<size_t>(z)] =
        std::min(residual[static_cast<size_t>(z)],
                 sample_residual[static_cast<size_t>(j)]);
  }
  // Best sample-pair coherence per device pair. Each direction scans its own
  // device's samples, and both see the same symmetric |gram| entries, so the
  // matrix comes out symmetric without any cross-writes.
  std::vector<double> device_pair(
      static_cast<size_t>(num_devices) * static_cast<size_t>(num_devices),
      0.0);
  for (int64_t j = 0; j < m; ++j) {
    const int64_t z = owner[static_cast<size_t>(j)];
    const double* row = pair_best.data() + static_cast<size_t>(j) * num_devices;
    for (int64_t other = 0; other < num_devices; ++other) {
      if (other == z) continue;
      double& best = device_pair[static_cast<size_t>(z) * num_devices + other];
      if (row[other] > best) best = row[other];
    }
  }
  std::vector<double> best_link(static_cast<size_t>(num_devices), 0.0);
  for (int64_t z = 0; z < num_devices; ++z) {
    for (int64_t other = 0; other < num_devices; ++other) {
      if (other == z) continue;
      best_link[static_cast<size_t>(z)] =
          std::max(best_link[static_cast<size_t>(z)],
                   device_pair[static_cast<size_t>(z) * num_devices + other]);
    }
  }

  // Symmetric device support graph: edge z <-> other when their best sample
  // pair clears the noise threshold theta AND the relative edge rule —
  // comparable to the weaker endpoint's own best link. Using the weaker
  // endpoint means a device's best edge always passes the relative rule, so
  // an honest device with modest coherences can never be isolated by a
  // strongly-linked partner; colluder-to-honest edges still die because both
  // endpoints' best links are far above the incidental alignment.
  std::vector<uint8_t> adjacent(
      static_cast<size_t>(num_devices) * static_cast<size_t>(num_devices), 0);
  for (int64_t z = 0; z < num_devices; ++z) {
    for (int64_t other = z + 1; other < num_devices; ++other) {
      const double pair =
          device_pair[static_cast<size_t>(z) * num_devices + other];
      const double relative_cut =
          kRelativeEdgeFraction * std::min(best_link[static_cast<size_t>(z)],
                                           best_link[static_cast<size_t>(other)]);
      if (pair >= theta && pair >= relative_cut) {
        adjacent[static_cast<size_t>(z) * num_devices + other] = 1;
        adjacent[static_cast<size_t>(other) * num_devices + z] = 1;
      }
    }
  }

  // Connected components of the support graph (union-find; component
  // membership is independent of edge processing order, so deterministic).
  // Honest devices chain through shared subspaces into large components; a
  // colluding clique supports only itself and stays an isolated island, no
  // matter how mutually coherent its members are.
  std::vector<int64_t> parent(static_cast<size_t>(num_devices));
  for (int64_t z = 0; z < num_devices; ++z) parent[static_cast<size_t>(z)] = z;
  const auto find = [&](int64_t z) {
    while (parent[static_cast<size_t>(z)] != z) {
      parent[static_cast<size_t>(z)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(z)])];
      z = parent[static_cast<size_t>(z)];
    }
    return z;
  };
  for (int64_t z = 0; z < num_devices; ++z) {
    for (int64_t other = z + 1; other < num_devices; ++other) {
      if (adjacent[static_cast<size_t>(z) * num_devices + other] == 0) continue;
      const int64_t root_z = find(z);
      const int64_t root_other = find(other);
      if (root_z != root_other) {
        parent[static_cast<size_t>(std::max(root_z, root_other))] =
            std::min(root_z, root_other);
      }
    }
  }
  std::vector<int64_t> component_size(static_cast<size_t>(num_devices), 0);
  for (int64_t z = 0; z < num_devices; ++z) {
    ++component_size[static_cast<size_t>(find(z))];
  }
  for (int64_t z = 0; z < num_devices; ++z) {
    support[static_cast<size_t>(z)] =
        static_cast<double>(component_size[static_cast<size_t>(find(z))]);
  }

  const double support_median = MedianOf(support);
  const double support_mad =
      std::max(MadAbout(support, support_median), kMinSupportMad);
  const double support_cut =
      support_median - kSupportMadMultiplier * support_mad;
  const double support_ceiling =
      kMaxScreenSupportFraction * static_cast<double>(num_devices);

  const double residual_median = MedianOf(residual);
  const double residual_mad =
      std::max(MadAbout(residual, residual_median), kMinResidualMad);
  const double residual_cut =
      residual_median + kResidualMadMultiplier * residual_mad;

  for (int64_t z = 0; z < num_devices; ++z) {
    DeviceScreenVerdict& verdict = outcome.verdicts[static_cast<size_t>(z)];
    verdict.support = static_cast<int64_t>(support[static_cast<size_t>(z)]);
    verdict.support_cut = support_cut;
    verdict.residual = residual[static_cast<size_t>(z)];
    verdict.residual_cut = residual_cut;
    const bool support_screened =
        support[static_cast<size_t>(z)] < support_cut &&
        support[static_cast<size_t>(z)] < support_ceiling;
    const bool residual_screened =
        verdict.residual > residual_cut &&
        verdict.residual > kMinScreenResidual;
    verdict.screened = support_screened || residual_screened;
    if (support_screened) {
      verdict.statistic = "coherence component " +
                          std::to_string(verdict.support) + "/" +
                          std::to_string(num_devices) + " below cut " +
                          Format3(support_cut);
    } else if (residual_screened) {
      verdict.statistic = "peer residual " + Format3(verdict.residual) +
                          " above cut " + Format3(residual_cut);
    }
    if (verdict.screened) ++outcome.screened_devices;
  }
  FEDSC_METRIC_COUNTER("fed.defense.screens").Increment();
  FEDSC_METRIC_COUNTER("fed.defense.screened_devices")
      .Add(outcome.screened_devices);
  return outcome;
}

namespace internal_defense {

void RankTopPeers(const double* coherence, int64_t take,
                  std::vector<int64_t>* peers) {
  std::partial_sort(peers->begin(),
                    peers->begin() + std::min<int64_t>(
                                         take, static_cast<int64_t>(
                                                   peers->size())),
                    peers->end(), [coherence](int64_t a, int64_t b) {
                      const double ca = std::fabs(coherence[a]);
                      const double cb = std::fabs(coherence[b]);
                      if (ca != cb) return ca > cb;
                      return a < b;
                    });
}

}  // namespace internal_defense

}  // namespace fedsc
