#include "fed/faults.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/metrics.h"
#include "fed/wire.h"
#include "linalg/blas.h"

namespace fedsc {

namespace {

// The detectable corruption classes a corrupt device cycles through, in
// order (ValidateUpload must quarantine every one of them).
constexpr PayloadFault kCorruptionCycle[] = {
    PayloadFault::kTruncate,   PayloadFault::kDuplicate,
    PayloadFault::kCorruptNan, PayloadFault::kCorruptDim,
    PayloadFault::kCorruptNorm,
};

// The wire-damage classes a faulted transport cycles through, in order
// (ParseWireMessage must detect every one of them).
constexpr WireFault kWireFaultCycle[] = {
    WireFault::kTruncate,  WireFault::kBitFlipHeader,
    WireFault::kBitFlipPayload, WireFault::kCrcStomp,
    WireFault::kLengthLie,
};

// Stream constant deriving the colluders' shared fake-subspace basis from
// the plan seed: every colluder mixes the same value, so they agree on the
// subspace without any cross-device draw.
constexpr uint64_t kColludeStream = 0xC011'0DE5'EEDULL;

// Gram-Schmidt over `vectors` (columns), dropping near-dependent columns.
// Deterministic; always returns at least one unit column when any input
// column is nonzero.
Matrix Orthonormalized(const Matrix& vectors) {
  const int64_t n = vectors.rows();
  Matrix basis(n, vectors.cols());
  int64_t rank = 0;
  for (int64_t j = 0; j < vectors.cols(); ++j) {
    std::vector<double> v(vectors.ColData(j), vectors.ColData(j) + n);
    for (int64_t r = 0; r < rank; ++r) {
      const double dot = Dot(basis.ColData(r), v.data(), n);
      Axpy(-dot, basis.ColData(r), v.data(), n);
    }
    const double norm = Norm2(v.data(), n);
    if (norm <= 1e-12) continue;
    Scal(1.0 / norm, v.data(), n);
    basis.SetCol(rank++, v.data());
  }
  return basis.ColRange(0, std::max<int64_t>(rank, 1));
}

Status CheckRate(double value, const char* name) {
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must lie in [0, 1], got " +
                                   std::to_string(value));
  }
  return Status::OK();
}

bool ColumnFinite(const double* col, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(col[i])) return false;
  }
  return true;
}

}  // namespace

const char* PayloadFaultName(PayloadFault fault) {
  switch (fault) {
    case PayloadFault::kNone:
      return "none";
    case PayloadFault::kTruncate:
      return "truncate";
    case PayloadFault::kDuplicate:
      return "duplicate";
    case PayloadFault::kCorruptNan:
      return "corrupt-nan";
    case PayloadFault::kCorruptDim:
      return "corrupt-dim";
    case PayloadFault::kCorruptNorm:
      return "corrupt-norm";
    case PayloadFault::kByzantine:
      return "byzantine";
  }
  return "unknown";
}

const char* WireFaultName(WireFault fault) {
  switch (fault) {
    case WireFault::kNone:
      return "none";
    case WireFault::kTruncate:
      return "truncate";
    case WireFault::kBitFlipHeader:
      return "bit-flip-header";
    case WireFault::kBitFlipPayload:
      return "bit-flip-payload";
    case WireFault::kCrcStomp:
      return "crc-stomp";
    case WireFault::kLengthLie:
      return "length-lie";
  }
  return "unknown";
}

const char* ByzantineModeName(ByzantineMode mode) {
  switch (mode) {
    case ByzantineMode::kRandom:
      return "random";
    case ByzantineMode::kCollude:
      return "collude";
    case ByzantineMode::kMimic:
      return "mimic";
  }
  return "unknown";
}

std::string FaultClassName(const DeviceFaultSchedule& schedule) {
  std::string out;
  const auto add = [&out](const std::string& name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (schedule.dropped) add("dropout");
  if (schedule.straggler) add("straggler");
  if (schedule.transient_failures > 0) add("transient");
  if (schedule.payload != PayloadFault::kNone) {
    std::string name = PayloadFaultName(schedule.payload);
    // The legacy random mode keeps the bare "byzantine" class name; the
    // hardened modes are distinguishable in the journal.
    if (schedule.payload == PayloadFault::kByzantine &&
        schedule.byzantine_mode != ByzantineMode::kRandom) {
      name += std::string("-") + ByzantineModeName(schedule.byzantine_mode);
    }
    add(name);
  }
  if (schedule.wire != WireFault::kNone) {
    add(std::string("wire-") + WireFaultName(schedule.wire));
  }
  return out.empty() ? "none" : out;
}

Status ValidateFaultPlanOptions(const FaultPlanOptions& options) {
  FEDSC_RETURN_NOT_OK(CheckRate(options.dropout_rate, "dropout_rate"));
  FEDSC_RETURN_NOT_OK(CheckRate(options.straggler_rate, "straggler_rate"));
  FEDSC_RETURN_NOT_OK(CheckRate(options.transient_rate, "transient_rate"));
  FEDSC_RETURN_NOT_OK(CheckRate(options.corrupt_rate, "corrupt_rate"));
  FEDSC_RETURN_NOT_OK(CheckRate(options.byzantine_rate, "byzantine_rate"));
  FEDSC_RETURN_NOT_OK(CheckRate(options.wire_corrupt_rate,
                                "wire_corrupt_rate"));
  if (options.straggler_rate > 0.0 && options.straggler_mean_delay_ms <= 0.0) {
    return Status::InvalidArgument(
        "straggler_mean_delay_ms must be positive when stragglers are "
        "scheduled");
  }
  if (options.max_transient_failures < 0) {
    return Status::InvalidArgument("max_transient_failures must be >= 0");
  }
  if (options.collude_dim < 1) {
    return Status::InvalidArgument("collude_dim must be >= 1");
  }
  if (!(options.mimic_angle_deg > 0.0 && options.mimic_angle_deg <= 90.0)) {
    return Status::InvalidArgument(
        "mimic_angle_deg must lie in (0, 90], got " +
        std::to_string(options.mimic_angle_deg));
  }
  return Status::OK();
}

Status ValidateUploadValidationOptions(
    const UploadValidationOptions& options) {
  if (!(options.min_norm >= 0.0)) {
    return Status::InvalidArgument("min_norm must be >= 0");
  }
  if (!(options.max_norm > options.min_norm)) {
    return Status::InvalidArgument("max_norm must exceed min_norm");
  }
  return Status::OK();
}

Result<FaultPlan> FaultPlan::Create(int64_t num_devices,
                                    const FaultPlanOptions& options) {
  if (num_devices < 0) {
    return Status::InvalidArgument("num_devices must be >= 0");
  }
  FEDSC_RETURN_NOT_OK(ValidateFaultPlanOptions(options));

  FaultPlan plan;
  plan.options_ = options;
  plan.devices_.resize(static_cast<size_t>(num_devices));
  int64_t corrupt_index = 0;
  int64_t wire_index = 0;
  for (int64_t z = 0; z < num_devices; ++z) {
    // One independent stream per device: the schedule depends only on
    // (options.seed, z), never on processing order or thread count.
    Rng rng(MixSeeds(options.seed, static_cast<uint64_t>(z)));
    DeviceFaultSchedule& device = plan.devices_[static_cast<size_t>(z)];
    device.dropped = rng.Uniform() < options.dropout_rate;
    device.straggler = rng.Uniform() < options.straggler_rate;
    if (rng.Uniform() < options.transient_rate &&
        options.max_transient_failures > 0) {
      device.transient_failures =
          1 + static_cast<int>(
                  rng.UniformInt(options.max_transient_failures));
    }
    const double u_corrupt = rng.Uniform();
    const double u_byzantine = rng.Uniform();
    if (u_corrupt < options.corrupt_rate) {
      constexpr int64_t kCycle =
          static_cast<int64_t>(std::size(kCorruptionCycle));
      device.payload = kCorruptionCycle[corrupt_index++ % kCycle];
    } else if (u_byzantine < options.byzantine_rate) {
      device.payload = PayloadFault::kByzantine;
    }
    device.payload_seed = rng.Next();
    device.delay_seed = rng.Next();
    // Wire-fault draws come AFTER every pre-existing draw so schedules built
    // before the serialized uplink existed replay bit-identically.
    const double u_wire = rng.Uniform();
    device.wire_seed = rng.Next();
    if (u_wire < options.wire_corrupt_rate) {
      constexpr int64_t kWireCycle =
          static_cast<int64_t>(std::size(kWireFaultCycle));
      device.wire = kWireFaultCycle[wire_index++ % kWireCycle];
    }
    // Byzantine-mode draws come after the wire draws (the same append-only
    // discipline): every fate decided by the draws above replays
    // bit-identically whatever the configured attack strategy.
    device.byzantine_mode = options.byzantine_mode;
    device.byzantine_seed = rng.Next();
    plan.active_ = plan.active_ || device.dropped || device.straggler ||
                   device.transient_failures > 0 ||
                   device.payload != PayloadFault::kNone ||
                   device.wire != WireFault::kNone;
  }
  return plan;
}

DeviceFaultSchedule FaultPlan::ScheduleFor(int64_t z) const {
  if (z < 0 || z >= num_devices()) return DeviceFaultSchedule{};
  return devices_[static_cast<size_t>(z)];
}

int64_t FaultPlan::UplinkDelayMs(int64_t z, int attempt) const {
  const DeviceFaultSchedule device = ScheduleFor(z);
  if (!device.straggler) return 0;
  // Redrawn per attempt (slow links are bursty), but as a pure function of
  // (device, attempt) so replays agree.
  Rng rng(MixSeeds(device.delay_seed, static_cast<uint64_t>(attempt)));
  return static_cast<int64_t>(
      std::llround(rng.Exponential(options_.straggler_mean_delay_ms)));
}

Matrix FaultPlan::ApplyPayloadFault(int64_t z, const Matrix& upload) const {
  const DeviceFaultSchedule device = ScheduleFor(z);
  if (device.payload == PayloadFault::kNone || upload.cols() == 0) {
    return upload;
  }
  FEDSC_METRIC_COUNTER("fed.faults.payload_faults").Increment();
  Rng rng(device.payload_seed);
  const int64_t n = upload.rows();
  const int64_t cols = upload.cols();
  switch (device.payload) {
    case PayloadFault::kNone:
      break;
    case PayloadFault::kTruncate: {
      // Only a prefix survives the uplink; always lose at least one column
      // when there is more than one.
      const int64_t keep = std::max<int64_t>(1, cols / 2);
      return upload.ColRange(0, keep);
    }
    case PayloadFault::kDuplicate: {
      const int64_t extra = std::max<int64_t>(1, cols / 2);
      Matrix doubled(n, cols + extra);
      for (int64_t j = 0; j < cols; ++j) {
        doubled.SetCol(j, upload.ColData(j));
      }
      for (int64_t j = 0; j < extra; ++j) {
        doubled.SetCol(cols + j, upload.ColData(j));
      }
      return doubled;
    }
    case PayloadFault::kCorruptNan: {
      // Roughly half the columns survive; the last is always corrupted so
      // the fault can never be a silent no-op.
      Matrix corrupted = upload;
      for (int64_t j = 0; j < cols; ++j) {
        if (j + 1 < cols && rng.Uniform() < 0.5) continue;
        double* col = corrupted.ColData(j);
        col[rng.UniformInt(n)] = std::numeric_limits<double>::quiet_NaN();
        col[rng.UniformInt(n)] = std::numeric_limits<double>::infinity();
      }
      return corrupted;
    }
    case PayloadFault::kCorruptDim: {
      // One extra ambient row: meaningless in the federation's space.
      Matrix wrong(n + 1, cols);
      for (int64_t j = 0; j < cols; ++j) {
        double* dst = wrong.ColData(j);
        const double* src = upload.ColData(j);
        for (int64_t i = 0; i < n; ++i) dst[i] = src[i];
        dst[n] = rng.Gaussian();
      }
      return wrong;
    }
    case PayloadFault::kCorruptNorm: {
      // Alternate blow-ups and collapses, both orders of magnitude outside
      // the acceptance bounds.
      Matrix corrupted = upload;
      for (int64_t j = 0; j < cols; ++j) {
        const double scale = (j % 2 == 0) ? 1e9 : 0.0;
        Scal(scale, corrupted.ColData(j), n);
      }
      return corrupted;
    }
    case PayloadFault::kByzantine: {
      switch (device.byzantine_mode) {
        case ByzantineMode::kRandom: {
          // Well-formed unit vectors with adversarially useless directions:
          // they pass validation and can only be absorbed, not filtered.
          Matrix adversarial(n, cols);
          for (int64_t j = 0; j < cols; ++j) {
            adversarial.SetCol(j, rng.UnitSphere(n));
          }
          return adversarial;
        }
        case ByzantineMode::kCollude: {
          // All colluders draw their columns from one fake subspace whose
          // basis depends only on the plan seed, so the group's uploads
          // mutually cohere like a legitimate cluster and can steal one of
          // the central solve's L clusters.
          Rng basis_rng(MixSeeds(options_.seed, kColludeStream));
          const int64_t dim = std::min<int64_t>(options_.collude_dim, n);
          Matrix directions(n, dim);
          for (int64_t j = 0; j < dim; ++j) {
            directions.SetCol(j, basis_rng.UnitSphere(n));
          }
          const Matrix basis = Orthonormalized(directions);
          Rng column_rng(device.byzantine_seed);
          Matrix adversarial(n, cols);
          std::vector<double> column(static_cast<size_t>(n), 0.0);
          for (int64_t j = 0; j < cols; ++j) {
            double norm = 0.0;
            do {
              const std::vector<double> alpha =
                  column_rng.GaussianVector(basis.cols());
              Gemv(Trans::kNo, 1.0, basis, alpha.data(), 0.0, column.data());
              norm = Norm2(column.data(), n);
            } while (norm <= 1e-300);
            Scal(1.0 / norm, column.data(), n);
            adversarial.SetCol(j, column.data());
          }
          return adversarial;
        }
        case ByzantineMode::kMimic: {
          // Rotate each honest sample by a controlled angle towards a random
          // orthogonal direction: the mimic stays close enough to the true
          // subspace to keep most of its coherence with honest devices,
          // while consistently tilting the cluster it lands in.
          const double angle =
              options_.mimic_angle_deg * 3.14159265358979323846 / 180.0;
          const double cos_a = std::cos(angle);
          const double sin_a = std::sin(angle);
          Rng direction_rng(device.byzantine_seed);
          Matrix adversarial(n, cols);
          std::vector<double> tilted(static_cast<size_t>(n), 0.0);
          for (int64_t j = 0; j < cols; ++j) {
            std::vector<double> base(upload.ColData(j),
                                     upload.ColData(j) + n);
            const double base_norm = Norm2(base.data(), n);
            if (base_norm <= 1e-300) {
              adversarial.SetCol(j, direction_rng.UnitSphere(n));
              continue;
            }
            Scal(1.0 / base_norm, base.data(), n);
            if (n < 2) {  // no orthogonal direction exists in 1-D
              adversarial.SetCol(j, base.data());
              continue;
            }
            // A random direction orthogonalized against the sample; redraw
            // on the (measure-zero) parallel case.
            std::vector<double> perp;
            double perp_norm = 0.0;
            do {
              perp = direction_rng.UnitSphere(n);
              const double dot = Dot(base.data(), perp.data(), n);
              Axpy(-dot, base.data(), perp.data(), n);
              perp_norm = Norm2(perp.data(), n);
            } while (perp_norm <= 1e-12);
            for (int64_t i = 0; i < n; ++i) {
              tilted[static_cast<size_t>(i)] =
                  cos_a * base[static_cast<size_t>(i)] +
                  sin_a * perp[static_cast<size_t>(i)] / perp_norm;
            }
            adversarial.SetCol(j, tilted.data());
          }
          return adversarial;
        }
      }
      return upload;
    }
  }
  return upload;
}

bool FaultPlan::ApplyWireFault(int64_t z, std::vector<uint8_t>* wire) const {
  const DeviceFaultSchedule device = ScheduleFor(z);
  if (device.wire == WireFault::kNone || wire == nullptr || wire->empty()) {
    return false;
  }
  FEDSC_METRIC_COUNTER("fed.faults.wire_faults").Increment();
  Rng rng(device.wire_seed);
  const size_t size = wire->size();
  switch (device.wire) {
    case WireFault::kNone:
      break;
    case WireFault::kTruncate: {
      // Keep a strict prefix — always lose at least one byte.
      wire->resize(static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(size))));
      return true;
    }
    case WireFault::kBitFlipHeader: {
      const size_t span = std::min(size, kWireHeaderBytes);
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(span)));
      (*wire)[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
      return true;
    }
    case WireFault::kBitFlipPayload: {
      // Flip past the header when there is anything there; tiny (header-
      // only) buffers degrade to a header flip. Either way a CRC catches it.
      const size_t base = size > kWireHeaderBytes ? kWireHeaderBytes : 0;
      const size_t pos =
          base + static_cast<size_t>(
                     rng.UniformInt(static_cast<int64_t>(size - base)));
      (*wire)[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
      return true;
    }
    case WireFault::kCrcStomp: {
      // Overwrite the stored header CRC (bytes [32, 36)) — the decoder must
      // notice the digest no longer matches the bytes it covers.
      const size_t pos = std::min<size_t>(32, size - 1);
      const size_t end = std::min<size_t>(pos + 4, size);
      for (size_t i = pos; i < end; ++i) {
        (*wire)[i] ^= static_cast<uint8_t>(0xA5u + (i - pos));
      }
      return true;
    }
    case WireFault::kLengthLie: {
      // Rewrite the first section's declared payload byte count (offset
      // header + 12, u64 LE); short messages degrade to a tail flip.
      const size_t pos = size > kWireHeaderBytes + kWireSectionHeaderBytes
                             ? kWireHeaderBytes + 12
                             : size - 1;
      (*wire)[pos] ^= static_cast<uint8_t>(
          1u + rng.UniformInt(255));
      return true;
    }
  }
  return false;
}

std::string FaultPlan::Fingerprint() const {
  std::ostringstream os;
  for (int64_t z = 0; z < num_devices(); ++z) {
    const DeviceFaultSchedule& d = devices_[static_cast<size_t>(z)];
    os << "z=" << z << " dropped=" << d.dropped
       << " straggler=" << d.straggler
       << " transient=" << d.transient_failures
       << " payload=" << PayloadFaultName(d.payload)
       << " payload_seed=" << d.payload_seed
       << " delay_seed=" << d.delay_seed
       << " wire=" << WireFaultName(d.wire)
       << " wire_seed=" << d.wire_seed
       << " byzantine_mode=" << ByzantineModeName(d.byzantine_mode)
       << " byzantine_seed=" << d.byzantine_seed << "\n";
  }
  return os.str();
}

std::string QuarantinedColumnsSummary(const UploadValidation& validation) {
  if (validation.quarantined.empty()) return "none";
  std::string out;
  for (size_t i = 0; i < validation.quarantined.size(); ++i) {
    if (!out.empty()) out += "; ";
    out += "col " + std::to_string(validation.quarantined[i]) + ": " +
           validation.reasons[i];
  }
  return out;
}

Result<UploadValidation> ValidateUpload(
    const Matrix& samples, int64_t expected_dim,
    const UploadValidationOptions& options) {
  FEDSC_RETURN_NOT_OK(ValidateUploadValidationOptions(options));
  if (expected_dim >= 0 && samples.rows() != expected_dim) {
    return Status::InvalidArgument(
        "upload dimension " + std::to_string(samples.rows()) +
        " does not match the federation's " + std::to_string(expected_dim));
  }
  UploadValidation out;
  const int64_t n = samples.rows();
  std::vector<int64_t> kept;
  for (int64_t j = 0; j < samples.cols(); ++j) {
    const double* col = samples.ColData(j);
    // Fast path: one vectorized Dot pass gives both checks at once. A
    // finite sum of squares proves every element finite (any NaN or inf
    // propagates, and finite elements can only push the sum to +inf), and
    // Norm2 is DEFINED as sqrt(Dot(x, x, n)) — same bits, so the norm
    // window below sees exactly the values the two-pass scan saw. A
    // non-finite sum is ambiguous (bad value vs. square overflow of huge
    // finite values), so that rare case re-runs the element-wise scan to
    // keep the per-column quarantine reasons exact.
    const double sumsq = Dot(col, col, n);
    if (!std::isfinite(sumsq) && !ColumnFinite(col, n)) {
      out.quarantined.push_back(j);
      out.reasons.push_back("non-finite value");
      continue;
    }
    const double norm = std::sqrt(sumsq);
    if (norm < options.min_norm || norm > options.max_norm) {
      out.quarantined.push_back(j);
      out.reasons.push_back("norm " + std::to_string(norm) +
                            " outside [" + std::to_string(options.min_norm) +
                            ", " + std::to_string(options.max_norm) + "]");
      continue;
    }
    kept.push_back(j);
  }
  out.accepted = samples.GatherCols(kept);
  out.kept = std::move(kept);
  if (!out.quarantined.empty()) {
    FEDSC_METRIC_COUNTER("fed.quarantine.samples")
        .Add(static_cast<int64_t>(out.quarantined.size()));
  }
  return out;
}

}  // namespace fedsc
