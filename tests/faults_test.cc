// Fault-tolerance suite: deterministic fault injection (fed/faults.h), the
// retrying channel (fed/network.h), and graceful degradation of RunFedSc
// under partial participation (core/fedsc.h).
//
// The acceptance criteria this file proves:
//   (a) the same seed + FaultPlan produce bit-identical outcomes (labels,
//       reports, comm stats, deterministic metrics) at any thread count;
//   (b) a 30% dropout round with quorum 0.5 completes, reports the dropped
//       devices, and keeps the surviving points' accuracy close to the
//       fault-free run;
//   (c) every corrupted-payload class is quarantined — the pipeline never
//       crashes and never emits NaN or out-of-range labels;
//   (d) a quorum violation returns a typed Status instead of crashing.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "fed/partition.h"
#include "linalg/blas.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

// A small federation with redundant cluster coverage, so dropping a third of
// the devices still leaves every subspace represented somewhere.
Result<FederatedDataset> MakeFederation(uint64_t seed) {
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 36;
  synth.seed = seed;
  FEDSC_ASSIGN_OR_RETURN(Dataset data, GenerateUnionOfSubspaces(synth));
  PartitionOptions partition;
  partition.num_devices = 12;
  partition.clusters_per_device = 2;
  partition.seed = seed ^ 0xABCDEF;
  return PartitionAcrossDevices(data, partition);
}

// Unit-norm upload columns, the shape every honest device produces.
Matrix UnitColumns(int64_t n, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, cols);
  for (int64_t j = 0; j < cols; ++j) m.SetCol(j, rng.UnitSphere(n));
  return m;
}

// Same helper as trace_test.cc: the deterministic slices of a metrics
// snapshot as a comparable string.
std::string DeterministicFingerprint(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, value] : snapshot.counters) {
    os << name << "=" << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    os << name << "=" << value << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    os << name << ": count=" << h.count << " sum=" << h.sum
       << " min=" << h.min << " max=" << h.max << "\n";
  }
  return os.str();
}

FaultPlanOptions MixedFaults() {
  FaultPlanOptions faults;
  faults.dropout_rate = 0.2;
  faults.straggler_rate = 0.2;
  faults.straggler_mean_delay_ms = 800.0;
  faults.transient_rate = 0.4;
  faults.corrupt_rate = 0.2;
  faults.byzantine_rate = 0.1;
  faults.seed = 0xFA17'0001ULL;
  return faults;
}

TEST(FaultPlanTest, ValidationRejectsBadOptions) {
  FaultPlanOptions options;
  options.dropout_rate = -0.1;
  EXPECT_FALSE(FaultPlan::Create(4, options).ok());
  options.dropout_rate = 1.5;
  EXPECT_FALSE(FaultPlan::Create(4, options).ok());
  options.dropout_rate = 0.0;
  options.straggler_rate = 0.5;
  options.straggler_mean_delay_ms = 0.0;
  EXPECT_FALSE(FaultPlan::Create(4, options).ok());
  options.straggler_mean_delay_ms = 100.0;
  options.max_transient_failures = -1;
  EXPECT_FALSE(FaultPlan::Create(4, options).ok());
  options.max_transient_failures = 2;
  EXPECT_FALSE(FaultPlan::Create(-1, options).ok());
  EXPECT_TRUE(FaultPlan::Create(4, options).ok());
}

TEST(FaultPlanTest, DefaultPlanIsFaultFree) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
  const DeviceFaultSchedule schedule = plan.ScheduleFor(17);
  EXPECT_FALSE(schedule.dropped);
  EXPECT_FALSE(schedule.straggler);
  EXPECT_EQ(schedule.transient_failures, 0);
  EXPECT_EQ(schedule.payload, PayloadFault::kNone);
  EXPECT_EQ(plan.UplinkDelayMs(17, 1), 0);
  const Matrix upload = UnitColumns(5, 3, 11);
  EXPECT_TRUE(AllClose(plan.ApplyPayloadFault(17, upload), upload, 0.0));
}

TEST(FaultPlanTest, FingerprintIsDeterministicAndSeedSensitive) {
  FaultPlanOptions options = MixedFaults();
  auto a = FaultPlan::Create(32, options);
  auto b = FaultPlan::Create(32, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->active());
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());

  options.seed ^= 1;
  auto c = FaultPlan::Create(32, options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());
}

TEST(FaultPlanTest, ScheduleIsAPureFunctionOfSeedAndDevice) {
  // Growing the federation must not reshuffle existing devices' fates:
  // device z's schedule depends only on (seed, z).
  const FaultPlanOptions options = MixedFaults();
  auto small = FaultPlan::Create(8, options);
  auto large = FaultPlan::Create(64, options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  for (int64_t z = 0; z < 8; ++z) {
    const DeviceFaultSchedule s = small->ScheduleFor(z);
    const DeviceFaultSchedule l = large->ScheduleFor(z);
    EXPECT_EQ(s.dropped, l.dropped) << z;
    EXPECT_EQ(s.straggler, l.straggler) << z;
    EXPECT_EQ(s.transient_failures, l.transient_failures) << z;
    EXPECT_EQ(s.payload, l.payload) << z;
    EXPECT_EQ(s.payload_seed, l.payload_seed) << z;
    EXPECT_EQ(s.delay_seed, l.delay_seed) << z;
  }
}

TEST(FaultPlanTest, RateOneSchedulesEveryDevice) {
  FaultPlanOptions options;
  options.dropout_rate = 1.0;
  auto plan = FaultPlan::Create(6, options);
  ASSERT_TRUE(plan.ok());
  for (int64_t z = 0; z < 6; ++z) EXPECT_TRUE(plan->ScheduleFor(z).dropped);

  FaultPlanOptions byzantine;
  byzantine.byzantine_rate = 1.0;
  auto adversarial = FaultPlan::Create(6, byzantine);
  ASSERT_TRUE(adversarial.ok());
  for (int64_t z = 0; z < 6; ++z) {
    EXPECT_EQ(adversarial->ScheduleFor(z).payload, PayloadFault::kByzantine);
  }
}

TEST(PayloadFaultTest, CorruptionCyclesThroughEveryDetectableClass) {
  FaultPlanOptions options;
  options.corrupt_rate = 1.0;
  auto plan = FaultPlan::Create(5, options);
  ASSERT_TRUE(plan.ok());
  std::set<PayloadFault> classes;
  for (int64_t z = 0; z < 5; ++z) classes.insert(plan->ScheduleFor(z).payload);
  EXPECT_EQ(classes.size(), 5u);
  EXPECT_EQ(classes.count(PayloadFault::kNone), 0u);
  EXPECT_EQ(classes.count(PayloadFault::kByzantine), 0u);
}

// Acceptance criterion (c), unit level: apply every payload fault to an
// honest upload and push the result through ValidateUpload. Detectable
// classes are quarantined (per column or as a whole upload); Byzantine
// passes — it is indistinguishable from honest data by construction.
TEST(PayloadFaultTest, ValidationQuarantinesEveryDetectableClass) {
  const int64_t n = 8;
  const int64_t cols = 6;
  const Matrix upload = UnitColumns(n, cols, 42);
  UploadValidationOptions validation;

  FaultPlanOptions options;
  options.corrupt_rate = 1.0;
  auto plan = FaultPlan::Create(5, options);
  ASSERT_TRUE(plan.ok());
  for (int64_t z = 0; z < 5; ++z) {
    const PayloadFault fault = plan->ScheduleFor(z).payload;
    const Matrix received = plan->ApplyPayloadFault(z, upload);
    auto verdict = ValidateUpload(received, n, validation);
    switch (fault) {
      case PayloadFault::kTruncate:
        // Fewer columns arrive, but each is an honest sample: accepted.
        ASSERT_TRUE(verdict.ok());
        EXPECT_LT(received.cols(), cols);
        EXPECT_EQ(verdict->accepted.cols(), received.cols());
        EXPECT_TRUE(verdict->quarantined.empty());
        break;
      case PayloadFault::kDuplicate:
        ASSERT_TRUE(verdict.ok());
        EXPECT_GT(received.cols(), cols);
        EXPECT_EQ(verdict->accepted.cols(), received.cols());
        break;
      case PayloadFault::kCorruptNan: {
        ASSERT_TRUE(verdict.ok());
        EXPECT_FALSE(verdict->quarantined.empty());
        ASSERT_EQ(verdict->reasons.size(), verdict->quarantined.size());
        for (const std::string& reason : verdict->reasons) {
          EXPECT_NE(reason.find("non-finite"), std::string::npos);
        }
        // Whatever survived is finite.
        for (int64_t j = 0; j < verdict->accepted.cols(); ++j) {
          for (int64_t i = 0; i < n; ++i) {
            EXPECT_TRUE(std::isfinite(verdict->accepted(i, j)));
          }
        }
        break;
      }
      case PayloadFault::kCorruptDim:
        // The whole upload is meaningless in the federation's space.
        EXPECT_FALSE(verdict.ok());
        EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
        break;
      case PayloadFault::kCorruptNorm:
        ASSERT_TRUE(verdict.ok());
        EXPECT_EQ(verdict->accepted.cols(), 0);
        EXPECT_EQ(static_cast<int64_t>(verdict->quarantined.size()),
                  received.cols());
        break;
      default:
        FAIL() << "unexpected fault " << PayloadFaultName(fault);
    }
  }

  FaultPlanOptions byz;
  byz.byzantine_rate = 1.0;
  auto adversarial = FaultPlan::Create(1, byz);
  ASSERT_TRUE(adversarial.ok());
  const Matrix received = adversarial->ApplyPayloadFault(0, upload);
  auto verdict = ValidateUpload(received, n, validation);
  ASSERT_TRUE(verdict.ok());
  // Byzantine uploads are well-formed unit vectors: validation cannot catch
  // them (that is the point of the class).
  EXPECT_EQ(verdict->accepted.cols(), cols);
  EXPECT_TRUE(verdict->quarantined.empty());
  // ... but they really are different data.
  EXPECT_FALSE(AllClose(received, upload, 1e-6));
}

TEST(ValidateUploadTest, BoundsAndDisabledMode) {
  Matrix upload(3, 3);
  upload(0, 0) = 1.0;                       // norm 1: fine
  upload(0, 1) = 1e-9;                      // norm below min_norm
  upload(0, 2) = 1e9;                       // norm above max_norm
  UploadValidationOptions options;
  auto verdict = ValidateUpload(upload, 3, options);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->accepted.cols(), 1);
  EXPECT_EQ(verdict->kept, (std::vector<int64_t>{0}));
  EXPECT_EQ(verdict->quarantined, (std::vector<int64_t>{1, 2}));

  // expected_dim < 0 skips the dimension check (first upload fixes it).
  EXPECT_TRUE(ValidateUpload(upload, -1, UploadValidationOptions{}).ok());
  EXPECT_FALSE(ValidateUpload(upload, 4, UploadValidationOptions{}).ok());

  UploadValidationOptions degenerate;
  degenerate.min_norm = 2.0;
  degenerate.max_norm = 1.0;
  EXPECT_FALSE(ValidateUpload(upload, 3, degenerate).ok());
}

// The single-pass sum-of-squares screen must be indistinguishable from the
// legacy two-pass scan: same verdicts, same reason strings (whose norms are
// bit-for-bit Norm2 values), on every column class — including the
// ambiguous one, huge-but-finite entries whose squares overflow to inf.
TEST(ValidateUploadTest, FastPathKeepsScalarVerdictsAndReasonStrings) {
  const int64_t n = 3;
  Matrix upload(n, 6);
  upload(0, 0) = 1.0;    // fine
  upload(0, 1) = 1e-9;   // below min_norm
  upload(0, 2) = 1e9;    // above max_norm
  upload(0, 3) = 1e200;  // finite entries, inf sum of squares: a NORM fail
  upload(0, 4) = std::nan("");
  upload(1, 5) = std::numeric_limits<double>::infinity();

  UploadValidationOptions options;
  auto verdict = ValidateUpload(upload, n, options);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->kept, (std::vector<int64_t>{0}));
  EXPECT_EQ(verdict->quarantined, (std::vector<int64_t>{1, 2, 3, 4, 5}));
  ASSERT_EQ(verdict->reasons.size(), 5u);
  // Norm-window rejections render the exact Norm2 value; the overflow
  // column reads "norm inf", NOT "non-finite value" — its entries are
  // finite, so the element-wise disambiguation must classify it as a norm
  // failure just as the two-pass scan did.
  for (int64_t which : {0, 1, 2}) {
    const int64_t col = which + 1;
    const std::string expected =
        "norm " + std::to_string(Norm2(upload.ColData(col), n)) +
        " outside [" + std::to_string(options.min_norm) + ", " +
        std::to_string(options.max_norm) + "]";
    EXPECT_EQ(verdict->reasons[static_cast<size_t>(which)], expected)
        << "column " << col;
  }
  EXPECT_EQ(verdict->reasons[3], "non-finite value");
  EXPECT_EQ(verdict->reasons[4], "non-finite value");
}

TEST(RetryOptionsTest, Validation) {
  RetryOptions retry;
  EXPECT_TRUE(ValidateRetryOptions(retry).ok());
  retry.max_attempts = 0;
  EXPECT_FALSE(ValidateRetryOptions(retry).ok());
  retry.max_attempts = 3;
  retry.timeout_ms = 0;
  EXPECT_FALSE(ValidateRetryOptions(retry).ok());
  retry.timeout_ms = 100;
  retry.base_backoff_ms = -5;
  EXPECT_FALSE(ValidateRetryOptions(retry).ok());
  retry.base_backoff_ms = 10;
  retry.backoff_multiplier = 0.5;
  EXPECT_FALSE(ValidateRetryOptions(retry).ok());
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 1.5;
  EXPECT_FALSE(ValidateRetryOptions(retry).ok());
  retry.jitter_fraction = 0.1;
  EXPECT_TRUE(ValidateRetryOptions(retry).ok());
}

TEST(ChannelRetryTest, TransientFailuresRecoverWithinBudget) {
  FaultPlanOptions options;
  options.transient_rate = 1.0;
  options.max_transient_failures = 2;
  auto plan = FaultPlan::Create(1, options);
  ASSERT_TRUE(plan.ok());
  const int lost = plan->ScheduleFor(0).transient_failures;
  ASSERT_GE(lost, 1);

  Channel channel{ChannelOptions{}};
  RetryOptions retry;
  retry.max_attempts = 4;
  SimClock clock;
  const Matrix payload = UnitColumns(6, 4, 7);
  const UplinkOutcome outcome =
      channel.UplinkWithRetry(0, payload, *plan, retry, &clock);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.attempts, lost + 1);
  EXPECT_TRUE(AllClose(outcome.received, payload, 0.0));
  EXPECT_EQ(channel.stats().retries, lost);
  // Every lost attempt still transmitted the payload: the bandwidth cost of
  // retrying is visible in the accounting.
  EXPECT_EQ(channel.stats().uplink_values,
            static_cast<int64_t>(lost + 1) * payload.size());
  // Backoff advanced the simulated clock.
  EXPECT_GT(clock.now_ms(), 0);
}

TEST(ChannelRetryTest, DroppedDeviceExhaustsBudgetWithTimeouts) {
  FaultPlanOptions options;
  options.dropout_rate = 1.0;
  auto plan = FaultPlan::Create(1, options);
  ASSERT_TRUE(plan.ok());

  Channel channel{ChannelOptions{}};
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.timeout_ms = 250;
  SimClock clock;
  const UplinkOutcome outcome = channel.UplinkWithRetry(
      0, UnitColumns(6, 4, 7), *plan, retry, &clock);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(channel.stats().timeouts, 3);
  EXPECT_EQ(channel.stats().retries, 2);
  // A device that never answers transmits nothing.
  EXPECT_EQ(channel.stats().uplink_values, 0);
  // Three full deadlines plus two backoffs elapsed.
  EXPECT_GE(outcome.elapsed_ms, 3 * 250);
}

TEST(ChannelRetryTest, OutcomeIsDeterministic) {
  FaultPlanOptions options = MixedFaults();
  auto plan = FaultPlan::Create(8, options);
  ASSERT_TRUE(plan.ok());
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.timeout_ms = 500;

  auto run = [&]() {
    std::ostringstream os;
    Channel channel{ChannelOptions{}};
    for (int64_t z = 0; z < 8; ++z) {
      SimClock clock;
      const UplinkOutcome outcome = channel.UplinkWithRetry(
          z, UnitColumns(6, 4, 7), *plan, retry, &clock);
      os << z << ":" << outcome.delivered << ":" << outcome.attempts << ":"
         << outcome.elapsed_ms << "\n";
    }
    os << channel.stats().retries << " " << channel.stats().timeouts;
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

// Acceptance criterion (a): with faults on, RunFedSc is bit-identical across
// thread counts — labels, per-device reports, comm stats, and the
// deterministic metrics registry.
TEST(FedScFaultsTest, BitIdenticalAcrossThreadCounts) {
  auto fed = MakeFederation(91);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();

  FedScOptions options;
  options.faults = MixedFaults();
  options.retry.max_attempts = 3;
  options.retry.timeout_ms = 500;
  options.quorum = 0.25;

  auto run = [&](int num_threads) {
    ResetMetrics();
    EnableMetrics(true);
    FedScOptions threaded = options;
    threaded.num_threads = num_threads;
    auto result = RunFedSc(*fed, 4, threaded);
    EnableMetrics(false);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::make_pair(std::move(result).value(),
                          DeterministicFingerprint(SnapshotMetrics()));
  };

  const auto [serial, serial_metrics] = run(1);
  EXPECT_TRUE(FaultPlan::Create(fed->num_devices(), options.faults)
                  ->active());
  for (int num_threads : {2, 8}) {
    const auto [threaded, threaded_metrics] = run(num_threads);
    EXPECT_EQ(serial.global_labels, threaded.global_labels) << num_threads;
    EXPECT_EQ(serial.failed_devices, threaded.failed_devices) << num_threads;
    EXPECT_EQ(serial.participating_devices, threaded.participating_devices);
    EXPECT_EQ(serial.quarantined_samples, threaded.quarantined_samples);
    EXPECT_EQ(serial.comm.uplink_bits, threaded.comm.uplink_bits);
    EXPECT_EQ(serial.comm.retries, threaded.comm.retries);
    EXPECT_EQ(serial.comm.timeouts, threaded.comm.timeouts);
    EXPECT_EQ(serial.comm.rounds, threaded.comm.rounds);
    EXPECT_EQ(serial.comm.sim_uplink_ms, threaded.comm.sim_uplink_ms);
    ASSERT_EQ(serial.device_reports.size(), threaded.device_reports.size());
    for (size_t z = 0; z < serial.device_reports.size(); ++z) {
      EXPECT_EQ(serial.device_reports[z].outcome,
                threaded.device_reports[z].outcome)
          << z;
      EXPECT_EQ(serial.device_reports[z].attempts,
                threaded.device_reports[z].attempts)
          << z;
    }
    EXPECT_EQ(serial_metrics, threaded_metrics) << num_threads;
  }
}

// Acceptance criterion (b): 30% dropout against a 0.5 quorum completes,
// reports the dropped devices, labels their points with the sentinel, and
// keeps the surviving points' accuracy within tolerance of the fault-free
// run.
TEST(FedScFaultsTest, DropoutWithQuorumDegradesGracefully) {
  auto fed = MakeFederation(92);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  const std::vector<int64_t> truth = fed->GlobalTruth();

  FedScOptions clean;
  auto baseline = RunFedSc(*fed, 4, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const double clean_acc =
      ClusteringAccuracy(truth, baseline->global_labels);

  FedScOptions faulty;
  faulty.faults.dropout_rate = 0.3;
  faulty.quorum = 0.5;
  auto result = RunFedSc(*fed, 4, faulty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The schedule is deterministic, and with 12 devices at 30% some must
  // drop; each is reported exactly once with a non-OK status.
  EXPECT_FALSE(result->failed_devices.empty());
  EXPECT_EQ(result->participating_devices +
                static_cast<int64_t>(result->failed_devices.size()),
            fed->num_devices());
  for (int64_t z : result->failed_devices) {
    const DeviceReport& report =
        result->device_reports[static_cast<size_t>(z)];
    EXPECT_EQ(report.outcome, DeviceOutcome::kDropped);
    EXPECT_FALSE(report.status.ok());
    // Every point of a failed device wears the sentinel.
    for (int64_t label : result->device_labels[static_cast<size_t>(z)]) {
      EXPECT_EQ(label, FedScResult::kFailedDeviceLabel);
    }
  }

  // Surviving points keep their quality: compare accuracy on the covered
  // subset against the fault-free run.
  std::vector<int64_t> covered_truth;
  std::vector<int64_t> covered_pred;
  for (size_t i = 0; i < result->global_labels.size(); ++i) {
    if (result->global_labels[i] == FedScResult::kFailedDeviceLabel) continue;
    covered_truth.push_back(truth[i]);
    covered_pred.push_back(result->global_labels[i]);
  }
  ASSERT_FALSE(covered_truth.empty());
  EXPECT_LT(covered_truth.size(), result->global_labels.size());
  const double surviving_acc =
      ClusteringAccuracy(covered_truth, covered_pred);
  EXPECT_GE(surviving_acc, clean_acc - 10.0)
      << "clean " << clean_acc << "% vs surviving " << surviving_acc << "%";
}

// Acceptance criterion (d): not enough devices -> typed status, no crash.
TEST(FedScFaultsTest, QuorumViolationReturnsTypedStatus) {
  auto fed = MakeFederation(93);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  FedScOptions options;
  options.faults.dropout_rate = 1.0;
  options.quorum = 0.5;
  auto result = RunFedSc(*fed, 4, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kQuorumNotMet);
  EXPECT_NE(result.status().message().find("quorum"), std::string::npos);

  // The default quorum of 1.0 makes any dropout a quorum violation — the
  // legacy strict behavior, now with a typed status.
  FedScOptions strict;
  strict.faults.dropout_rate = 0.3;
  auto strict_result = RunFedSc(*fed, 4, strict);
  ASSERT_FALSE(strict_result.ok());
  EXPECT_EQ(strict_result.status().code(), StatusCode::kQuorumNotMet);
}

// Acceptance criterion (c), end to end: every device sends a corrupted
// payload, and the round still finishes with finite pooled samples and
// labels that are either the sentinel or a real cluster id.
TEST(FedScFaultsTest, CorruptedPayloadsNeverPoisonLabels) {
  auto fed = MakeFederation(94);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  FedScOptions options;
  options.faults.corrupt_rate = 1.0;
  options.quorum = 0.0;
  auto result = RunFedSc(*fed, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->quarantined_samples, 0);
  EXPECT_FALSE(result->failed_devices.empty());
  EXPECT_GT(result->participating_devices, 0);
  for (int64_t label : result->global_labels) {
    EXPECT_GE(label, FedScResult::kFailedDeviceLabel);
    EXPECT_LT(label, 4);
  }
  for (int64_t i = 0; i < result->samples.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result->samples.data()[i]));
  }
  // Quarantined devices are reported as such.
  bool saw_quarantined_device = false;
  for (const DeviceReport& report : result->device_reports) {
    if (report.outcome == DeviceOutcome::kQuarantined) {
      saw_quarantined_device = true;
      EXPECT_FALSE(report.status.ok());
    }
  }
  EXPECT_TRUE(saw_quarantined_device);
}

TEST(FedScFaultsTest, ByzantineDevicesDegradeButDoNotCrash) {
  auto fed = MakeFederation(95);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  FedScOptions options;
  options.faults.byzantine_rate = 0.25;
  options.quorum = 0.0;
  auto result = RunFedSc(*fed, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Byzantine uploads pass validation: every device participates and no
  // sample is quarantined — the damage shows up in accuracy only.
  EXPECT_EQ(result->participating_devices, fed->num_devices());
  EXPECT_EQ(result->quarantined_samples, 0);
  for (int64_t label : result->global_labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

// The rounds counter reports what actually happened: 1 on the happy path,
// the worst per-device attempt count when retries were needed.
TEST(FedScFaultsTest, RoundsReflectRetriesActuallyConsumed) {
  auto fed = MakeFederation(96);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();

  FedScOptions clean;
  auto one_shot = RunFedSc(*fed, 4, clean);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(one_shot->comm.rounds, 1);
  EXPECT_EQ(one_shot->comm.retries, 0);
  EXPECT_EQ(one_shot->comm.timeouts, 0);

  FedScOptions flaky;
  flaky.faults.transient_rate = 1.0;
  flaky.faults.max_transient_failures = 2;
  flaky.retry.max_attempts = 4;
  auto retried = RunFedSc(*fed, 4, flaky);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GT(retried->comm.rounds, 1);
  EXPECT_GT(retried->comm.retries, 0);
  EXPECT_GT(retried->comm.sim_uplink_ms, 0);
  int max_attempts = 0;
  for (const DeviceReport& report : retried->device_reports) {
    max_attempts = std::max(max_attempts, report.attempts);
  }
  EXPECT_EQ(retried->comm.rounds, max_attempts);
  // Transient losses recover within the budget: full participation.
  EXPECT_EQ(retried->participating_devices, fed->num_devices());
  EXPECT_EQ(retried->global_labels.size(),
            one_shot->global_labels.size());
}

TEST(FedScFaultsTest, OptionValidationIsUpFront) {
  auto fed = MakeFederation(97);
  ASSERT_TRUE(fed.ok());
  FedScOptions options;
  options.quorum = 1.5;
  EXPECT_FALSE(RunFedSc(*fed, 4, options).ok());
  options.quorum = 1.0;
  options.faults.dropout_rate = 2.0;
  EXPECT_FALSE(RunFedSc(*fed, 4, options).ok());
  options.faults.dropout_rate = 0.0;
  options.retry.max_attempts = 0;
  EXPECT_FALSE(RunFedSc(*fed, 4, options).ok());
  options.retry.max_attempts = 1;
  options.validation.min_norm = 5.0;
  options.validation.max_norm = 1.0;
  EXPECT_FALSE(RunFedSc(*fed, 4, options).ok());
}

}  // namespace
}  // namespace fedsc
