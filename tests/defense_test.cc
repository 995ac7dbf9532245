// Byzantine defense (fed/defense.h) and robust k-means
// (cluster/kmeans.h KMeansRobustOptions): screening statistics, attack
// detection rates, determinism across thread counts, quorum interaction,
// and journal/report reconciliation.

#include "fed/defense.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "common/journal.h"
#include "common/rng.h"
#include "core/fedsc.h"
#include "core/report.h"
#include "data/synthetic.h"
#include "fed/faults.h"
#include "fed/partition.h"
#include "gtest/gtest.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

// ---------------------------------------------------------------------------
// Synthetic pools for direct Screen() tests: `num_devices` devices with
// `samples_per_device` unit samples each, honest devices drawing from one of
// `num_subspaces` shared d-dimensional subspaces.

struct Pool {
  Matrix samples;
  std::vector<int64_t> sample_device;
};

Pool MakeHonestPool(int64_t num_devices, int64_t samples_per_device,
                    int64_t ambient, int64_t num_subspaces, int64_t dim,
                    uint64_t seed) {
  Rng rng(seed);
  // Shared orthonormal-ish bases: random spans are almost surely full rank.
  std::vector<Matrix> bases;
  for (int64_t s = 0; s < num_subspaces; ++s) {
    Matrix basis(ambient, dim);
    for (int64_t c = 0; c < dim; ++c) basis.SetCol(c, rng.UnitSphere(ambient));
    bases.push_back(std::move(basis));
  }
  Pool pool;
  pool.samples = Matrix(ambient, num_devices * samples_per_device);
  int64_t next = 0;
  for (int64_t z = 0; z < num_devices; ++z) {
    const Matrix& basis = bases[static_cast<size_t>(z % num_subspaces)];
    for (int64_t s = 0; s < samples_per_device; ++s) {
      Vector coeff = rng.GaussianVector(dim);
      Vector sample(static_cast<size_t>(ambient), 0.0);
      for (int64_t c = 0; c < dim; ++c) {
        for (int64_t i = 0; i < ambient; ++i) {
          sample[static_cast<size_t>(i)] +=
              coeff[static_cast<size_t>(c)] * basis(i, c);
        }
      }
      double norm = 0.0;
      for (double v : sample) norm += v * v;
      norm = std::sqrt(norm);
      for (double& v : sample) v /= norm;
      pool.samples.SetCol(next++, sample);
      pool.sample_device.push_back(z);
    }
  }
  return pool;
}

void ReplaceWithRandom(Pool* pool, int64_t device, uint64_t seed) {
  Rng rng(seed);
  for (size_t j = 0; j < pool->sample_device.size(); ++j) {
    if (pool->sample_device[j] != device) continue;
    pool->samples.SetCol(static_cast<int64_t>(j),
                         rng.UnitSphere(pool->samples.rows()));
  }
}

DefenseOptions EnabledDefaults() {
  DefenseOptions options;
  options.enabled = true;
  return options;
}

// ---------------------------------------------------------------------------
// Options validation

TEST(DefenseOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(ValidateDefenseOptions(DefenseOptions{}).ok());
  EXPECT_TRUE(DefensePlan::Create(EnabledDefaults()).ok());
}

TEST(DefenseOptionsTest, RejectsOutOfRangeThresholds) {
  DefenseOptions bad = EnabledDefaults();
  bad.trim_fraction = 0.6;
  EXPECT_FALSE(ValidateDefenseOptions(bad).ok());

  bad = EnabledDefaults();
  bad.max_device_fraction = 0.0;
  EXPECT_FALSE(ValidateDefenseOptions(bad).ok());
}

TEST(DefenseOptionsTest, RunFedScRejectsInvalidDefenseOptions) {
  SyntheticOptions synth;
  synth.num_subspaces = 2;
  synth.points_per_subspace = 12;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = 3;
  auto fed = PartitionAcrossDevices(*data, partition);
  ASSERT_TRUE(fed.ok());
  FedScOptions options;
  options.defense.enabled = true;
  options.defense.trim_fraction = 0.9;
  auto result = RunFedSc(*fed, 2, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Screening behavior

TEST(ScreeningTest, UndersizedPoolIsSkipped) {
  Pool pool = MakeHonestPool(3, 2, 16, 2, 3, 0xD3F1ULL);
  auto plan = DefensePlan::Create(EnabledDefaults());
  ASSERT_TRUE(plan.ok());
  const ScreeningOutcome outcome =
      plan->Screen(pool.samples, pool.sample_device, 1);
  EXPECT_TRUE(outcome.skipped);
  EXPECT_EQ(outcome.screened_devices, 0);
  for (const DeviceScreenVerdict& verdict : outcome.verdicts) {
    EXPECT_FALSE(verdict.screened);
  }
}

TEST(ScreeningTest, CleanPoolScreensNothingAtDefaults) {
  for (uint64_t seed : {0x1ULL, 0x2ULL, 0x3ULL}) {
    Pool pool = MakeHonestPool(16, 4, 20, 4, 3, seed);
    auto plan = DefensePlan::Create(EnabledDefaults());
    ASSERT_TRUE(plan.ok());
    const ScreeningOutcome outcome =
        plan->Screen(pool.samples, pool.sample_device, 2);
    EXPECT_FALSE(outcome.skipped);
    EXPECT_EQ(outcome.screened_devices, 0) << "seed " << seed;
    for (const DeviceScreenVerdict& verdict : outcome.verdicts) {
      EXPECT_FALSE(verdict.screened)
          << "device " << verdict.device << ": " << verdict.statistic;
      EXPECT_TRUE(verdict.statistic.empty());
    }
  }
}

TEST(ScreeningTest, RandomByzantineDevicesAreScreened) {
  Pool pool = MakeHonestPool(16, 4, 20, 4, 3, 0xABCULL);
  ReplaceWithRandom(&pool, 5, 0xE71A01ULL);
  ReplaceWithRandom(&pool, 11, 0xE71A02ULL);
  auto plan = DefensePlan::Create(EnabledDefaults());
  ASSERT_TRUE(plan.ok());
  const ScreeningOutcome outcome =
      plan->Screen(pool.samples, pool.sample_device, 1);
  std::set<int64_t> screened;
  for (const DeviceScreenVerdict& verdict : outcome.verdicts) {
    if (verdict.screened) {
      screened.insert(verdict.device);
      EXPECT_FALSE(verdict.statistic.empty());
    }
  }
  EXPECT_TRUE(screened.count(5));
  EXPECT_TRUE(screened.count(11));
  // No honest device was taken down with them.
  for (int64_t z : screened) {
    EXPECT_TRUE(z == 5 || z == 11) << "false screen of device " << z;
  }
}

// The residual screen's peer ranking selects only its top entries. With
// tied |coherence| (equal values and equal magnitudes of opposite sign) the
// lower index ranks first, and the selected prefix equals a full sort's.
TEST(ScreeningTest, TopPeersBreakTiesByIndexLikeAFullSort) {
  const std::vector<double> coherence = {0.5, -0.9, 0.9, 0.1, 0.5,
                                         -0.5, 0.9, 0.0, 0.3, -0.1};
  // Sample 7's own device is excluded; the rest arrive out of order.
  const std::vector<int64_t> peers = {9, 5, 3, 6, 0, 8, 2, 4, 1};
  std::vector<int64_t> full = peers;
  std::sort(full.begin(), full.end(), [&](int64_t a, int64_t b) {
    const double ca = std::fabs(coherence[static_cast<size_t>(a)]);
    const double cb = std::fabs(coherence[static_cast<size_t>(b)]);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  EXPECT_EQ(full, (std::vector<int64_t>{1, 2, 6, 0, 4, 5, 8, 3, 9}));
  for (int64_t take = 0; take <= 10; ++take) {
    SCOPED_TRACE("take " + std::to_string(take));
    std::vector<int64_t> ranked = peers;
    internal_defense::RankTopPeers(coherence.data(), take, &ranked);
    const auto kept = static_cast<std::ptrdiff_t>(
        std::min<int64_t>(take, static_cast<int64_t>(peers.size())));
    EXPECT_TRUE(std::equal(ranked.begin(), ranked.begin() + kept,
                           full.begin()));
    std::sort(ranked.begin(), ranked.end());
    std::vector<int64_t> sorted_peers = peers;
    std::sort(sorted_peers.begin(), sorted_peers.end());
    EXPECT_EQ(ranked, sorted_peers);  // a permutation of the peers
  }
}

TEST(ScreeningTest, VerdictsAreBitIdenticalAcrossThreadCounts) {
  Pool pool = MakeHonestPool(16, 4, 20, 4, 3, 0xBEEFULL);
  ReplaceWithRandom(&pool, 3, 0x5EEDULL);
  auto plan = DefensePlan::Create(EnabledDefaults());
  ASSERT_TRUE(plan.ok());
  const ScreeningOutcome baseline =
      plan->Screen(pool.samples, pool.sample_device, 1);
  for (int num_threads : {2, 8}) {
    const ScreeningOutcome other =
        plan->Screen(pool.samples, pool.sample_device, num_threads);
    ASSERT_EQ(other.verdicts.size(), baseline.verdicts.size());
    EXPECT_EQ(other.coherence_threshold, baseline.coherence_threshold);
    EXPECT_EQ(other.screened_devices, baseline.screened_devices);
    for (size_t i = 0; i < baseline.verdicts.size(); ++i) {
      const DeviceScreenVerdict& a = baseline.verdicts[i];
      const DeviceScreenVerdict& b = other.verdicts[i];
      EXPECT_EQ(a.device, b.device);
      EXPECT_EQ(a.screened, b.screened);
      EXPECT_EQ(a.support, b.support);
      EXPECT_EQ(a.support_cut, b.support_cut);
      EXPECT_EQ(a.residual, b.residual);
      EXPECT_EQ(a.residual_cut, b.residual_cut);
      EXPECT_EQ(a.statistic, b.statistic);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end attack detection through RunFedSc

struct Federation {
  Dataset data;
  FederatedDataset fed;
};

Federation MakeFederation(uint64_t seed) {
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 3;
  synth.num_subspaces = 6;
  synth.points_per_subspace = 64;  // 24 devices * 2 clusters * 8 points / 6
  synth.seed = seed;
  auto data = GenerateUnionOfSubspaces(synth);
  EXPECT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = 24;
  partition.clusters_per_device = 2;
  partition.seed = seed ^ 0xABCDEF;
  auto fed = PartitionAcrossDevices(*data, partition);
  EXPECT_TRUE(fed.ok());
  return {std::move(data).value(), std::move(fed).value()};
}

std::set<int64_t> ByzantineDevices(const FaultPlanOptions& faults,
                                   int64_t num_devices) {
  auto plan = FaultPlan::Create(num_devices, faults);
  EXPECT_TRUE(plan.ok());
  std::set<int64_t> byzantine;
  for (int64_t z = 0; z < num_devices; ++z) {
    if (plan->ScheduleFor(z).payload == PayloadFault::kByzantine) {
      byzantine.insert(z);
    }
  }
  return byzantine;
}

FedScOptions AttackOptions(ByzantineMode mode, double rate) {
  FedScOptions options;
  options.faults.byzantine_rate = rate;
  options.faults.byzantine_mode = mode;
  options.defense.enabled = true;
  options.quorum = 0.5;
  return options;
}

// Detection contract, per mode at 20% Byzantine: every mode detects at
// least half of the attackers, and no honest device is ever screened.
// (Measured rates on this configuration: random and collude detect all
// attackers; mimic at 30 degrees detects all via the peer-residual screen.)
void ExpectDetection(ByzantineMode mode, double min_detection_rate) {
  const Federation f = MakeFederation(0xFEDD'0001ULL);
  FedScOptions options = AttackOptions(mode, 0.2);
  const std::set<int64_t> byzantine =
      ByzantineDevices(options.faults, f.fed.num_devices());
  ASSERT_FALSE(byzantine.empty());
  auto result = RunFedSc(f.fed, 6, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<int64_t> screened;
  for (const DeviceReport& report : result->device_reports) {
    if (report.outcome == DeviceOutcome::kScreened) {
      screened.insert(report.device);
      EXPECT_FALSE(report.screen_statistic.empty());
      EXPECT_FALSE(report.status.ok());
      EXPECT_TRUE(byzantine.count(report.device))
          << "honest device " << report.device << " screened: "
          << report.screen_statistic << " (mode " << ByzantineModeName(mode)
          << ")";
    }
  }
  EXPECT_EQ(result->screened_devices,
            static_cast<int64_t>(screened.size()));
  const double detection = static_cast<double>(screened.size()) /
                           static_cast<double>(byzantine.size());
  EXPECT_GE(detection, min_detection_rate)
      << "mode " << ByzantineModeName(mode) << " screened "
      << screened.size() << "/" << byzantine.size();
  // Screened devices are failed devices: sentinel labels, listed in
  // failed_devices.
  for (int64_t z : screened) {
    EXPECT_NE(std::find(result->failed_devices.begin(),
                        result->failed_devices.end(), z),
              result->failed_devices.end());
    for (int64_t label : result->device_labels[static_cast<size_t>(z)]) {
      EXPECT_EQ(label, FedScResult::kFailedDeviceLabel);
    }
  }
}

TEST(DefenseEndToEndTest, DetectsRandomByzantineUploads) {
  ExpectDetection(ByzantineMode::kRandom, 0.5);
}

TEST(DefenseEndToEndTest, DetectsColludingByzantineUploads) {
  ExpectDetection(ByzantineMode::kCollude, 0.5);
}

TEST(DefenseEndToEndTest, DetectsSubspaceMimicryUploads) {
  ExpectDetection(ByzantineMode::kMimic, 0.5);
}

TEST(DefenseEndToEndTest, CleanRunScreensNothing) {
  const Federation f = MakeFederation(0xFEDD'0002ULL);
  FedScOptions options;
  options.defense.enabled = true;
  auto result = RunFedSc(f.fed, 6, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->screened_devices, 0);
  for (const DeviceReport& report : result->device_reports) {
    EXPECT_NE(report.outcome, DeviceOutcome::kScreened);
  }
}

TEST(DefenseEndToEndTest, RunIsBitIdenticalAcrossThreadCounts) {
  const Federation f = MakeFederation(0xFEDD'0003ULL);
  FedScOptions base = AttackOptions(ByzantineMode::kCollude, 0.2);
  base.num_threads = 1;
  auto a = RunFedSc(f.fed, 6, base);
  ASSERT_TRUE(a.ok());
  for (int num_threads : {2, 8}) {
    FedScOptions options = base;
    options.num_threads = num_threads;
    auto b = RunFedSc(f.fed, 6, options);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->global_labels, b->global_labels);
    EXPECT_EQ(a->screened_devices, b->screened_devices);
    ASSERT_EQ(a->device_reports.size(), b->device_reports.size());
    for (size_t i = 0; i < a->device_reports.size(); ++i) {
      EXPECT_EQ(a->device_reports[i].outcome, b->device_reports[i].outcome);
      EXPECT_EQ(a->device_reports[i].screen_statistic,
                b->device_reports[i].screen_statistic);
    }
  }
}

TEST(DefenseEndToEndTest, ScreenedDevicesCountAgainstTheQuorum) {
  const Federation f = MakeFederation(0xFEDD'0004ULL);
  FedScOptions options = AttackOptions(ByzantineMode::kCollude, 0.2);
  options.faults.dropout_rate = 0.2;
  options.quorum = 0.95;  // screened + dropped cannot reach it
  auto result = RunFedSc(f.fed, 6, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kQuorumNotMet);
  EXPECT_NE(result.status().ToString().find("screened"), std::string::npos);
}

TEST(DefenseEndToEndTest, JournalAndReportReconcile) {
  const Federation f = MakeFederation(0xFEDD'0005ULL);
  FedScOptions options = AttackOptions(ByzantineMode::kCollude, 0.2);
  options.collect_report = true;
  EnableJournal(true);
  ResetJournal();
  auto result = RunFedSc(f.fed, 6, options);
  const std::vector<JournalEvent> events = SnapshotJournal();
  EnableJournal(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->screened_devices, 0);

  // Every kScreened device report has exactly one defense_screened journal
  // event, and vice versa.
  std::set<int64_t> journaled;
  for (const JournalEvent& event : events) {
    if (event.type != "defense_screened") continue;
    EXPECT_TRUE(journaled.insert(event.device).second)
        << "duplicate defense_screened for device " << event.device;
    bool has_statistic = false;
    for (const auto& [key, value] : event.fields) {
      if (key == "statistic") has_statistic = !value.empty();
    }
    EXPECT_TRUE(has_statistic);
  }
  std::set<int64_t> reported;
  for (const DeviceReport& report : result->device_reports) {
    if (report.outcome == DeviceOutcome::kScreened) {
      reported.insert(report.device);
    }
  }
  EXPECT_EQ(journaled, reported);

  // The attached report carries the screened count, the per-device
  // statistic, and the bumped schema versions.
  ASSERT_NE(result->report, nullptr);
  EXPECT_EQ(result->report->screened_devices, result->screened_devices);
  const std::string json = RunReportJson(*result->report);
  EXPECT_NE(json.find("\"screened_devices\":" +
                      std::to_string(result->screened_devices)),
            std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"screened\""), std::string::npos);
  EXPECT_NE(json.find("\"screen_statistic\":\""), std::string::npos);
}

TEST(DefenseEndToEndTest, DefendedRunRecoversAccuracyUnderCollusion) {
  // The acceptance criterion: at 20% colluding Byzantine, the defended
  // run's covered-point accuracy lands within 5 points of the fault-free
  // run, and beats the undefended run under the same attack.
  const Federation f = MakeFederation(0xFEDD'0006ULL);
  const std::vector<int64_t> truth = f.fed.GlobalTruth();
  const auto accuracy_of = [&](const FedScResult& result) {
    std::vector<int64_t> covered_truth;
    std::vector<int64_t> covered_pred;
    for (size_t i = 0; i < result.global_labels.size(); ++i) {
      if (result.global_labels[i] == FedScResult::kFailedDeviceLabel) continue;
      covered_truth.push_back(truth[i]);
      covered_pred.push_back(result.global_labels[i]);
    }
    return ClusteringAccuracy(covered_truth, covered_pred);
  };

  auto clean = RunFedSc(f.fed, 6, FedScOptions{});
  ASSERT_TRUE(clean.ok());

  FedScOptions attacked = AttackOptions(ByzantineMode::kCollude, 0.2);
  attacked.defense.enabled = false;
  auto undefended = RunFedSc(f.fed, 6, attacked);
  ASSERT_TRUE(undefended.ok());

  attacked.defense.enabled = true;
  auto defended = RunFedSc(f.fed, 6, attacked);
  ASSERT_TRUE(defended.ok());

  const double clean_acc = accuracy_of(*clean);
  const double undefended_acc = accuracy_of(*undefended);
  const double defended_acc = accuracy_of(*defended);
  EXPECT_GE(defended_acc, clean_acc - 5.0);
  EXPECT_GT(defended_acc, undefended_acc);
}

// ---------------------------------------------------------------------------
// Robust k-means unit tests

TEST(RobustKMeansTest, CoordinateMedianCentersAreExactOnHandBuiltInput) {
  // One cluster of five 2-D points; the coordinate-wise median is (3, 30) —
  // untouched by the gross outlier at (100, 1000) once it is the trimmed
  // point... but even untrimmed, the median ignores it.
  Matrix points(2, 5);
  const double xs[] = {1, 2, 3, 4, 100};
  const double ys[] = {10, 20, 30, 40, 1000};
  for (int64_t j = 0; j < 5; ++j) {
    points(0, j) = xs[j];
    points(1, j) = ys[j];
  }
  KMeansOptions options;
  options.num_init = 1;
  options.robust.enabled = true;
  options.robust.center = KMeansCenter::kCoordinateMedian;
  auto result = KMeans(points, 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids(0, 0), 3.0);
  EXPECT_EQ(result->centroids(1, 0), 30.0);
}

TEST(RobustKMeansTest, GeometricMedianResistsTheOutlier) {
  // Four points at the corners of a square around the origin plus a gross
  // outlier: the geometric median stays near the origin, the mean does not.
  Matrix points(2, 5);
  const double xs[] = {-1, 1, -1, 1, 500};
  const double ys[] = {-1, -1, 1, 1, 500};
  for (int64_t j = 0; j < 5; ++j) {
    points(0, j) = xs[j];
    points(1, j) = ys[j];
  }
  KMeansOptions options;
  options.num_init = 1;
  options.robust.enabled = true;
  options.robust.center = KMeansCenter::kGeometricMedian;
  auto result = KMeans(points, 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(std::fabs(result->centroids(0, 0)), 2.0);
  EXPECT_LT(std::fabs(result->centroids(1, 0)), 2.0);
}

TEST(RobustKMeansTest, TrimmedAssignmentKeepsLabelsButNotInfluence) {
  // One tight cluster plus an extreme outlier, k = 1: the outlier cannot
  // capture its own center, so this isolates the trimming semantics. With
  // trim_fraction high enough to drop one point the outlier still receives
  // a label but the center is the untainted cluster mean. (At k >= 2 an
  // extreme outlier legitimately wins its own cluster — trimming bounds
  // influence on shared centers, it does not veto cluster formation.)
  Matrix points(1, 4);
  const double xs[] = {0.0, 0.1, -0.1, 1000.0};
  for (int64_t j = 0; j < 4; ++j) points(0, j) = xs[j];
  KMeansOptions options;
  options.num_init = 4;
  options.robust.enabled = true;
  options.robust.trim_fraction = 0.25 + 1e-9;  // trims exactly 1 point
  options.robust.center = KMeansCenter::kMean;
  auto result = KMeans(points, 1, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->labels.size(), 4u);
  // Every point has a label in range (including the trimmed outlier).
  for (int64_t label : result->labels) {
    EXPECT_EQ(label, 0);
  }
  // The center is the mean of {0, .1, -.1}: the trimmed outlier moved it by
  // nothing at all.
  EXPECT_NEAR(result->centroids(0, 0), 0.0, 1e-9);

  // Control: without trimming the outlier drags the mean to ~250.
  KMeansOptions classic;
  classic.num_init = 4;
  auto plain = KMeans(points, 1, classic);
  ASSERT_TRUE(plain.ok());
  EXPECT_GT(plain->centroids(0, 0), 100.0);
}

TEST(RobustKMeansTest, GroupInfluenceCapBoundsASingleGroup) {
  // Group 0 floods one location with many points; the cap at 0.5 keeps the
  // minority group's position relevant in the weighted-mean center.
  const int64_t flood = 8;
  Matrix points(1, flood + 2);
  std::vector<int64_t> group;
  for (int64_t j = 0; j < flood; ++j) {
    points(0, j) = 1.0;
    group.push_back(0);
  }
  points(0, flood) = 0.0;
  points(0, flood + 1) = 0.0;
  group.push_back(1);
  group.push_back(2);
  KMeansOptions options;
  options.num_init = 1;
  options.robust.enabled = true;
  options.robust.center = KMeansCenter::kMean;
  options.robust.max_group_fraction = 0.5;
  options.robust.point_group = group;
  auto result = KMeans(points, 1, options);
  ASSERT_TRUE(result.ok());
  // Uncapped mean would be 0.8; capped, group 0 carries at most half the
  // mass, so the center is at most 0.5 + slack.
  EXPECT_LE(result->centroids(0, 0), 0.6);
}

TEST(RobustKMeansTest, RejectsInvalidRobustOptions) {
  Matrix points(1, 4);
  for (int64_t j = 0; j < 4; ++j) points(0, j) = static_cast<double>(j);
  KMeansOptions options;
  options.robust.enabled = true;
  options.robust.trim_fraction = 0.7;
  EXPECT_FALSE(KMeans(points, 2, options).ok());

  options = KMeansOptions{};
  options.robust.enabled = true;
  options.robust.max_group_fraction = 0.0;
  EXPECT_FALSE(KMeans(points, 2, options).ok());

  options = KMeansOptions{};
  options.robust.enabled = true;
  options.robust.point_group = {0, 1};  // wrong size
  EXPECT_FALSE(KMeans(points, 2, options).ok());
}

TEST(RobustKMeansTest, DisabledRobustOptionsReproduceClassicKMeans) {
  Rng rng(0xC1A551CULL);
  Matrix points(3, 30);
  for (int64_t j = 0; j < 30; ++j) points.SetCol(j, rng.UnitSphere(3));
  KMeansOptions classic;
  auto a = KMeans(points, 4, classic);
  ASSERT_TRUE(a.ok());
  KMeansOptions with_struct = classic;  // robust present but disabled
  with_struct.robust.trim_fraction = 0.0;
  auto b = KMeans(points, 4, with_struct);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->inertia, b->inertia);
}

}  // namespace
}  // namespace fedsc
