// Run-ledger tests: journal determinism across thread counts under a hostile
// fault mix, exact reconciliation of the per-device byte/attempt ledger
// against CommStats, the near-zero disabled path, the RunReport hook, and
// golden fixtures pinning the journal fingerprint and the report JSON key
// layout (regenerate with FEDSC_UPDATE_GOLDEN=1 ./journal_test).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/journal.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/trace.h"
#include "core/fedsc.h"
#include "core/report.h"
#include "data/synthetic.h"
#include "fed/partition.h"

namespace fedsc {
namespace {

// The FedScDeterminismTest federation: 4 subspaces over 6 devices.
Result<FederatedDataset> MakeFederation() {
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 30;
  synth.seed = 31;
  FEDSC_ASSIGN_OR_RETURN(Dataset data, GenerateUnionOfSubspaces(synth));
  PartitionOptions partition;
  partition.num_devices = 6;
  partition.clusters_per_device = 2;
  partition.seed = 31 ^ 0xABCDEF;
  return PartitionAcrossDevices(data, partition);
}

// A hostile mix: dropouts, stragglers, transient losses, byzantine payloads
// and wire corruption, with retries — the configuration the acceptance
// checklist names. Quorum is relaxed so the round still completes.
FedScOptions FaultyOptions(int num_threads) {
  FedScOptions options;
  options.num_threads = num_threads;
  options.faults.dropout_rate = 0.2;
  options.faults.straggler_rate = 0.3;
  options.faults.transient_rate = 0.3;
  options.faults.byzantine_rate = 0.2;
  options.faults.wire_corrupt_rate = 0.2;
  options.faults.seed = 0xFA17;
  options.retry.max_attempts = 3;
  options.retry.timeout_ms = 200;
  options.quorum = 0.3;
  return options;
}

Result<FedScResult> RunJournaled(const FederatedDataset& fed,
                                 const FedScOptions& options) {
  ResetJournal();
  EnableJournal(true);
  auto result = RunFedSc(fed, 4, options);
  EnableJournal(false);
  return result;
}

int64_t FieldInt(const JournalEvent& event, const char* key,
                 int64_t missing = -1) {
  for (const auto& [k, v] : event.fields) {
    if (k == key) return std::atoll(v.c_str());
  }
  return missing;
}

bool HasField(const JournalEvent& event, const char* key) {
  for (const auto& [k, v] : event.fields) {
    if (k == key) return true;
  }
  return false;
}

TEST(JournalDeterminismTest, FingerprintBitIdenticalAcrossThreadCounts) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();

  auto serial = RunJournaled(*fed, FaultyOptions(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string expected = JournalFingerprint();
  ASSERT_FALSE(expected.empty());
  // The fingerprint must not leak wall timestamps...
  EXPECT_EQ(expected.find("wall_ns"), std::string::npos);
  // ...while the full JSONL carries them.
  EXPECT_NE(JournalJsonlString(/*include_wall=*/true).find("wall_ns"),
            std::string::npos);

  for (int threads : {2, 8}) {
    auto threaded = RunJournaled(*fed, FaultyOptions(threads));
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    EXPECT_EQ(expected, JournalFingerprint())
        << "journal diverged at num_threads=" << threads;
  }
}

TEST(JournalLedgerTest, EventTaxonomyCoversTheRun) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());
  auto result = RunJournaled(*fed, FaultyOptions(2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<JournalEvent> events = SnapshotJournal();
  ASSERT_FALSE(events.empty());

  // seq is dense and in emission order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<int64_t>(i));
  }

  std::map<std::string, int64_t> by_type;
  for (const JournalEvent& event : events) ++by_type[event.type];

  EXPECT_EQ(by_type["run_start"], 1);
  EXPECT_EQ(by_type["run_finish"], 1);
  EXPECT_EQ(by_type["scheduled"], 6);  // one per device, up front
  EXPECT_GT(by_type["upload_attempt"], 0);
  EXPECT_EQ(by_type["quorum_reached"] + by_type["quorum_missed"], 1);
  EXPECT_EQ(by_type["central_start"], 1);
  EXPECT_EQ(by_type["central_finish"], 1);
  EXPECT_EQ(by_type["broadcast"], 1);
  EXPECT_EQ(events.front().type, "run_start");
  EXPECT_EQ(events.back().type, "run_finish");

  // Device lifecycle events carry the device id; phase events carry -1.
  for (const JournalEvent& event : events) {
    if (event.type == "run_start" || event.type == "run_finish" ||
        event.type == "quorum_reached" || event.type == "quorum_missed" ||
        event.type == "central_start" || event.type == "central_finish" ||
        event.type == "broadcast") {
      EXPECT_EQ(event.device, -1) << event.type;
    } else {
      EXPECT_GE(event.device, 0) << event.type;
      EXPECT_LT(event.device, 6) << event.type;
    }
  }

  // This fault mix at these rates produces rejected devices; their journal
  // trail must name the fault class up front (scheduled) and the fate at the
  // end (accepted / quarantined / dropped).
  int64_t resolved = 0;
  resolved += by_type["accepted"];
  resolved += by_type["quarantined"];
  resolved += by_type["dropped"];
  EXPECT_EQ(resolved, 6);
  for (const JournalEvent& event : events) {
    if (event.type == "scheduled") EXPECT_TRUE(HasField(event, "fault"));
  }
}

TEST(JournalLedgerTest, WireBytesAndAttemptsReconcileWithCommStats) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());
  auto result = RunJournaled(*fed, FaultyOptions(2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<JournalEvent> events = SnapshotJournal();

  // Every byte CommStats charges to the uplink is journaled on exactly one
  // event: a straggler timeout, a transient loss, a wire rejection, or a
  // delivery (dropout timeouts transmit nothing and journal 0 bytes).
  int64_t journaled_wire_bytes = 0;
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t downlink_values = 0;
  for (const JournalEvent& event : events) {
    if (event.type == "timeout" || event.type == "transient_loss" ||
        event.type == "wire_rejected" || event.type == "delivered") {
      ASSERT_TRUE(HasField(event, "wire_bytes")) << event.type;
      journaled_wire_bytes += FieldInt(event, "wire_bytes");
    }
    if (event.type == "upload_attempt") ++attempts;
    if (event.type == "retry") ++retries;
    if (event.type == "timeout") ++timeouts;
    if (event.type == "downlink") downlink_values += FieldInt(event, "values");
  }
  ASSERT_GT(journaled_wire_bytes, 0);
  EXPECT_EQ(journaled_wire_bytes, result->comm.uplink_wire_bytes);
  EXPECT_EQ(retries, result->comm.retries);
  EXPECT_EQ(timeouts, result->comm.timeouts);
  EXPECT_EQ(downlink_values, result->comm.downlink_values);

  // Per-device attempt counts match the device reports exactly.
  int64_t reported_attempts = 0;
  std::map<int64_t, int64_t> attempts_by_device;
  for (const JournalEvent& event : events) {
    if (event.type == "upload_attempt") ++attempts_by_device[event.device];
  }
  for (const DeviceReport& report : result->device_reports) {
    reported_attempts += report.attempts;
    EXPECT_EQ(attempts_by_device[report.device], report.attempts)
        << "device " << report.device;
  }
  EXPECT_EQ(attempts, reported_attempts);

  // Delivered events sit on the simulated clock; the round's sim_uplink_ms
  // is the worst device timeline, so no event can exceed it.
  for (const JournalEvent& event : events) {
    if (event.device >= 0 && event.sim_ms >= 0) {
      EXPECT_LE(event.sim_ms, result->comm.sim_uplink_ms) << event.type;
    }
  }
}

TEST(JournalRegistryTest, DisabledPathRecordsNothing) {
  ResetJournal();
  EnableJournal(false);
  JournalRecord("should_not_exist", 0, 0, {{"k", int64_t{1}}});
  // JournalRecord itself always records (it is the macro that gates);
  // clear again and go through the macro.
  ResetJournal();
  FEDSC_JOURNAL_EVENT("also_not_recorded", 0, 0, {{"k", int64_t{1}}});
  EXPECT_TRUE(SnapshotJournal().empty());
  EXPECT_TRUE(JournalFingerprint().empty());

  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());
  FedScOptions options;
  options.num_threads = 2;
  auto result = RunFedSc(*fed, 4, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SnapshotJournal().empty());
}

TEST(JournalRegistryTest, DisabledMacroSkipsArgumentEvaluation) {
  ResetJournal();
  EnableJournal(false);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return int64_t{7};
  };
  FEDSC_JOURNAL_EVENT("test/disabled", 0, 0, {{"x", expensive()}});
  EXPECT_EQ(evaluations, 0);

  EnableJournal(true);
  FEDSC_JOURNAL_EVENT("test/enabled", 3, 12, {{"x", expensive()}});
  EnableJournal(false);
  EXPECT_EQ(evaluations, 1);
  const std::vector<JournalEvent> events = SnapshotJournal();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, "test/enabled");
  EXPECT_EQ(events[0].device, 3);
  EXPECT_EQ(events[0].sim_ms, 12);
  EXPECT_EQ(FieldInt(events[0], "x"), 7);
  const std::string line = JournalEventJson(events[0], /*include_wall=*/false);
  EXPECT_EQ(line,
            "{\"v\":2,\"seq\":0,\"type\":\"test/enabled\",\"device\":3,"
            "\"sim_ms\":12,\"x\":7}");
  ResetJournal();
}

TEST(JournalRegistryTest, StringsAreEscaped) {
  ResetJournal();
  EnableJournal(true);
  FEDSC_JOURNAL_EVENT("test/escape", -1, -1, {{"s", "quo\"te\\n"}});
  EnableJournal(false);
  const std::string line = JournalJsonlString(/*include_wall=*/false);
  EXPECT_NE(line.find("\"s\":\"quo\\\"te\\\\n\""), std::string::npos);
  ResetJournal();
}

TEST(RunReportTest, CollectReportHookAttachesAFullReport) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());

  ResetJournal();
  ResetMetrics();
  ResetTrace();
  EnableJournal(true);
  EnableMetrics(true);
  EnableTracing(true);
  FedScOptions options = FaultyOptions(2);
  options.collect_report = true;
  auto result = RunFedSc(*fed, 4, options);
  EnableJournal(false);
  EnableMetrics(false);
  EnableTracing(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_NE(result->report, nullptr);
  const RunReport& report = *result->report;
  EXPECT_TRUE(report.has_run);
  EXPECT_EQ(report.devices, 6);
  EXPECT_EQ(report.participating_devices, result->participating_devices);
  EXPECT_EQ(report.comm.uplink_wire_bytes, result->comm.uplink_wire_bytes);
  EXPECT_FALSE(report.journal.empty());
  EXPECT_FALSE(report.profile.spans.empty());
  EXPECT_FALSE(report.metrics.counters.empty());
  EXPECT_FALSE(report.manifest.options_fingerprint.empty());
  EXPECT_EQ(report.manifest.num_threads, 2);

  const std::string json = RunReportJson(report);
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"journal_schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"manifest\":"), std::string::npos);
  EXPECT_NE(json.find("\"run\":{"), std::string::npos);
  EXPECT_NE(json.find("\"journal\":["), std::string::npos);
  EXPECT_NE(json.find("\"profile\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  ResetJournal();
  ResetMetrics();
  ResetTrace();
}

TEST(RunReportTest, OptionsFingerprintTracksConfigNotThreads) {
  FedScOptions a;
  FedScOptions b;
  b.num_threads = 16;  // excluded by design — the determinism contract
  EXPECT_EQ(FedScOptionsFingerprint(a), FedScOptionsFingerprint(b));

  b = a;
  b.faults.dropout_rate = 0.5;
  EXPECT_NE(FedScOptionsFingerprint(a), FedScOptionsFingerprint(b));
  b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(FedScOptionsFingerprint(a), FedScOptionsFingerprint(b));

  // Every central method has its own spelling, not just SSC vs the rest.
  a.central_method = ScMethod::kSscOmp;
  b = a;
  b.central_method = ScMethod::kTsc;
  EXPECT_NE(FedScOptionsFingerprint(a), FedScOptionsFingerprint(b));

  // Each field below changes the run's labels or uplink bytes, so each
  // must change the fingerprint on its own.
  const std::vector<std::pair<const char*, void (*)(FedScOptions*)>>
      label_shaping = {
          {"codec.mode",
           [](FedScOptions* o) {
             o->channel.codec.mode = CodecMode::kUniformQuant;
           }},
          {"codec.quant_bits",
           [](FedScOptions* o) { o->channel.codec.quant_bits = 4; }},
          {"codec.quant_range",
           [](FedScOptions* o) { o->channel.codec.quant_range = 1.0; }},
          {"codec.raw_f32",
           [](FedScOptions* o) { o->channel.codec.raw_f32 = true; }},
          {"central",
           [](FedScOptions* o) { o->central = CentralPath::kSketched; }},
          {"central_sketch.dim",
           [](FedScOptions* o) { o->central_sketch.dim = 64; }},
          {"central_sketch.kind",
           [](FedScOptions* o) {
             o->central_sketch.kind = SketchKind::kLeverageLandmarks;
           }},
          {"codec.limits.max_elements",
           [](FedScOptions* o) {
             o->channel.codec.limits.max_elements = 1 << 20;
           }},
          {"local_ssc.alpha", [](FedScOptions* o) { o->local_ssc.alpha = 20; }},
          {"local_ssc.affine",
           [](FedScOptions* o) { o->local_ssc.affine = true; }},
          {"local_ssc.rho", [](FedScOptions* o) { o->local_ssc.rho = 10; }},
          {"local_ssc.max_iterations",
           [](FedScOptions* o) { o->local_ssc.max_iterations = 5; }},
          {"local_ssc.tol", [](FedScOptions* o) { o->local_ssc.tol = 1e-4; }},
          {"local_ssc.drop_tol",
           [](FedScOptions* o) { o->local_ssc.drop_tol = 1e-3; }},
          {"central_ssc.alpha",
           [](FedScOptions* o) { o->central_ssc.alpha = 20; }},
          {"central_ssc.affine",
           [](FedScOptions* o) { o->central_ssc.affine = true; }},
          {"central_ssc.rho", [](FedScOptions* o) { o->central_ssc.rho = 10; }},
          {"central_ssc.max_iterations",
           [](FedScOptions* o) { o->central_ssc.max_iterations = 5; }},
          {"central_ssc.tol",
           [](FedScOptions* o) { o->central_ssc.tol = 1e-4; }},
          {"central_ssc.drop_tol",
           [](FedScOptions* o) { o->central_ssc.drop_tol = 1e-3; }},
          {"central_tsc.q", [](FedScOptions* o) { o->central_tsc.q = 7; }},
          {"local_spectral.kmeans.max_iterations",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.max_iterations = 7;
           }},
          {"local_spectral.kmeans.num_init",
           [](FedScOptions* o) { o->local_spectral.kmeans.num_init = 9; }},
          {"local_spectral.kmeans.init",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.init = KMeansInit::kFarthestFirst;
           }},
          {"local_spectral.kmeans.tol",
           [](FedScOptions* o) { o->local_spectral.kmeans.tol = 1e-3; }},
          {"local_spectral.kmeans.robust.enabled",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.robust.enabled = true;
           }},
          {"local_spectral.kmeans.robust.trim_fraction",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.robust.trim_fraction = 0.2;
           }},
          {"local_spectral.kmeans.robust.center",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.robust.center = KMeansCenter::kMean;
           }},
          {"local_spectral.kmeans.robust.max_group_fraction",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.robust.max_group_fraction = 0.5;
           }},
          {"local_spectral.kmeans.robust.point_group",
           [](FedScOptions* o) {
             o->local_spectral.kmeans.robust.point_group = {0, 1};
           }},
          {"central_spectral.kmeans.max_iterations",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.max_iterations = 7;
           }},
          {"central_spectral.kmeans.num_init",
           [](FedScOptions* o) { o->central_spectral.kmeans.num_init = 9; }},
          {"central_spectral.kmeans.init",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.init = KMeansInit::kFarthestFirst;
           }},
          {"central_spectral.kmeans.tol",
           [](FedScOptions* o) { o->central_spectral.kmeans.tol = 1e-3; }},
          {"central_spectral.kmeans.robust.enabled",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.robust.enabled = true;
           }},
          {"central_spectral.kmeans.robust.trim_fraction",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.robust.trim_fraction = 0.2;
           }},
          {"central_spectral.kmeans.robust.center",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.robust.center = KMeansCenter::kMean;
           }},
          {"central_spectral.kmeans.robust.max_group_fraction",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.robust.max_group_fraction = 0.5;
           }},
          {"central_spectral.kmeans.robust.point_group",
           [](FedScOptions* o) {
             o->central_spectral.kmeans.robust.point_group = {0, 1};
           }},
          {"dp.epsilon", [](FedScOptions* o) { o->dp.epsilon = 0.5; }},
          {"dp.delta", [](FedScOptions* o) { o->dp.delta = 1e-3; }},
          {"dp.sensitivity", [](FedScOptions* o) { o->dp.sensitivity = 1.0; }},
      };
  const FedScOptions base;
  for (const auto& [field, mutate] : label_shaping) {
    FedScOptions changed = base;
    mutate(&changed);
    EXPECT_NE(FedScOptionsFingerprint(base), FedScOptionsFingerprint(changed))
        << field;
  }
}

// ---------------------------------------------------------------------------
// Golden fixtures.

std::string GoldenPath(const char* file) {
  return std::string(FEDSC_TESTDATA_DIR) + "/" + file;
}

bool ReadFileText(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, n);
  }
  std::fclose(f);
  return true;
}

void WriteFileText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << "cannot write " << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

// The golden journal run: fixed config, serial, no stragglers (their delay
// draw goes through libm's log, which we do not want pinned into a fixture).
Result<FedScResult> RunGoldenJournal() {
  auto fed = MakeFederation();
  if (!fed.ok()) return fed.status();
  FedScOptions options;
  options.num_threads = 1;
  options.faults.dropout_rate = 0.25;
  options.faults.transient_rate = 0.25;
  options.faults.byzantine_rate = 0.2;
  options.faults.wire_corrupt_rate = 0.2;
  options.faults.seed = 0x901dULL;
  options.retry.max_attempts = 2;
  options.quorum = 0.3;
  return RunJournaled(*fed, options);
}

TEST(GoldenFixtureTest, JournalFingerprintMatchesTheCommittedLedger) {
  auto result = RunGoldenJournal();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string fingerprint = JournalFingerprint();
  ASSERT_FALSE(fingerprint.empty());

  const std::string path = GoldenPath("journal_golden.jsonl");
  if (std::getenv("FEDSC_UPDATE_GOLDEN") != nullptr) {
    WriteFileText(path, fingerprint);
    return;
  }
  std::string committed;
  ASSERT_TRUE(ReadFileText(path, &committed))
      << "missing golden fixture " << path
      << " (generate with FEDSC_UPDATE_GOLDEN=1)";
  EXPECT_EQ(fingerprint, committed)
      << "journal ledger changed; if intentional, bump kJournalSchemaVersion "
         "as needed and regenerate with FEDSC_UPDATE_GOLDEN=1";
}

// Extracts the sorted set of dotted key paths from a JSON document (arrays
// contribute a "[]" segment). Values are discarded, so the fixture pins the
// report's *layout* — which keys exist where — not its numbers.
class KeyPathScanner {
 public:
  explicit KeyPathScanner(const std::string& json) : json_(json) {}

  std::set<std::string> Scan() {
    pos_ = 0;
    Value("");
    return paths_;
  }

 private:
  void SkipWs() {
    while (pos_ < json_.size() &&
           (json_[pos_] == ' ' || json_[pos_] == '\n' || json_[pos_] == '\t' ||
            json_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string ParseString() {
    EXPECT_EQ(json_[pos_], '"');
    ++pos_;
    std::string out;
    while (pos_ < json_.size() && json_[pos_] != '"') {
      if (json_[pos_] == '\\') ++pos_;
      out += json_[pos_++];
    }
    ++pos_;  // closing quote
    return out;
  }

  void Value(const std::string& prefix) {
    SkipWs();
    if (pos_ >= json_.size()) return;
    const char c = json_[pos_];
    if (c == '{') {
      ++pos_;
      SkipWs();
      while (pos_ < json_.size() && json_[pos_] != '}') {
        const std::string key = ParseString();
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        paths_.insert(path);
        SkipWs();
        EXPECT_EQ(json_[pos_], ':');
        ++pos_;
        Value(path);
        SkipWs();
        if (json_[pos_] == ',') {
          ++pos_;
          SkipWs();
        }
      }
      ++pos_;  // '}'
    } else if (c == '[') {
      ++pos_;
      SkipWs();
      while (pos_ < json_.size() && json_[pos_] != ']') {
        Value(prefix + ".[]");
        SkipWs();
        if (json_[pos_] == ',') {
          ++pos_;
          SkipWs();
        }
      }
      ++pos_;  // ']'
    } else if (c == '"') {
      ParseString();
    } else {
      // number / true / false / null
      while (pos_ < json_.size() && json_[pos_] != ',' && json_[pos_] != '}' &&
             json_[pos_] != ']') {
        ++pos_;
      }
    }
  }

  const std::string& json_;
  size_t pos_ = 0;
  std::set<std::string> paths_;
};

TEST(GoldenFixtureTest, ReportKeyLayoutMatchesTheCommittedSchema) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());

  ResetJournal();
  ResetMetrics();
  ResetTrace();
  EnableJournal(true);
  EnableMetrics(true);
  EnableTracing(true);
  FedScOptions options;
  options.num_threads = 1;
  options.faults.dropout_rate = 0.25;
  options.faults.transient_rate = 0.25;
  options.faults.byzantine_rate = 0.2;
  options.faults.wire_corrupt_rate = 0.2;
  options.faults.seed = 0x901dULL;
  options.retry.max_attempts = 2;
  options.quorum = 0.3;
  auto result = RunFedSc(*fed, 4, options);
  EnableJournal(false);
  EnableMetrics(false);
  EnableTracing(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const RunReport report = BuildRunReport(options, *result);
  const std::string json = RunReportJson(report);
  std::set<std::string> paths = KeyPathScanner(json).Scan();
  // Metrics instrument names are an open set (kernels register freely);
  // drop everything below the five fixed metric sections so new counters do
  // not churn the layout fixture.
  std::set<std::string> pruned;
  for (const std::string& path : paths) {
    static const char* kOpenSets[] = {
        "metrics.counters.", "metrics.execution_counters.", "metrics.gauges.",
        "metrics.execution_gauges.", "metrics.histograms."};
    bool open = false;
    for (const char* prefix : kOpenSets) {
      if (path.rfind(prefix, 0) == 0) {
        // Keep the per-histogram layout once, under a wildcard. Histogram
        // names themselves contain dots, so match on the fixed per-snapshot
        // suffix instead of splitting the name.
        if (path.rfind("metrics.histograms.", 0) == 0) {
          static const char* kHistogramKeys[] = {"count", "sum",  "min", "max",
                                                 "p50",   "p90",  "p99",
                                                 "log2_buckets"};
          const size_t last_dot = path.rfind('.');
          const std::string leaf = path.substr(last_dot + 1);
          for (const char* key : kHistogramKeys) {
            if (leaf == key) {
              pruned.insert(std::string("metrics.histograms.*.") + key);
              break;
            }
          }
        }
        open = true;
        break;
      }
    }
    // Span names inside the profile are likewise open (any instrumented
    // scope may appear); the per-entry keys are pinned via the structs.
    if (!open) pruned.insert(path);
  }
  // Journal payload keys vary with the fault mix; prune to the fixed
  // envelope (v/seq/type/device/sim_ms/wall_ns).
  std::set<std::string> layout;
  static const std::set<std::string> kJournalEnvelope = {
      "journal.[].v",      "journal.[].seq",    "journal.[].type",
      "journal.[].device", "journal.[].sim_ms", "journal.[].wall_ns"};
  for (const std::string& path : pruned) {
    if (path.rfind("journal.[].", 0) == 0 && !kJournalEnvelope.count(path)) {
      continue;
    }
    if (path.rfind("metrics.histograms.*.log2_buckets.", 0) == 0) continue;
    layout.insert(path);
  }
  for (const std::string& path : kJournalEnvelope) {
    EXPECT_TRUE(layout.count(path)) << path;
  }

  std::string rendered;
  for (const std::string& path : layout) {
    rendered += path;
    rendered += "\n";
  }

  const std::string path = GoldenPath("report_layout_golden.txt");
  if (std::getenv("FEDSC_UPDATE_GOLDEN") != nullptr) {
    WriteFileText(path, rendered);
    ResetJournal();
    ResetMetrics();
    ResetTrace();
    return;
  }
  std::string committed;
  ASSERT_TRUE(ReadFileText(path, &committed))
      << "missing golden fixture " << path
      << " (generate with FEDSC_UPDATE_GOLDEN=1)";
  EXPECT_EQ(rendered, committed)
      << "report layout changed; if intentional, bump kReportSchemaVersion, "
         "update scripts/validate_report.py, and regenerate with "
         "FEDSC_UPDATE_GOLDEN=1";
  ResetJournal();
  ResetMetrics();
  ResetTrace();
}

TEST(ProfileTest, FullRunProducesSpansRooflineAndUtilization) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());

  ResetTrace();
  ResetMetrics();
  EnableTracing(true);
  EnableMetrics(true);
  FedScOptions options;
  options.num_threads = 4;
  auto result = RunFedSc(*fed, 4, options);
  EnableTracing(false);
  EnableMetrics(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const ProfileReport profile = BuildProfileReport();
  EXPECT_GT(profile.wall_seconds, 0.0);

  // Spans: fedsc/run must appear, with exclusive <= inclusive everywhere.
  bool saw_run = false;
  bool saw_gemm = false;
  for (const SpanProfileEntry& span : profile.spans) {
    EXPECT_GT(span.count, 0) << span.name;
    EXPECT_GE(span.inclusive_seconds, 0.0) << span.name;
    EXPECT_LE(span.exclusive_seconds, span.inclusive_seconds + 1e-12)
        << span.name;
    EXPECT_LE(span.max_seconds, span.inclusive_seconds + 1e-12) << span.name;
    if (span.name == "fedsc/run") saw_run = true;
    if (span.name == "linalg/gemm") saw_gemm = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_gemm);

  // Roofline: the GEMM row joins its span seconds with flops and bytes.
  bool saw_gemm_roofline = false;
  for (const KernelRooflineEntry& kernel : profile.kernels) {
    if (kernel.span != "linalg/gemm") continue;
    saw_gemm_roofline = true;
    EXPECT_GT(kernel.calls, 0);
    EXPECT_GT(kernel.flops, 0);
    EXPECT_GT(kernel.bytes, 0);
    EXPECT_GT(kernel.seconds, 0.0);
    EXPECT_GT(kernel.achieved_gflops, 0.0);
    EXPECT_GT(kernel.arithmetic_intensity, 0.0);
  }
  EXPECT_TRUE(saw_gemm_roofline);

  // Utilization: at least the main thread's track, busy + idle spanning at
  // most the observed wall range.
  ASSERT_FALSE(profile.threads.empty());
  for (const ThreadUtilizationEntry& thread : profile.threads) {
    EXPECT_GE(thread.busy_seconds, 0.0);
    EXPECT_GE(thread.idle_seconds, 0.0);
    EXPECT_LE(thread.busy_seconds, profile.wall_seconds + 1e-9);
  }

  // The JSON and the human table render without dying.
  const std::string json = ProfileReportJson(profile);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"kernels\""), std::string::npos);
  std::ostringstream table;
  PrintProfileSummary(profile, table);
  EXPECT_NE(table.str().find("span"), std::string::npos);
  EXPECT_NE(table.str().find("linalg/gemm"), std::string::npos);

  ResetTrace();
  ResetMetrics();
}

}  // namespace
}  // namespace fedsc
