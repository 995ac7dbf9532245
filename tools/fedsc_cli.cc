// fedsc_cli: run the complete one-shot federated subspace clustering
// pipeline on a CSV dataset from the command line.
//
//   fedsc_cli --input data.csv --clusters 8 --devices 40 ...
//             [--clusters-per-device 2] [--clusters-per-device-max 0] ...
//             [--central ssc|tsc|exact|sketch|auto] [--noise 0.0] ...
//             [--sketch-dim 0] [--landmarks uniform|leverage] ...
//             [--threads 1] ...
//             [--fixed-r N] [--sample-dim 0] [--trim 0.0] ...
//             [--quantize-bits 0] [--seed 42] [--output labels.csv] ...
//             [--dropout 0.0] [--straggler 0.0] [--transient 0.0] ...
//             [--corrupt 0.0] [--byzantine 0.0] [--wire-corrupt 0.0] ...
//             [--byzantine-mode random|collude|mimic] [--fault-seed S] ...
//             [--defense on|off] [--defense-trim 0.1] ...
//             [--quorum 1.0] [--max-attempts 1] [--timeout-ms 1000] ...
//             [--codec raw|quant] [--wire-dump msg.wire] ...
//             [--trace-out trace.json] [--metrics-out metrics.json]
//
// Flags accept both "--flag value" and "--flag=value". The input format is
// LoadDatasetCsv's: label,feature_1,...,feature_n per line. Ground-truth
// labels (the first column) are used only for the reported ACC/NMI; pass
// zeros if you have none. With --output, the predicted label of every point
// is written one per line, in input order.
//
// The fault flags drive the deterministic failure model (fed/faults.h):
// --dropout/--straggler/--transient/--corrupt/--byzantine are per-device
// fault probabilities, --max-attempts and --timeout-ms bound the retrying
// uplink, and --quorum is the participation fraction required for the round
// to proceed. Points on failed devices are reported with label -1 (excluded
// from ACC/NMI; written as -1 to --output). --byzantine-mode picks the
// attack strategy (random unit vectors, a colluding common subspace, or
// subspace mimicry); --defense on enables the Byzantine screening +
// robust central k-engine (fed/defense.h), and --defense-trim overrides its
// trimmed-assignment fraction. Screened devices are reported like
// quarantined ones, with the triggering statistic.
//
// --codec picks the uplink serialization (fed/codec.h): raw ships f64
// samples verbatim, quant packs them at --quantize-bits bits per value
// (default 8); --quantize-bits B > 0 alone also selects quant. Every
// upload actually crosses the versioned wire format, so the
// reported comm figures are true serialized byte counts. --wire-dump writes
// the first transmitted wire message to a file for offline inspection;
// --wire-corrupt is the per-device probability of in-flight byte damage
// (detected by CRC and quarantined).
//
// --central takes both vocabularies: ssc|tsc picks the Phase-2 clustering
// method, and exact|sketch|auto picks the central engine (sc/pipeline.h
// CentralPath) — pass the flag twice to set both, e.g.
// "--central tsc --central sketch". auto (the default) switches to the
// sketched dictionary + landmark spectral path at kSketchedCutoffN pooled
// samples. --sketch-dim overrides the sketch width d (0 = shape rule);
// --landmarks picks the dictionary's column landmarks: uniform (default)
// or leverage (ridge leverage-score sampling).
//
// --trace-out records scoped spans across the run and writes Chrome
// trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev),
// plus an aggregate span table on stdout. --metrics-out writes the kernel
// metrics registry (ADMM iterations, Jacobi sweeps, GEMM flops, comm bits,
// ...) as flat JSON, with p50/p90/p99 estimates on every histogram.
//
// --report-out writes the full RunReport (core/report.h): provenance
// manifest, per-device journal on the simulated clock, span/roofline
// profile, and the metrics snapshot, in one schema-versioned JSON document.
// --journal-out writes the event journal alone as JSONL. Render a report
// with scripts/render_report.py; validate with scripts/validate_report.py.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/isa.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/fedsc.h"
#include "core/report.h"
#include "data/io.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"

namespace {

struct CliOptions {
  std::string input;
  std::string output;
  int64_t clusters = 0;
  int64_t devices = 0;
  int64_t clusters_per_device = 0;
  int64_t clusters_per_device_max = 0;
  std::string central = "ssc";
  std::string central_path = "auto";
  int64_t sketch_dim = 0;
  std::string landmarks = "uniform";
  double noise = 0.0;
  int threads = 1;
  int64_t fixed_r = 0;
  int64_t sample_dim = 0;
  double trim = 0.0;
  int quantize_bits = 0;
  uint64_t seed = 42;
  double dropout = 0.0;
  double straggler = 0.0;
  double transient = 0.0;
  double corrupt = 0.0;
  double byzantine = 0.0;
  std::string byzantine_mode = "random";
  double wire_corrupt = 0.0;
  uint64_t fault_seed = 0x5eed'FA17ULL;
  std::string defense = "off";
  double defense_trim = -1.0;  // < 0: keep the DefenseOptions default
  std::string codec = "raw";
  std::string wire_dump;
  double quorum = 1.0;
  int max_attempts = 1;
  int64_t timeout_ms = 1000;
  std::string trace_out;
  std::string metrics_out;
  std::string report_out;
  std::string journal_out;
};

void PrintUsage(const char* binary) {
  std::fprintf(
      stderr,
      "usage: %s --input data.csv --clusters L --devices Z\n"
      "  [--clusters-per-device L'] [--clusters-per-device-max M]\n"
      "  [--central ssc|tsc|exact|sketch|auto] [--noise delta]\n"
      "  [--sketch-dim d] [--landmarks uniform|leverage] [--threads T]\n"
      "  [--fixed-r R] [--sample-dim D] [--trim F]\n"
      "  [--quantize-bits B] [--seed S] [--output labels.csv]\n"
      "  [--dropout P] [--straggler P] [--transient P]\n"
      "  [--corrupt P] [--byzantine P] [--wire-corrupt P] [--fault-seed S]\n"
      "  [--byzantine-mode random|collude|mimic]\n"
      "  [--defense on|off] [--defense-trim F]\n"
      "  [--quorum F] [--max-attempts A] [--timeout-ms T]\n"
      "  [--codec raw|quant] [--wire-dump msg.wire]\n"
      "  [--trace-out trace.json] [--metrics-out metrics.json]\n"
      "  [--report-out report.json] [--journal-out journal.jsonl]\n"
      "  [--print-isa]\n",
      binary);
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // "--flag=value" splits into the flag and an inline value that next()
    // hands back instead of consuming argv[i + 1].
    std::string inline_value;
    bool has_inline = false;
    if (flag.rfind("--", 0) == 0) {
      const size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        inline_value = flag.substr(eq + 1);
        flag.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* value = nullptr;
    if (flag == "--input") {
      if ((value = next()) == nullptr) return false;
      options->input = value;
    } else if (flag == "--output") {
      if ((value = next()) == nullptr) return false;
      options->output = value;
    } else if (flag == "--clusters") {
      if ((value = next()) == nullptr) return false;
      options->clusters = std::atoll(value);
    } else if (flag == "--devices") {
      if ((value = next()) == nullptr) return false;
      options->devices = std::atoll(value);
    } else if (flag == "--clusters-per-device") {
      if ((value = next()) == nullptr) return false;
      options->clusters_per_device = std::atoll(value);
    } else if (flag == "--clusters-per-device-max") {
      if ((value = next()) == nullptr) return false;
      options->clusters_per_device_max = std::atoll(value);
    } else if (flag == "--central") {
      if ((value = next()) == nullptr) return false;
      // One flag, two vocabularies: ssc|tsc is the Phase-2 method,
      // everything else is the engine path (validated below).
      if (std::string(value) == "ssc" || std::string(value) == "tsc") {
        options->central = value;
      } else {
        options->central_path = value;
      }
    } else if (flag == "--sketch-dim") {
      if ((value = next()) == nullptr) return false;
      options->sketch_dim = std::atoll(value);
    } else if (flag == "--landmarks") {
      if ((value = next()) == nullptr) return false;
      options->landmarks = value;
    } else if (flag == "--noise") {
      if ((value = next()) == nullptr) return false;
      options->noise = std::atof(value);
    } else if (flag == "--threads") {
      if ((value = next()) == nullptr) return false;
      options->threads = std::atoi(value);
    } else if (flag == "--fixed-r") {
      if ((value = next()) == nullptr) return false;
      options->fixed_r = std::atoll(value);
    } else if (flag == "--sample-dim") {
      if ((value = next()) == nullptr) return false;
      options->sample_dim = std::atoll(value);
    } else if (flag == "--trim") {
      if ((value = next()) == nullptr) return false;
      options->trim = std::atof(value);
    } else if (flag == "--quantize-bits") {
      if ((value = next()) == nullptr) return false;
      options->quantize_bits = std::atoi(value);
    } else if (flag == "--seed") {
      if ((value = next()) == nullptr) return false;
      options->seed = static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--dropout") {
      if ((value = next()) == nullptr) return false;
      options->dropout = std::atof(value);
    } else if (flag == "--straggler") {
      if ((value = next()) == nullptr) return false;
      options->straggler = std::atof(value);
    } else if (flag == "--transient") {
      if ((value = next()) == nullptr) return false;
      options->transient = std::atof(value);
    } else if (flag == "--corrupt") {
      if ((value = next()) == nullptr) return false;
      options->corrupt = std::atof(value);
    } else if (flag == "--byzantine") {
      if ((value = next()) == nullptr) return false;
      options->byzantine = std::atof(value);
    } else if (flag == "--byzantine-mode") {
      if ((value = next()) == nullptr) return false;
      options->byzantine_mode = value;
    } else if (flag == "--defense") {
      if ((value = next()) == nullptr) return false;
      options->defense = value;
    } else if (flag == "--defense-trim") {
      if ((value = next()) == nullptr) return false;
      options->defense_trim = std::atof(value);
    } else if (flag == "--wire-corrupt") {
      if ((value = next()) == nullptr) return false;
      options->wire_corrupt = std::atof(value);
    } else if (flag == "--codec") {
      if ((value = next()) == nullptr) return false;
      options->codec = value;
    } else if (flag == "--wire-dump") {
      if ((value = next()) == nullptr) return false;
      options->wire_dump = value;
    } else if (flag == "--fault-seed") {
      if ((value = next()) == nullptr) return false;
      options->fault_seed = static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--quorum") {
      if ((value = next()) == nullptr) return false;
      options->quorum = std::atof(value);
    } else if (flag == "--max-attempts") {
      if ((value = next()) == nullptr) return false;
      options->max_attempts = std::atoi(value);
    } else if (flag == "--timeout-ms") {
      if ((value = next()) == nullptr) return false;
      options->timeout_ms = std::atoll(value);
    } else if (flag == "--trace-out") {
      if ((value = next()) == nullptr) return false;
      options->trace_out = value;
    } else if (flag == "--metrics-out") {
      if ((value = next()) == nullptr) return false;
      options->metrics_out = value;
    } else if (flag == "--report-out") {
      if ((value = next()) == nullptr) return false;
      options->report_out = value;
    } else if (flag == "--journal-out") {
      if ((value = next()) == nullptr) return false;
      options->journal_out = value;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr,
                   "invalid argument: unknown flag %s (see --help for the "
                   "accepted flags)\n",
                   flag.c_str());
      return false;
    }
  }
  if (options->input.empty() || options->clusters < 1 ||
      options->devices < 1) {
    std::fprintf(stderr,
                 "--input, --clusters and --devices are required\n");
    return false;
  }
  if (options->central_path != "auto" && options->central_path != "exact" &&
      options->central_path != "sketch") {
    std::fprintf(stderr,
                 "--central must be 'ssc', 'tsc', 'exact', 'sketch' or "
                 "'auto', got '%s'\n",
                 options->central_path.c_str());
    return false;
  }
  if (options->landmarks != "uniform" && options->landmarks != "leverage") {
    std::fprintf(stderr,
                 "--landmarks must be 'uniform' or 'leverage', got '%s'\n",
                 options->landmarks.c_str());
    return false;
  }
  if (options->codec != "raw" && options->codec != "quant") {
    std::fprintf(stderr, "--codec must be 'raw' or 'quant'\n");
    return false;
  }
  if (options->byzantine_mode != "random" &&
      options->byzantine_mode != "collude" &&
      options->byzantine_mode != "mimic") {
    std::fprintf(stderr,
                 "invalid argument: --byzantine-mode must be 'random', "
                 "'collude' or 'mimic', got '%s'\n",
                 options->byzantine_mode.c_str());
    return false;
  }
  if (options->defense != "on" && options->defense != "off") {
    std::fprintf(stderr,
                 "invalid argument: --defense must be 'on' or 'off', got "
                 "'%s'\n",
                 options->defense.c_str());
    return false;
  }
  if (options->defense_trim >= 0.0 &&
      !(options->defense_trim <= 0.5)) {
    std::fprintf(stderr,
                 "invalid argument: --defense-trim must lie in [0, 0.5], "
                 "got %g\n",
                 options->defense_trim);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedsc;
  // --print-isa: report the micro-kernel dispatch (common/isa.h) and exit.
  // Resolution honors FEDSC_FORCE_ISA, so forcing an unsupported tier makes
  // this abort non-zero — scripts/run_all.sh uses that as its "can this
  // host run the forced tier?" probe.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-isa") == 0) {
      const IsaDispatch& dispatch = ResolveDefaultIsa();
      std::printf("cpu_isa %s\ngemm_isa %s\nisa_pin_source %s\n",
                  CpuIsaName(BestSupportedIsa()), CpuIsaName(dispatch.chosen),
                  dispatch.pin_source);
      return 0;
    }
  }
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage(argv[0]);
    return 2;
  }

  auto data = LoadDatasetCsv(cli.input);
  if (!data.ok()) {
    std::fprintf(stderr, "loading %s failed: %s\n", cli.input.c_str(),
                 data.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld points of dimension %lld (%lld ground-truth "
              "classes)\n",
              static_cast<long long>(data->points.cols()),
              static_cast<long long>(data->points.rows()),
              static_cast<long long>(data->num_clusters));

  PartitionOptions partition;
  partition.num_devices = cli.devices;
  partition.clusters_per_device = cli.clusters_per_device;
  partition.clusters_per_device_max = cli.clusters_per_device_max;
  partition.seed = cli.seed ^ 0x9E3779B97F4A7C15ULL;
  auto fed = PartitionAcrossDevices(*data, partition);
  if (!fed.ok()) {
    std::fprintf(stderr, "partition failed: %s\n",
                 fed.status().ToString().c_str());
    return 1;
  }

  FedScOptions options;
  options.central_method =
      cli.central == "tsc" ? ScMethod::kTsc : ScMethod::kSsc;
  options.central = cli.central_path == "exact"
                        ? CentralPath::kExact
                        : cli.central_path == "sketch"
                              ? CentralPath::kSketched
                              : CentralPath::kAuto;
  options.central_sketch.dim = cli.sketch_dim;
  options.central_sketch.kind = cli.landmarks == "leverage"
                                    ? SketchKind::kLeverageLandmarks
                                    : SketchKind::kUniformLandmarks;
  options.channel.noise_delta = cli.noise;
  if (cli.codec == "quant" || cli.quantize_bits > 0) {
    options.channel.codec.mode = CodecMode::kUniformQuant;
    if (cli.quantize_bits > 0) {
      options.channel.codec.quant_bits = cli.quantize_bits;
    }
  }
  // --wire-dump: capture the first transmitted uplink message.
  std::vector<uint8_t> first_wire;
  if (!cli.wire_dump.empty()) {
    options.channel.wire_sink = [&first_wire](
                                    int64_t, const std::vector<uint8_t>& w) {
      if (first_wire.empty()) first_wire = w;
    };
  }
  options.num_threads = cli.threads;
  if (cli.fixed_r > 0) {
    options.use_eigengap = false;
    options.max_local_clusters = cli.fixed_r;
  }
  options.sample_dim = cli.sample_dim;
  options.trim_fraction = cli.trim;
  options.seed = cli.seed;
  options.faults.dropout_rate = cli.dropout;
  options.faults.straggler_rate = cli.straggler;
  options.faults.transient_rate = cli.transient;
  options.faults.corrupt_rate = cli.corrupt;
  options.faults.byzantine_rate = cli.byzantine;
  options.faults.byzantine_mode =
      cli.byzantine_mode == "collude"
          ? ByzantineMode::kCollude
          : cli.byzantine_mode == "mimic" ? ByzantineMode::kMimic
                                          : ByzantineMode::kRandom;
  options.faults.wire_corrupt_rate = cli.wire_corrupt;
  options.faults.seed = cli.fault_seed;
  options.defense.enabled = cli.defense == "on";
  if (cli.defense_trim >= 0.0) {
    options.defense.trim_fraction = cli.defense_trim;
  }
  options.quorum = cli.quorum;
  options.retry.max_attempts = cli.max_attempts;
  options.retry.timeout_ms = cli.timeout_ms;

  // A report needs every surface: spans for the profile, metrics for the
  // roofline join and the snapshot, the journal for the event ledger. The
  // report itself is built at output time (below), once every span has
  // closed, rather than via FedScOptions::collect_report.
  const bool want_report = !cli.report_out.empty();
  if (!cli.trace_out.empty() || want_report) EnableTracing(true);
  if (!cli.metrics_out.empty() || want_report) EnableMetrics(true);
  if (!cli.journal_out.empty() || want_report) EnableJournal(true);

  auto result = RunFedSc(*fed, cli.clusters, options);
  if (!result.ok()) {
    std::fprintf(stderr, "Fed-SC failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // Points on failed devices carry the sentinel label; quality metrics are
  // computed over the covered subset only.
  std::vector<int64_t> covered_truth;
  std::vector<int64_t> covered_pred;
  for (size_t i = 0; i < result->global_labels.size(); ++i) {
    if (result->global_labels[i] == FedScResult::kFailedDeviceLabel) continue;
    covered_truth.push_back(data->labels[i]);
    covered_pred.push_back(result->global_labels[i]);
  }
  if (covered_truth.empty()) {
    std::fprintf(stderr, "no device delivered a usable upload\n");
    return 1;
  }
  std::printf("ACC  %.2f%%", ClusteringAccuracy(covered_truth, covered_pred));
  if (covered_truth.size() < result->global_labels.size()) {
    std::printf("  (over %zu of %zu covered points)", covered_truth.size(),
                result->global_labels.size());
  }
  std::printf("\n");
  std::printf("NMI  %.2f%%\n",
              NormalizedMutualInformation(covered_truth, covered_pred));
  std::printf("time %.3fs (local sum) + %.3fs (server); %lld round%s\n",
              result->local_seconds, result->central_seconds,
              static_cast<long long>(result->comm.rounds),
              result->comm.rounds == 1 ? "" : "s");
  std::printf("comm %.1f kb up (%lld wire bytes, %s codec) / %.2f kb down "
              "(%lld samples)\n",
              static_cast<double>(result->comm.uplink_bits) / 1000.0,
              static_cast<long long>(result->comm.uplink_wire_bytes),
              CodecModeName(options.channel.codec.mode),
              result->comm.downlink_bits / 1000.0,
              static_cast<long long>(result->total_samples));
  if (!result->failed_devices.empty() || result->comm.retries > 0 ||
      result->quarantined_samples > 0) {
    std::printf("degraded round: %lld/%lld devices participated, "
                "%lld samples quarantined, %lld devices screened, "
                "%lld retries, %lld timeouts, %lld ms simulated uplink\n",
                static_cast<long long>(result->participating_devices),
                static_cast<long long>(fed->num_devices()),
                static_cast<long long>(result->quarantined_samples),
                static_cast<long long>(result->screened_devices),
                static_cast<long long>(result->comm.retries),
                static_cast<long long>(result->comm.timeouts),
                static_cast<long long>(result->comm.sim_uplink_ms));
    for (const DeviceReport& report : result->device_reports) {
      if (report.outcome == DeviceOutcome::kOk) continue;
      if (report.outcome == DeviceOutcome::kScreened) {
        std::printf("  device %lld: screened by the defense (%s)\n",
                    static_cast<long long>(report.device),
                    report.screen_statistic.c_str());
        continue;
      }
      std::printf("  device %lld: %s after %d attempt%s (%s)\n",
                  static_cast<long long>(report.device),
                  DeviceOutcomeName(report.outcome), report.attempts,
                  report.attempts == 1 ? "" : "s",
                  report.status.ToString().c_str());
    }
  }

  if (!cli.wire_dump.empty()) {
    if (first_wire.empty()) {
      std::fprintf(stderr, "no uplink message transmitted; nothing to dump\n");
    } else {
      std::ofstream out(cli.wire_dump, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", cli.wire_dump.c_str());
        return 1;
      }
      out.write(reinterpret_cast<const char*>(first_wire.data()),
                static_cast<std::streamsize>(first_wire.size()));
      std::printf("wrote first uplink wire message (%zu bytes) to %s\n",
                  first_wire.size(), cli.wire_dump.c_str());
    }
  }
  // Fail loudly, with the typed status, before writing a silently-broken
  // trace or a report whose profile section was built from malformed spans.
  if (!cli.trace_out.empty() || want_report) {
    const Status well_formed = CheckTraceWellFormed();
    if (!well_formed.ok()) {
      std::fprintf(stderr, "trace is malformed; refusing to write %s: %s\n",
                   !cli.trace_out.empty() ? cli.trace_out.c_str()
                                          : cli.report_out.c_str(),
                   well_formed.ToString().c_str());
      return 1;
    }
  }
  if (!cli.trace_out.empty()) {
    const Status written = WriteChromeTraceFile(cli.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                cli.trace_out.c_str());
    PrintTraceSummary(std::cout);
  }
  if (!cli.metrics_out.empty()) {
    const Status written = WriteMetricsJsonFile(cli.metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "writing metrics failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics to %s\n", cli.metrics_out.c_str());
  }
  if (!cli.journal_out.empty()) {
    const Status written = WriteJournalJsonlFile(cli.journal_out);
    if (!written.ok()) {
      std::fprintf(stderr, "writing journal failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote run journal to %s\n", cli.journal_out.c_str());
  }
  if (want_report) {
    const RunReport report = BuildRunReport(options, *result);
    const Status written = WriteRunReportJsonFile(report, cli.report_out);
    if (!written.ok()) {
      std::fprintf(stderr, "writing report failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote run report to %s (render with "
                "scripts/render_report.py)\n",
                cli.report_out.c_str());
  }

  if (!cli.output.empty()) {
    std::ofstream out(cli.output);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", cli.output.c_str());
      return 1;
    }
    for (int64_t label : result->global_labels) out << label << '\n';
    std::printf("wrote %zu labels to %s\n", result->global_labels.size(),
                cli.output.c_str());
  }
  return 0;
}
