#include "core/report.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace fedsc {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  std::string s = buffer;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

std::string CommStatsJson(const CommStats& comm) {
  std::string out = "{";
  out += "\"uplink_values\":" + std::to_string(comm.uplink_values);
  out += ",\"uplink_bits\":" + std::to_string(comm.uplink_bits);
  out += ",\"uplink_wire_bytes\":" + std::to_string(comm.uplink_wire_bytes);
  out += ",\"downlink_values\":" + std::to_string(comm.downlink_values);
  out += ",\"downlink_bits\":" + FormatDouble(comm.downlink_bits);
  out += ",\"rounds\":" + std::to_string(comm.rounds);
  out += ",\"retries\":" + std::to_string(comm.retries);
  out += ",\"timeouts\":" + std::to_string(comm.timeouts);
  out += ",\"sim_uplink_ms\":" + std::to_string(comm.sim_uplink_ms);
  out += "}";
  return out;
}

std::string DeviceReportJson(const DeviceReport& report) {
  std::string out = "{";
  out += "\"device\":" + std::to_string(report.device);
  out += ",\"outcome\":\"" +
         JsonEscape(DeviceOutcomeName(report.outcome)) + "\"";
  out += ",\"attempts\":" + std::to_string(report.attempts);
  out += ",\"uploaded_samples\":" + std::to_string(report.uploaded_samples);
  out += ",\"quarantined_samples\":" +
         std::to_string(report.quarantined_samples);
  out += ",\"status\":\"" + JsonEscape(report.status.ToString()) + "\"";
  out += ",\"screen_statistic\":\"" +
         JsonEscape(report.screen_statistic) + "\"";
  out += "}";
  return out;
}

}  // namespace

std::string FedScOptionsFingerprint(const FedScOptions& options) {
  // Every option field that shapes the run's deterministic outputs, in a
  // fixed order. Left out: num_threads and the SSC deadline_seconds, which
  // only the wall clock reads (see the header), and the two seeds the round
  // overwrites from `seed` before use, local_spectral.kmeans.seed,
  // central_spectral.kmeans.seed and central_sketch.seed.
  std::string text;
  const auto add = [&text](const std::string& value) {
    text += value;
    text += "|";
  };
  const auto add_ssc = [&add](const SscAdmmOptions& ssc) {
    add(FormatDouble(ssc.alpha));
    add(std::to_string(ssc.affine));
    add(FormatDouble(ssc.rho));
    add(std::to_string(ssc.max_iterations));
    add(FormatDouble(ssc.tol));
    add(FormatDouble(ssc.drop_tol));
  };
  const auto add_spectral = [&add](const SpectralOptions& spectral) {
    const KMeansOptions& kmeans = spectral.kmeans;
    add(std::to_string(kmeans.max_iterations));
    add(std::to_string(kmeans.num_init));
    add(std::to_string(static_cast<int>(kmeans.init)));
    add(FormatDouble(kmeans.tol));
    add(std::to_string(kmeans.robust.enabled));
    add(FormatDouble(kmeans.robust.trim_fraction));
    add(std::to_string(static_cast<int>(kmeans.robust.center)));
    add(FormatDouble(kmeans.robust.max_group_fraction));
    add(std::to_string(kmeans.robust.point_group.size()));
    for (int64_t group : kmeans.robust.point_group) {
      add(std::to_string(group));
    }
  };
  add(ScMethodKey(options.central_method));
  add(CentralPathName(options.central));
  add(std::to_string(options.central_sketch.dim));
  add(SketchKindName(options.central_sketch.kind));
  add_ssc(options.local_ssc);
  add_ssc(options.central_ssc);
  add(std::to_string(options.central_tsc.q));
  add_spectral(options.local_spectral);
  add_spectral(options.central_spectral);
  add(std::to_string(options.use_eigengap));
  add(std::to_string(options.max_local_clusters));
  add(std::to_string(options.sample_dim));
  add(FormatDouble(options.rank_rel_tol));
  add(std::to_string(options.samples_per_cluster));
  add(FormatDouble(options.trim_fraction));
  add(FormatDouble(options.channel.noise_delta));
  add(std::to_string(options.channel.seed));
  add(CodecModeName(options.channel.codec.mode));
  add(std::to_string(options.channel.codec.quant_bits));
  add(FormatDouble(options.channel.codec.quant_range));
  add(std::to_string(options.channel.codec.raw_f32));
  add(std::to_string(options.channel.codec.limits.max_elements));
  add(FormatDouble(options.faults.dropout_rate));
  add(FormatDouble(options.faults.straggler_rate));
  add(FormatDouble(options.faults.straggler_mean_delay_ms));
  add(FormatDouble(options.faults.transient_rate));
  add(std::to_string(options.faults.max_transient_failures));
  add(FormatDouble(options.faults.corrupt_rate));
  add(FormatDouble(options.faults.byzantine_rate));
  add(ByzantineModeName(options.faults.byzantine_mode));
  add(std::to_string(options.faults.collude_dim));
  add(FormatDouble(options.faults.mimic_angle_deg));
  add(FormatDouble(options.faults.wire_corrupt_rate));
  add(std::to_string(options.faults.seed));
  add(std::to_string(options.retry.max_attempts));
  add(std::to_string(options.retry.timeout_ms));
  add(std::to_string(options.retry.base_backoff_ms));
  add(FormatDouble(options.retry.backoff_multiplier));
  add(FormatDouble(options.retry.jitter_fraction));
  add(FormatDouble(options.validation.min_norm));
  add(FormatDouble(options.validation.max_norm));
  add(FormatDouble(options.quorum));
  add(std::to_string(options.defense.enabled));
  add(FormatDouble(options.defense.trim_fraction));
  add(std::to_string(static_cast<int>(options.defense.robust_center)));
  add(FormatDouble(options.defense.max_device_fraction));
  add(std::to_string(options.use_dp));
  add(FormatDouble(options.dp.epsilon));
  add(FormatDouble(options.dp.delta));
  add(FormatDouble(options.dp.sensitivity));
  add(std::to_string(options.seed));
  return HexDigest64(Fnv1a64(text));
}

RunReport BuildRunReport(uint64_t seed, uint64_t fault_seed,
                         int num_threads) {
  RunReport report;
  report.manifest = CollectRunManifest();
  report.manifest.seed = seed;
  report.manifest.fault_seed = fault_seed;
  report.manifest.num_threads = num_threads;
  report.journal = SnapshotJournal();
  report.profile = BuildProfileReport();
  report.metrics = SnapshotMetrics();
  return report;
}

RunReport BuildRunReport(const FedScOptions& options,
                         const FedScResult& result) {
  RunReport report =
      BuildRunReport(options.seed, options.faults.seed, options.num_threads);
  report.manifest.options_fingerprint = FedScOptionsFingerprint(options);
  report.has_run = true;
  report.devices = static_cast<int64_t>(result.device_reports.size());
  report.participating_devices = result.participating_devices;
  report.total_samples = result.total_samples;
  report.quarantined_samples = result.quarantined_samples;
  report.screened_devices = result.screened_devices;
  report.device_reports = result.device_reports;
  report.comm = result.comm;
  return report;
}

std::string RunReportJson(const RunReport& report) {
  std::string out = "{\"schema_version\":" +
                    std::to_string(kReportSchemaVersion);
  out += ",\"journal_schema_version\":" +
         std::to_string(kJournalSchemaVersion);
  out += ",\"manifest\":" + RunManifestJson(report.manifest);

  if (report.has_run) {
    out += ",\"run\":{";
    out += "\"devices\":" + std::to_string(report.devices);
    out += ",\"participating_devices\":" +
           std::to_string(report.participating_devices);
    out += ",\"total_samples\":" + std::to_string(report.total_samples);
    out += ",\"quarantined_samples\":" +
           std::to_string(report.quarantined_samples);
    out += ",\"screened_devices\":" +
           std::to_string(report.screened_devices);
    out += ",\"comm\":" + CommStatsJson(report.comm);
    out += ",\"device_reports\":[";
    for (size_t i = 0; i < report.device_reports.size(); ++i) {
      if (i > 0) out += ",";
      out += DeviceReportJson(report.device_reports[i]);
    }
    out += "]}";
  } else {
    out += ",\"run\":null";
  }

  out += ",\"journal\":[";
  for (size_t i = 0; i < report.journal.size(); ++i) {
    if (i > 0) out += ",";
    out += JournalEventJson(report.journal[i], /*include_wall=*/true);
  }
  out += "]";

  out += ",\"profile\":" + ProfileReportJson(report.profile);

  // The flat metrics document, embedded verbatim (it is already JSON).
  std::ostringstream metrics_os;
  {
    // WriteMetricsJson reads the global registry; render from the snapshot
    // we captured instead so the report is internally consistent even if
    // instruments moved since. The registry writer is snapshot-driven in
    // layout, so re-serialize the same shapes here.
    metrics_os << "{";
    const auto write_int_map =
        [&metrics_os](const char* key,
                      const std::map<std::string, int64_t>& map, bool comma) {
          metrics_os << "\"" << key << "\":{";
          bool first = true;
          for (const auto& [name, value] : map) {
            if (!first) metrics_os << ",";
            metrics_os << "\"" << JsonEscape(name) << "\":" << value;
            first = false;
          }
          metrics_os << "}" << (comma ? "," : "");
        };
    const auto write_double_map =
        [&metrics_os](const char* key,
                      const std::map<std::string, double>& map, bool comma) {
          metrics_os << "\"" << key << "\":{";
          bool first = true;
          for (const auto& [name, value] : map) {
            if (!first) metrics_os << ",";
            metrics_os << "\"" << JsonEscape(name)
                       << "\":" << FormatDouble(value);
            first = false;
          }
          metrics_os << "}" << (comma ? "," : "");
        };
    write_int_map("counters", report.metrics.counters, true);
    write_int_map("execution_counters", report.metrics.execution_counters,
                  true);
    write_double_map("gauges", report.metrics.gauges, true);
    write_double_map("execution_gauges", report.metrics.execution_gauges,
                     true);
    metrics_os << "\"histograms\":{";
    bool first = true;
    for (const auto& [name, h] : report.metrics.histograms) {
      if (!first) metrics_os << ",";
      first = false;
      metrics_os << "\"" << JsonEscape(name) << "\":{\"count\":" << h.count
                 << ",\"sum\":" << h.sum << ",\"min\":" << h.min
                 << ",\"max\":" << h.max
                 << ",\"p50\":" << FormatDouble(h.Percentile(0.50))
                 << ",\"p90\":" << FormatDouble(h.Percentile(0.90))
                 << ",\"p99\":" << FormatDouble(h.Percentile(0.99))
                 << ",\"log2_buckets\":{";
      bool first_bucket = true;
      for (const auto& [bits, count] : h.buckets) {
        if (!first_bucket) metrics_os << ",";
        metrics_os << "\"" << bits << "\":" << count;
        first_bucket = false;
      }
      metrics_os << "}}";
    }
    metrics_os << "}}";
  }
  out += ",\"metrics\":" + metrics_os.str();

  out += "}";
  return out;
}

void WriteRunReportJson(const RunReport& report, std::ostream& os) {
  os << RunReportJson(report) << "\n";
}

Status WriteRunReportJsonFile(const RunReport& report,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open report output file " + path);
  }
  WriteRunReportJson(report, out);
  out.flush();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace fedsc
