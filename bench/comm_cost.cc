// Communication-cost accounting (Section IV-E): measured uplink/downlink
// bits of Fed-SC and k-FED as functions of Z, against the paper's analytic
// formulas — uplink n*q*sum_z r^(z) bits, downlink sum_z r^(z) * log2(L)
// bits, one round total. Also reports the 8-bit quantized uplink.
//
// The second table is the accuracy-vs-bits frontier over the serialized
// uplink codecs (fed/codec.h) at D=1024, subspace dim m=4: raw f64/f32 and
// uniform quantization at 2/4/8/16 bits. Wire bytes are the true serialized
// message sizes (CommStats::uplink_wire_bytes), headers and CRCs included.
// With --json-out=PATH the frontier is also written as JSON for
// scripts/bench_baseline.sh, which folds it into BENCH_linalg.json where
// scripts/check_bench_json.py checks every codec row is present.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/codec.h"
#include "fed/kfed.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

constexpr int64_t kAmbientDim = 20;
constexpr int64_t kSubspaceDim = 4;
constexpr int64_t kNumSubspaces = 10;
constexpr int64_t kLPrime = 2;

void Run(bool csv) {
  bench::Table table({"Z", "method", "ACC a%", "uplink kb", "downlink kb",
                      "rounds", "analytic uplink kb"});
  for (int64_t num_devices : {25, 50, 100, 200}) {
    const int64_t holders =
        std::max<int64_t>(1, num_devices * kLPrime / kNumSubspaces);
    SyntheticOptions synth;
    synth.ambient_dim = kAmbientDim;
    synth.subspace_dim = kSubspaceDim;
    synth.num_subspaces = kNumSubspaces;
    synth.points_per_subspace = holders * 8;
    synth.seed = 0xC057'0000ULL + static_cast<uint64_t>(num_devices);
    auto data = GenerateUnionOfSubspaces(synth);
    if (!data.ok()) continue;
    PartitionOptions partition;
    partition.num_devices = num_devices;
    partition.clusters_per_device = kLPrime;
    partition.seed = 0xC057'1111ULL + static_cast<uint64_t>(num_devices);
    auto fed = PartitionAcrossDevices(*data, partition);
    if (!fed.ok()) continue;

    auto add = [&](const char* method, double acc, const CommStats& comm,
                   double analytic_kb) {
      table.AddRow({bench::Fmt(num_devices), method, bench::Fmt(acc),
                    bench::Fmt(static_cast<double>(comm.uplink_bits) / 1000.0,
                               1),
                    bench::Fmt(comm.downlink_bits / 1000.0, 2),
                    bench::Fmt(static_cast<int64_t>(comm.rounds)),
                    analytic_kb > 0 ? bench::Fmt(analytic_kb, 1)
                                    : std::string("-")});
    };

    {
      FedScOptions options;
      auto result = RunFedSc(*fed, kNumSubspaces, options);
      if (result.ok()) {
        // Section IV-E: n * q * sum_z r^(z).
        const double analytic_kb =
            static_cast<double>(kAmbientDim) * 64.0 *
            static_cast<double>(result->total_samples) / 1000.0;
        add("Fed-SC (SSC)",
            ClusteringAccuracy(data->labels, result->global_labels),
            result->comm, analytic_kb);
      }
    }
    {
      FedScOptions options;
      options.channel.codec.mode = CodecMode::kUniformQuant;
      options.channel.codec.quant_bits = 8;
      auto result = RunFedSc(*fed, kNumSubspaces, options);
      if (result.ok()) {
        add("Fed-SC (SSC, 8-bit)",
            ClusteringAccuracy(data->labels, result->global_labels),
            result->comm, 0.0);
      }
    }
    {
      KFedOptions options;
      options.local_k = kLPrime;
      auto result = RunKFed(*fed, kNumSubspaces, options);
      if (result.ok()) {
        add("k-FED", ClusteringAccuracy(data->labels, result->global_labels),
            result->comm, 0.0);
      }
    }
  }
  std::printf("Communication cost — Section IV-E accounting (n=%ld, L=%ld, "
              "L'=%ld)\n",
              static_cast<long>(kAmbientDim),
              static_cast<long>(kNumSubspaces), static_cast<long>(kLPrime));
  table.Print(csv);
}

// One codec point on the accuracy-vs-bits frontier.
struct FrontierPoint {
  std::string key;      // JSON key, e.g. "quant_8"
  std::string label;    // table label, e.g. "quant 8-bit"
  double acc = 0.0;     // ACC a% in [0, 100]
  int64_t wire_bytes = 0;
  double reduction = 0.0;  // raw-f64 bytes / this codec's bytes
};

// Accuracy-vs-bits frontier at D=1024, subspace dim m=4. Devices upload
// samples_per_cluster=12 samples per local cluster from its estimated
// (rank-4) subspace, so each upload is a tall 1024 x 24 matrix.
std::vector<FrontierPoint> RunFrontier(bool csv) {
  constexpr int64_t kD = 1024;
  constexpr int64_t kM = 4;  // generating subspace dimension
  constexpr int64_t kL = 5;
  constexpr int64_t kDevices = 10;

  SyntheticOptions synth;
  synth.ambient_dim = kD;
  synth.subspace_dim = kM;
  synth.num_subspaces = kL;
  synth.points_per_subspace = 32;
  synth.seed = 0xC057'F207ULL;
  auto data = GenerateUnionOfSubspaces(synth);
  if (!data.ok()) return {};
  PartitionOptions partition;
  partition.num_devices = kDevices;
  partition.clusters_per_device = kLPrime;
  partition.seed = 0xC057'F208ULL;
  auto fed = PartitionAcrossDevices(*data, partition);
  if (!fed.ok()) return {};

  auto base_options = [] {
    FedScOptions options;
    options.samples_per_cluster = 12;
    return options;
  };

  struct Config {
    std::string key;
    std::string label;
    CodecOptions codec;
  };
  std::vector<Config> configs;
  configs.push_back({"raw_f64", "raw f64", CodecOptions{}});
  {
    CodecOptions f32;
    f32.raw_f32 = true;
    configs.push_back({"raw_f32", "raw f32", f32});
  }
  for (int bits : {16, 8, 4, 2}) {
    CodecOptions quant;
    quant.mode = CodecMode::kUniformQuant;
    quant.quant_bits = bits;
    configs.push_back({"quant_" + std::to_string(bits),
                       "quant " + std::to_string(bits) + "-bit", quant});
  }

  std::vector<FrontierPoint> points;
  for (const Config& config : configs) {
    FedScOptions options = base_options();
    options.channel.codec = config.codec;
    auto result = RunFedSc(*fed, kL, options);
    if (!result.ok()) {
      std::fprintf(stderr, "frontier %s failed: %s\n", config.key.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    FrontierPoint point;
    point.key = config.key;
    point.label = config.label;
    point.acc = ClusteringAccuracy(data->labels, result->global_labels);
    point.wire_bytes = result->comm.uplink_wire_bytes;
    points.push_back(point);
  }
  if (!points.empty() && points.front().key == "raw_f64") {
    const double raw_bytes = static_cast<double>(points.front().wire_bytes);
    for (auto& point : points) {
      point.reduction =
          point.wire_bytes > 0
              ? raw_bytes / static_cast<double>(point.wire_bytes)
              : 0.0;
    }
  }

  bench::Table table(
      {"codec", "ACC a%", "wire bytes", "bits/value", "vs raw f64"});
  const int64_t raw_values =
      points.empty() ? 0
                     : points.front().wire_bytes > 0
                           ? points.front().wire_bytes * 8 / 64
                           : 0;
  for (const auto& point : points) {
    const double bits_per_value =
        raw_values > 0 ? static_cast<double>(point.wire_bytes) * 8.0 /
                             static_cast<double>(raw_values)
                       : 0.0;
    table.AddRow({point.label, bench::Fmt(point.acc),
                  bench::Fmt(point.wire_bytes), bench::Fmt(bits_per_value, 2),
                  bench::Fmt(point.reduction, 2) + "x"});
  }
  std::printf("\nAccuracy-vs-bits frontier — serialized codecs "
              "(D=%ld, m=%ld, d_t=rank, samples/cluster=12, Z=%ld)\n",
              static_cast<long>(kD), static_cast<long>(kM),
              static_cast<long>(kDevices));
  table.Print(csv);
  return points;
}

void WriteFrontierJson(const std::vector<FrontierPoint>& points,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\"comm_cost\":{\"config\":\"D=1024,m=4,d_t=rank,spc=12\","
      << "\"frontier\":{";
  for (size_t i = 0; i < points.size(); ++i) {
    const FrontierPoint& point = points[i];
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\":{\"acc\":%.2f,\"wire_bytes\":%lld,"
                  "\"reduction\":%.3f}",
                  i == 0 ? "" : ",", point.key.c_str(), point.acc,
                  static_cast<long long>(point.wire_bytes), point.reduction);
    out << buffer;
  }
  out << "}}}\n";
  std::fprintf(stderr, "wrote frontier to %s\n", path.c_str());
}

}  // namespace
}  // namespace fedsc

int main(int argc, char** argv) {
  fedsc::bench::Observability observability(argc, argv);
  const bool csv = fedsc::bench::HasFlag(argc, argv, "--csv");
  fedsc::Run(csv);
  const auto points = fedsc::RunFrontier(csv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      fedsc::WriteFrontierJson(points, argv[i] + 11);
    }
  }
  return 0;
}
