// Ablations of Fed-SC's design choices (Section IV), on one fixed synthetic
// federation:
//   (a) samples per local cluster — the paper uploads exactly one; more
//       samples trade communication for central-clustering robustness;
//   (b) basis dimension d_t — auto numerical rank vs fixed small d_t
//       (the paper's real-world setting is d_t = 1);
//   (c) r^(z) estimation — eigengap heuristic vs fixed upper bound;
//   (d) server algorithm — SSC vs TSC.
// Reported: accuracy, pooled sample count, uplink kilobits, total time.

#include <cstdio>

#include "bench_util.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

void Run(bool csv) {
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 4;
  synth.num_subspaces = 10;
  synth.points_per_subspace = 12 * 7;  // ~12 holder devices x 7 points
  synth.noise_stddev = 0.02;           // mild noise to make d_t matter
  synth.seed = 0xAB1A'7E0ULL;
  auto data = GenerateUnionOfSubspaces(synth);
  if (!data.ok()) return;

  PartitionOptions partition;
  partition.num_devices = 60;
  partition.clusters_per_device = 2;
  partition.seed = 0xAB1A'7E1ULL;
  auto fed = PartitionAcrossDevices(*data, partition);
  if (!fed.ok()) return;

  bench::Table table({"variant", "ACC a%", "samples", "uplink kb", "T (s)"});
  auto run_variant = [&](const char* name, const FedScOptions& options) {
    auto result = RunFedSc(*fed, synth.num_subspaces, options);
    if (result.ok()) {
      table.AddRow({name,
                    bench::Fmt(ClusteringAccuracy(data->labels,
                                                  result->global_labels)),
                    bench::Fmt(result->total_samples),
                    bench::Fmt(static_cast<double>(result->comm.uplink_bits) /
                                   1000.0,
                               1),
                    bench::Fmt(result->seconds, 3)});
    } else {
      table.AddRow({name, "-", "-", "-", "-"});
    }
  };

  FedScOptions base;
  run_variant("baseline (1 sample, auto d_t, eigengap, SSC server)", base);

  for (int64_t samples : {2, 4}) {
    FedScOptions options = base;
    options.samples_per_cluster = samples;
    const std::string name =
        std::to_string(samples) + " samples per cluster";
    run_variant(name.c_str(), options);
  }

  for (int64_t dim : {1, 2}) {
    FedScOptions options = base;
    options.sample_dim = dim;
    const std::string name = "fixed d_t = " + std::to_string(dim);
    run_variant(name.c_str(), options);
  }

  {
    FedScOptions options = base;
    options.use_eigengap = false;
    options.max_local_clusters = 2;
    run_variant("fixed r^(z) = L' (no eigengap)", options);
  }
  {
    FedScOptions options = base;
    options.rank_rel_tol = 1e-6;
    run_variant("permissive rank cutoff (1e-6)", options);
  }
  {
    FedScOptions options = base;
    options.central_method = ScMethod::kTsc;
    run_variant("TSC server", options);
  }
  for (int bits : {8, 4}) {
    FedScOptions options = base;
    options.channel.codec.mode = CodecMode::kUniformQuant;
    options.channel.codec.quant_bits = bits;
    const std::string name =
        "uplink quantized to " + std::to_string(bits) + " bits";
    run_variant(name.c_str(), options);
  }

  std::printf("Ablation — Fed-SC design choices (Z=60, L=10, L'=2, "
              "noise 0.02)\n");
  table.Print(csv);
}

}  // namespace
}  // namespace fedsc

int main(int argc, char** argv) {
  fedsc::bench::Observability observability(argc, argv);
  fedsc::Run(fedsc::bench::HasFlag(argc, argv, "--csv"));
  return 0;
}
