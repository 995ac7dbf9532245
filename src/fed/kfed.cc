#include "fed/kfed.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "fed/pca.h"

namespace fedsc {

Result<KFedResult> RunKFed(const FederatedDataset& data, int64_t num_clusters,
                           const KFedOptions& options) {
  const int64_t num_devices = data.num_devices();
  if (num_devices == 0) return Status::InvalidArgument("no devices");
  if (num_clusters < 1) {
    return Status::InvalidArgument("need num_clusters >= 1");
  }
  FEDSC_RETURN_NOT_OK(ValidateChannelOptions(options.channel));

  FEDSC_TRACE_SPAN("kfed/run",
                   {{"devices", num_devices}, {"clusters", num_clusters}});
  Rng rng(options.seed);
  Channel channel(options.channel);
  KFedResult result;
  result.device_labels.resize(static_cast<size_t>(num_devices));

  // Phase 1: local k-means; upload centroids.
  std::vector<Matrix> uploaded;  // per-device centroid matrices (post-channel)
  std::vector<std::vector<int64_t>> local_assignment(
      static_cast<size_t>(num_devices));
  uploaded.reserve(static_cast<size_t>(num_devices));
  for (int64_t z = 0; z < num_devices; ++z) {
    FEDSC_TRACE_SPAN("kfed/device", {{"z", z}});
    const Matrix& raw = data.points[static_cast<size_t>(z)];
    Stopwatch local_timer;
    if (raw.cols() == 0) {
      uploaded.emplace_back();
      continue;
    }
    const Matrix* input = &raw;
    Matrix projected;
    if (options.pca_dim > 0) {
      FEDSC_ASSIGN_OR_RETURN(PcaResult pca, Pca(raw, options.pca_dim));
      projected = std::move(pca.projected);
      input = &projected;
    }
    const int64_t k =
        options.local_k > 0
            ? std::min<int64_t>(options.local_k, input->cols())
            : std::min<int64_t>(num_clusters, input->cols());
    KMeansOptions local_opts = options.local_kmeans;
    local_opts.seed = rng.Next();
    FEDSC_ASSIGN_OR_RETURN(KMeansResult km, KMeans(*input, k, local_opts));
    local_assignment[static_cast<size_t>(z)] = std::move(km.labels);
    result.local_seconds += local_timer.ElapsedSeconds();
    uploaded.push_back(channel.Uplink(km.centroids));
  }

  // Phase 2: server clusters the pooled centroids. Farthest-first seeding
  // spreads the L initial centers, then Lloyd's iterations refine.
  Stopwatch central_timer;
  int64_t total_centroids = 0;
  int64_t ambient = 0;
  for (const Matrix& m : uploaded) {
    total_centroids += m.cols();
    ambient = std::max(ambient, m.rows());
  }
  if (total_centroids < num_clusters) {
    return Status::FailedPrecondition(
        "server received fewer centroids than clusters");
  }
  // With local PCA a device's centroids have one coordinate per direction
  // its centred data spans (Pca's rank rule): fewer than pca_dim when it
  // has at most pca_dim points or lower rank. Zero-pad to the largest.
  Matrix pooled(ambient, total_centroids);
  std::vector<int64_t> device_offset(static_cast<size_t>(num_devices), 0);
  int64_t next = 0;
  for (int64_t z = 0; z < num_devices; ++z) {
    const Matrix& m = uploaded[static_cast<size_t>(z)];
    device_offset[static_cast<size_t>(z)] = next;
    for (int64_t c = 0; c < m.cols(); ++c) {
      for (int64_t i = 0; i < m.rows(); ++i) pooled(i, next) = m(i, c);
      ++next;
    }
  }

  KMeansOptions server_opts = options.server_kmeans;
  server_opts.init = KMeansInit::kFarthestFirst;
  server_opts.seed = rng.Next();
  KMeansResult server;
  {
    FEDSC_TRACE_SPAN("kfed/server", {{"centroids", total_centroids}});
    FEDSC_ASSIGN_OR_RETURN(server, KMeans(pooled, num_clusters, server_opts));
  }
  result.central_seconds = central_timer.ElapsedSeconds();

  // Phase 3: downlink assignments; devices relabel their points.
  for (int64_t z = 0; z < num_devices; ++z) {
    const auto& assignment = local_assignment[static_cast<size_t>(z)];
    const int64_t offset = device_offset[static_cast<size_t>(z)];
    const int64_t uploaded_count =
        uploaded[static_cast<size_t>(z)].cols();
    channel.Downlink(uploaded_count, num_clusters);
    auto& labels = result.device_labels[static_cast<size_t>(z)];
    labels.resize(assignment.size());
    for (size_t i = 0; i < assignment.size(); ++i) {
      labels[i] = server.labels[static_cast<size_t>(
          offset + assignment[i])];
    }
  }
  channel.FinishRound();

  result.global_labels = data.ToGlobalOrder(result.device_labels);
  result.comm = channel.stats();
  result.seconds = result.local_seconds + result.central_seconds;
  return result;
}

}  // namespace fedsc
