// End-to-end benchmark of the Fed-SC one-shot round (README.md in this
// directory is the glossary: workloads, metrics, bounds, layer map).
//
//   fedsc_e2e --workload NAME [--seed N] [--seconds S] [--threads T]
//             [--trace-out PATH] [--smoke]
//
// One workload per process. --seed generates the inputs only (synthetic
// data, partition, fault plan, Byzantine payloads, wire corruption); the
// protocol's own randomness is fixed, so two seeds differ in data, never in
// how the protocol draws. After set-up (inputs generated three times, then
// one untimed warm-up round) it runs rounds for up to --seconds (at least
// three), checks every round's output, and prints one JSON result.
// --threads (default 1, at most nproc) is FedScOptions::num_threads.
//
// Untraced runs report the end-to-end metrics. --trace-out runs a second
// kind of round: the untraced call (RunFedSc, or a stream pass) with the
// library's counters on, followed by a replay of the same work through the
// public function of each layer, with the benchmark's own span around every
// call (span_trace.h). The per-layer metrics come from those spans and
// counters; the spans are written to PATH at exit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cluster/spectral.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/fedsc.h"
#include "core/server.h"
#include "data/synthetic.h"
#include "fed/codec.h"
#include "fed/defense.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "fed/partition.h"
#include "graph/eigengap.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "metrics/clustering_metrics.h"
#include "sc/affinity.h"
#include "sc/pipeline.h"
#include "sc/ssc_admm.h"
#include "span_trace.h"

namespace fedsc::e2e {
namespace {

// FedScOptions::seed and the per-client seeds: fixed, see the file comment.
constexpr uint64_t kProtocolSeed = 0x5eed'e2e0ULL;
constexpr int kMinRounds = 3;
constexpr int kSetups = 3;
// A draw meets noniid2_z160's Z_l condition with probability about 0.4.
constexpr uint64_t kMaxPartitionDraws = 64;

struct Workload {
  const char* name = "";
  bool stream = false;  // client/server API instead of RunFedSc
  int64_t ambient_dim = 0;
  int64_t subspace_dim = 0;
  int64_t num_subspaces = 0;
  int64_t num_devices = 0;
  int64_t points_per_device = 0;
  int64_t clusters_per_device = 2;  // L', the Non-IID-2 partition
  // The partition is redrawn until every subspace lands on at least this
  // many devices (Z_l); 0 keeps the first draw. See MakeInputs.
  int64_t min_devices_per_subspace = 0;
  // Caps the eigengap's r^(z) (FedScOptions::max_local_clusters); 0 = none.
  int64_t max_local_clusters = 0;
  bool quant8 = false;              // 8-bit uniform codec instead of raw f64
  double dropout = 0.0;
  double transient = 0.0;
  int max_attempts = 1;
  double quorum = 1.0;
  double byzantine_fraction = 0.0;  // stream: exact share of every wave
  double wire_corrupt_fraction = 0.0;
  int64_t waves = 1;  // stream: devices join in this many equal waves
  double acc_floor = 99.0;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {.name = "noniid2_z160", .ambient_dim = 20, .subspace_dim = 4,
     .num_subspaces = 20, .num_devices = 160, .points_per_device = 120,
     .min_devices_per_subspace = 10, .max_local_clusters = 2,
     .acc_floor = 90.0},
    {.name = "tall_d1024", .ambient_dim = 1024, .subspace_dim = 4,
     .num_subspaces = 8, .num_devices = 64, .points_per_device = 100},
    {.name = "fleet_z2500", .ambient_dim = 50, .subspace_dim = 5,
     .num_subspaces = 10, .num_devices = 2500, .points_per_device = 12,
     .quant8 = true, .dropout = 0.05, .transient = 0.05, .max_attempts = 3,
     .quorum = 0.9},
    {.name = "stream_byzantine", .stream = true, .ambient_dim = 30,
     .subspace_dim = 4, .num_subspaces = 10, .num_devices = 320,
     .points_per_device = 24, .max_local_clusters = 2, .quant8 = true,
     .byzantine_fraction = 0.15, .wire_corrupt_fraction = 0.05, .waves = 8,
     .acc_floor = 95.0},
};

// Smoke size: the same mechanisms at a fraction of a second per round, with
// enough devices per subspace that the ACC floors still hold (the fleet
// workload stays below the sketched-path cutoff here).
Workload Smoke(Workload w) {
  const std::string name = w.name;
  if (name == "noniid2_z160") {
    w.num_subspaces = 10;
    w.num_devices = 100;
    w.points_per_device = 24;
  } else if (name == "tall_d1024") {
    w.ambient_dim = 256;
    w.num_devices = 32;
    w.points_per_device = 40;
  } else if (name == "fleet_z2500") {
    w.num_devices = 150;
  } else {
    w.num_devices = 80;
    w.waves = 2;
  }
  return w;
}

struct Inputs {
  FederatedDataset fed;
  std::vector<int64_t> truth;  // dataset order
  // Stream only: every device has a Byzantine and a wire-fault schedule, and
  // the generator applies them to exact, disjoint, seed-chosen device sets,
  // the same number in every wave, so the pool each Cluster() call solves
  // does not grow with the seed.
  FaultPlan plan;
  std::vector<bool> byzantine;
  std::vector<bool> wire_corrupt;
};

Result<Inputs> MakeInputs(const Workload& w, uint64_t seed) {
  SyntheticOptions synth;
  synth.ambient_dim = w.ambient_dim;
  synth.subspace_dim = w.subspace_dim;
  synth.num_subspaces = w.num_subspaces;
  synth.points_per_subspace =
      w.points_per_device * w.num_devices / w.num_subspaces;
  synth.seed = MixSeeds(seed, 1);
  FEDSC_ASSIGN_OR_RETURN(Dataset data, GenerateUnionOfSubspaces(synth));
  PartitionOptions partition;
  partition.num_devices = w.num_devices;
  partition.clusters_per_device = w.clusters_per_device;
  Inputs in;
  // Theorem 1 needs Z_l > d + 1 samples of every subspace at the server. On
  // noniid2_z160, 8 % of random seeds lost a subspace in the central solve
  // (ACC 92-98), each with some subspace on only 4-8 devices. Redrawing
  // until every Z_l >= 2(d + 1) keeps the inputs on the side of the theorem
  // where the round is expected to succeed. It still lost one subspace on 1
  // seed of 240 (ACC 94.6), so that workload's ACC floor is 90: two
  // subspaces lost, or a broken stage, fall below it.
  for (uint64_t draw = 0;; ++draw) {
    if (draw == kMaxPartitionDraws) {
      return Status::Internal("no partition gives every subspace " +
                              std::to_string(w.min_devices_per_subspace) +
                              " devices");
    }
    partition.seed = MixSeeds(MixSeeds(seed, 2), draw);
    in.fed = {};  // one partition at a time: peak_rss_mb must not count draws
    FEDSC_ASSIGN_OR_RETURN(in.fed, PartitionAcrossDevices(data, partition));
    const std::vector<int64_t> z_l = in.fed.DevicesPerCluster();
    if (*std::min_element(z_l.begin(), z_l.end()) >=
        w.min_devices_per_subspace) {
      break;
    }
  }
  in.truth = in.fed.GlobalTruth();

  const auto z_count = static_cast<size_t>(w.num_devices);
  in.byzantine.assign(z_count, false);
  in.wire_corrupt.assign(z_count, false);
  if (w.byzantine_fraction > 0.0 || w.wire_corrupt_fraction > 0.0) {
    FaultPlanOptions faults;
    faults.byzantine_rate = 1.0;
    faults.byzantine_mode = ByzantineMode::kCollude;
    faults.wire_corrupt_rate = 1.0;
    faults.seed = MixSeeds(seed, 3);
    FEDSC_ASSIGN_OR_RETURN(in.plan, FaultPlan::Create(w.num_devices, faults));
    Rng rng(MixSeeds(seed, 4));
    const int64_t per_wave = w.num_devices / w.waves;
    const auto byzantine = static_cast<size_t>(std::llround(
        w.byzantine_fraction * static_cast<double>(per_wave)));
    const auto corrupt = static_cast<size_t>(std::llround(
        w.wire_corrupt_fraction * static_cast<double>(per_wave)));
    for (int64_t wave = 0; wave < w.waves; ++wave) {
      const std::vector<int64_t> order =
          rng.SampleWithoutReplacement(per_wave, per_wave);
      for (size_t i = 0; i < byzantine + corrupt; ++i) {
        const auto z = static_cast<size_t>(wave * per_wave + order[i]);
        (i < byzantine ? in.byzantine : in.wire_corrupt)[z] = true;
      }
    }
  }
  return in;
}

FedScOptions MakeOptions(const Workload& w, uint64_t seed, int threads) {
  FedScOptions o;
  o.seed = kProtocolSeed;
  o.num_threads = threads;
  o.max_local_clusters = w.max_local_clusters;
  if (w.quant8) {
    o.channel.codec.mode = CodecMode::kUniformQuant;
    o.channel.codec.quant_bits = 8;
  }
  o.faults.dropout_rate = w.dropout;
  o.faults.transient_rate = w.transient;
  o.faults.seed = MixSeeds(seed, 3);
  o.retry.max_attempts = w.max_attempts;
  o.quorum = w.quorum;
  o.defense.enabled = w.byzantine_fraction > 0.0;
  return o;
}

// Calls attempted against the library and the ones that went wrong: a
// non-OK status where none was expected, or an OK where a rejection was.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the result

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
  bool Check(const Status& status, const char* call) {
    ++attempted;
    if (status.ok()) return true;
    Fail(std::string(call) + ": " + status.ToString());
    return false;
  }
};

// One measured round: a RunFedSc call, or one full pass of the stream.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;        // process CPU time over the round
  double local_sum_s = 0.0;  // sum over devices of the local stage
  std::vector<double> central_calls_s;
  double acc = 0.0;
  double coverage = 0.0;
  int64_t uplink_bytes = 0;
  uint64_t labels_hash = 0;
  int64_t rejected_uploads = 0;

  double central_sum_s() const {
    double sum = 0.0;
    for (double s : central_calls_s) sum += s;
    return sum;
  }
  // The paper's T = sum_z T^(z) + T_c.
  double paper_cost_s() const { return local_sum_s + central_sum_s(); }
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ACC over labelled points only (points of failed or screened devices carry
// the -1 sentinel, which ClusteringAccuracy rejects), coverage, and a hash of
// the labels for the determinism check.
void Score(const std::vector<int64_t>& truth,
           const std::vector<int64_t>& labels, Round* round) {
  std::vector<int64_t> kept_truth;
  std::vector<int64_t> kept_labels;
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < labels.size(); ++i) {
    hash = (hash ^ static_cast<uint64_t>(labels[i] + 1)) * 0x100000001b3ULL;
    if (labels[i] < 0) continue;
    kept_truth.push_back(truth[i]);
    kept_labels.push_back(labels[i]);
  }
  round->labels_hash = hash;
  round->coverage = 100.0 * static_cast<double>(kept_labels.size()) /
                    static_cast<double>(labels.size());
  round->acc =
      kept_labels.empty() ? 0.0 : ClusteringAccuracy(kept_truth, kept_labels);
}

Round OneShotRound(const Inputs& in, const Workload& w, const FedScOptions& o,
                   Tally* tally, FedScResult* keep) {
  Round round;
  const double cpu = CpuSeconds();
  Stopwatch timer;
  Result<FedScResult> result = RunFedSc(in.fed, w.num_subspaces, o);
  round.wall_s = timer.ElapsedSeconds();
  round.cpu_s = CpuSeconds() - cpu;
  if (!tally->Check(result.status(), "RunFedSc")) return round;
  round.local_sum_s = result->local_seconds;
  round.central_calls_s = {result->central_seconds};
  round.uplink_bytes = result->comm.uplink_wire_bytes;
  for (const DeviceReport& report : result->device_reports) {
    if (report.outcome == DeviceOutcome::kQuarantined) {
      ++round.rejected_uploads;
    }
  }
  Score(in.truth, result->global_labels, &round);
  if (keep != nullptr) *keep = std::move(result).value();
  return round;
}

// True when damaged wire bytes decode to other samples than the intact
// ones. A bit flip can land in the reserved field of a section header,
// which the decoder neither checks nor covers by a CRC; that message is
// accepted with its samples unchanged, and the stream does not count the
// acceptance as an error.
bool DamageReachesSamples(const std::vector<uint8_t>& intact,
                          const std::vector<uint8_t>& damaged) {
  const Result<DecodedUpload> a = DecodeUpload(intact);
  const Result<DecodedUpload> b = DecodeUpload(damaged);
  if (!a.ok() || !b.ok()) return true;
  const Matrix& x = a->samples;
  const Matrix& y = b->samples;
  return x.rows() != y.rows() || x.cols() != y.cols() ||
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.size()) * sizeof(double)) != 0;
}

// What a traced stream pass hands to the layer replay: every device's
// delivered bytes (after any wire fault) in arrival order.
struct StreamUpload {
  int64_t wave = 0;
  std::vector<uint8_t> wire;
};

// One pass of the stream: devices join in waves; each runs ProduceUpload ->
// EncodeUpload -> AddEncodedUpload, the generator corrupting the chosen ones
// on the way; after each wave the server re-clusters and every registered
// device fetches and applies its assignments.
Round StreamPass(const Inputs& in, const Workload& w, const FedScOptions& o,
                 Trace* trace, int64_t round_id, Tally* tally,
                 std::vector<StreamUpload>* log) {
  Round round;
  const CodecOptions codec = EffectiveCodecOptions(o.channel);
  const int64_t per_wave = w.num_devices / w.waves;
  const double cpu = CpuSeconds();
  Span pass(trace, "round", -1, round_id);
  const int64_t root = pass.id();

  FedScServer server(w.num_subspaces, o);
  std::vector<FedScClient> clients;
  clients.reserve(static_cast<size_t>(w.num_devices));
  std::vector<std::pair<int64_t, int64_t>> registered;  // (device, server id)
  std::vector<std::vector<int64_t>> labels(static_cast<size_t>(w.num_devices));
  for (int64_t wave = 0; wave < w.waves; ++wave) {
    for (int64_t z = wave * per_wave; z < (wave + 1) * per_wave; ++z) {
      const auto zi = static_cast<size_t>(z);
      Span produce(trace, "core.client.produce", root, round_id);
      clients.emplace_back(in.fed.points[zi], o, MixSeeds(kProtocolSeed, zi));
      Result<Matrix> upload = clients.back().ProduceUpload();
      round.local_sum_s += produce.Stop();
      if (!tally->Check(upload.status(), "ProduceUpload")) continue;
      if (in.byzantine[zi]) {
        Span gen(trace, "gen.faults", root, round_id);
        *upload = in.plan.ApplyPayloadFault(z, *upload);
      }
      Result<std::vector<uint8_t>> wire = [&] {
        Span encode(trace, "fed.encode", root, round_id);
        return EncodeUpload(*upload, codec);
      }();
      if (!tally->Check(wire.status(), "EncodeUpload")) continue;
      round.uplink_bytes += static_cast<int64_t>(wire->size());
      std::vector<uint8_t> intact;
      if (in.wire_corrupt[zi]) {
        Span gen(trace, "gen.faults", root, round_id);
        intact = *wire;
        in.plan.ApplyWireFault(z, &*wire);
      }
      const Result<int64_t> id = [&] {
        Span add(trace, "core.server.add", root, round_id);
        return server.AddEncodedUpload(*wire);
      }();
      ++tally->attempted;
      if (in.wire_corrupt[zi] && id.ok() &&
          DamageReachesSamples(intact, *wire)) {
        tally->Fail("corrupted upload of device " + std::to_string(z) +
                    " was accepted");
      } else if (!in.wire_corrupt[zi] && !id.ok()) {
        tally->Fail("intact upload of device " + std::to_string(z) +
                    " was rejected: " + id.status().ToString());
      }
      if (id.ok()) {
        registered.emplace_back(z, *id);
      } else {
        ++round.rejected_uploads;
      }
      if (log != nullptr) log->push_back({wave, std::move(*wire)});
    }

    {
      Span cluster(trace, "core.server.cluster", root, round_id);
      const Status status = server.Cluster();
      round.central_calls_s.push_back(cluster.Stop());
      if (!tally->Check(status, "Cluster")) continue;
    }
    Span assign(trace, "core.server.assign", root, round_id);
    for (const auto& [z, id] : registered) {
      std::vector<int64_t>& device_labels = labels[static_cast<size_t>(z)];
      device_labels.clear();
      const Result<std::vector<int64_t>> assignments = server.AssignmentsFor(id);
      if (!assignments.ok() && server.screened(id)) {
        ++tally->attempted;  // a screened device is refused by design
        continue;
      }
      if (!tally->Check(assignments.status(), "AssignmentsFor")) continue;
      Result<std::vector<int64_t>> applied =
          clients[static_cast<size_t>(z)].ApplyAssignments(*assignments);
      if (!tally->Check(applied.status(), "ApplyAssignments")) continue;
      device_labels = std::move(applied).value();
    }
  }
  round.wall_s = pass.Stop();
  round.cpu_s = CpuSeconds() - cpu;

  for (size_t z = 0; z < labels.size(); ++z) {
    if (labels[z].empty()) {
      labels[z].assign(static_cast<size_t>(in.fed.points[z].cols()),
                       FedScResult::kFailedDeviceLabel);
    }
  }
  Score(in.truth, in.fed.ToGlobalOrder(labels), &round);
  return round;
}

// ---------------------------------------------------------------------------
// The traced replay: the same work as a round, rebuilt from the public
// function of each layer with a span around every call.

// Algorithm 2 on one device, through the calls LocalClusterAndSample makes
// (for the options the workloads set: eigengap r^(z), no trimming, one
// sample per local cluster, no DP). Returns the device's upload.
Result<Matrix> ReplayLocal(const Matrix& points, const FedScOptions& o,
                           uint64_t seed, Trace* trace, int64_t parent,
                           int64_t round) {
  Span device(trace, "core.local.device", parent, round);
  const int64_t id = device.id();
  Rng rng(seed);
  const int64_t n = points.rows();
  const int64_t count = points.cols();
  Matrix normalized = points;
  normalized.NormalizeColumns();
  std::vector<int64_t> partition(static_cast<size_t>(count), 0);
  int64_t r = 1;
  if (count >= 3) {
    Result<SparseMatrix> coefficients = [&] {
      Span s(trace, "sc.local.self_expression", id, round);
      return SscSelfExpression(normalized, o.local_ssc);
    }();
    FEDSC_RETURN_NOT_OK(coefficients.status());
    Matrix affinity;
    {
      Span s(trace, "sc.local.affinity", id, round);
      affinity = AffinityFromCoefficients(*coefficients).ToDense();
    }
    {
      Span s(trace, "graph.local.eigengap", id, round);
      EigengapOptions gap;
      gap.max_clusters = o.max_local_clusters;
      FEDSC_ASSIGN_OR_RETURN(r, EstimateClusterCount(affinity, gap));
    }
    if (r > 1) {
      Span s(trace, "cluster.local.spectral", id, round);
      SpectralOptions spectral = o.local_spectral;
      spectral.kmeans.seed = rng.Next();
      spectral.num_threads = spectral.num_threads > 1 ? spectral.num_threads
                                                      : o.num_threads;
      FEDSC_ASSIGN_OR_RETURN(SpectralResult clusters,
                             SpectralCluster(affinity, r, spectral));
      partition = std::move(clusters.labels);
    }
  }

  std::vector<std::vector<int64_t>> members(static_cast<size_t>(r));
  for (int64_t i = 0; i < count; ++i) {
    members[static_cast<size_t>(partition[static_cast<size_t>(i)])].push_back(i);
  }
  std::vector<Result<Matrix>> bases;
  {
    Span s(trace, "linalg.local.basis", id, round);
    BatchedSubspaceOptions batch;
    batch.rank = o.sample_dim;
    batch.rel_tol = o.rank_rel_tol;
    batch.num_threads = o.num_threads;
    bases = BatchedPrincipalSubspace(normalized, members, batch);
  }
  Matrix samples(n, r);
  Vector theta(static_cast<size_t>(n), 0.0);
  for (int64_t t = 0; t < r; ++t) {
    const auto ti = static_cast<size_t>(t);
    const Matrix basis = members[ti].empty() || !bases[ti].ok()
                             ? Matrix::FromColumn(rng.UnitSphere(n))
                             : *bases[ti];
    double norm = 0.0;
    do {
      const Vector alpha = rng.GaussianVector(basis.cols());
      Gemv(Trans::kNo, 1.0, basis, alpha.data(), 0.0, theta.data());
      norm = Norm2(theta.data(), n);
    } while (norm <= 1e-300);
    Scal(1.0 / norm, theta.data(), n);
    samples.SetCol(t, theta);
  }
  return samples;
}

// The central pipeline options RunFedSc and FedScServer::Cluster derive
// from FedScOptions (SSC central method, as every workload uses).
ScPipelineOptions CentralOptions(const FedScOptions& o,
                                 const std::vector<int64_t>& sample_device) {
  ScPipelineOptions c;
  c.method = o.central_method;
  c.central = o.central;
  c.sketch = o.central_sketch;
  c.sketch.seed = MixSeeds(o.seed, 0x5ce7c4ULL);
  c.ssc = o.central_ssc;
  c.spectral = o.central_spectral;
  c.spectral.kmeans.seed = o.seed ^ 0x5e47e4ULL;
  if (o.defense.enabled) {
    KMeansRobustOptions& robust = c.spectral.kmeans.robust;
    robust.enabled = true;
    robust.trim_fraction = o.defense.trim_fraction;
    robust.center = o.defense.robust_center;
    robust.max_group_fraction = o.defense.max_device_fraction;
    robust.point_group = sample_device;
  }
  c.normalize_columns = true;
  c.num_threads = o.num_threads;
  return c;
}

// BuildAffinity alone, then the whole RunSubspaceClustering: the central
// spectral stage is the difference of the two spans.
Status ReplayCentral(const Matrix& pool, const std::vector<int64_t>& device,
                     int64_t num_clusters, const FedScOptions& o, Trace* trace,
                     int64_t parent, int64_t round) {
  const ScPipelineOptions central = CentralOptions(o, device);
  {
    Span s(trace, "sc.central.affinity", parent, round);
    Matrix normalized = pool;
    normalized.NormalizeColumns();
    FEDSC_RETURN_NOT_OK(BuildAffinity(normalized, central).status());
  }
  Span s(trace, "core.central.solve", parent, round);
  return RunSubspaceClustering(pool, num_clusters, central).status();
}

// Server intake of one upload: decode, then validate. Returns the accepted
// columns (empty when the upload is rejected).
Matrix ReplayIntake(const std::vector<uint8_t>& wire, int64_t ambient_dim,
                    const FedScOptions& o, Trace* trace, int64_t parent,
                    int64_t round) {
  Result<DecodedUpload> decoded = [&] {
    Span s(trace, "fed.decode", parent, round);
    return DecodeUpload(wire);
  }();
  if (!decoded.ok()) return Matrix();
  Span s(trace, "fed.validate", parent, round);
  Result<UploadValidation> validation =
      ValidateUpload(decoded->samples, ambient_dim, o.validation);
  return validation.ok() ? std::move(validation->accepted) : Matrix();
}

Status ReplayOneShot(const Inputs& in, const Workload& w,
                     const FedScOptions& o, const FedScResult& result,
                     Trace* trace, int64_t round) {
  const int64_t z_count = in.fed.num_devices();
  Span root(trace, "round", -1, round);
  // RunFedSc's per-device seeds: one draw each from Rng(options.seed).
  Rng rng(o.seed);
  std::vector<uint64_t> seeds(static_cast<size_t>(z_count));
  for (uint64_t& seed : seeds) seed = rng.Next();
  std::vector<Result<Matrix>> uploads(static_cast<size_t>(z_count),
                                      Status::Internal("not run"));
  {
    Span phase(trace, "core.local", root.id(), round);
    ParallelFor(0, z_count, o.num_threads, [&](int64_t z) {
      const auto zi = static_cast<size_t>(z);
      uploads[zi] = ReplayLocal(in.fed.points[zi], o, seeds[zi], trace,
                                phase.id(), round);
    });
  }
  const CodecOptions codec = EffectiveCodecOptions(o.channel);
  {
    Span uplink(trace, "fed.uplink", root.id(), round);
    for (const Result<Matrix>& upload : uploads) {
      FEDSC_RETURN_NOT_OK(upload.status());
      Result<std::vector<uint8_t>> wire = [&] {
        Span s(trace, "fed.encode", uplink.id(), round);
        return EncodeUpload(*upload, codec);
      }();
      FEDSC_RETURN_NOT_OK(wire.status());
      Span add(trace, "core.server.add", uplink.id(), round);
      ReplayIntake(*wire, in.fed.ambient_dim, o, trace, add.id(), round);
    }
  }
  Span central(trace, "core.central", root.id(), round);
  return ReplayCentral(result.samples, result.sample_device, w.num_subspaces,
                       o, trace, central.id(), round);
}

// The layers behind a traced stream pass: every device's local stage (from
// this thread, as ProduceUpload runs), then per wave the server's intake of
// the wave's uploads, the defense screen and the central solve over the pool
// the server held at that Cluster() call.
Status ReplayStream(const Inputs& in, const Workload& w, const FedScOptions& o,
                    const std::vector<StreamUpload>& log, Trace* trace,
                    int64_t round) {
  Span root(trace, "replay", -1, round);
  for (int64_t z = 0; z < w.num_devices; ++z) {
    const auto zi = static_cast<size_t>(z);
    FEDSC_RETURN_NOT_OK(ReplayLocal(in.fed.points[zi], o,
                                    MixSeeds(kProtocolSeed, zi), trace,
                                    root.id(), round)
                            .status());
  }
  FEDSC_ASSIGN_OR_RETURN(DefensePlan defense, DefensePlan::Create(o.defense));
  std::vector<Matrix> accepted;
  size_t next = 0;
  for (int64_t wave = 0; wave < w.waves; ++wave) {
    for (; next < log.size() && log[next].wave == wave; ++next) {
      Matrix columns = ReplayIntake(log[next].wire, in.fed.ambient_dim, o,
                                    trace, root.id(), round);
      if (columns.cols() > 0) accepted.push_back(std::move(columns));
    }
    int64_t total = 0;
    for (const Matrix& m : accepted) total += m.cols();
    Matrix pool(in.fed.ambient_dim, total);
    std::vector<int64_t> pool_device;
    for (size_t d = 0; d < accepted.size(); ++d) {
      for (int64_t c = 0; c < accepted[d].cols(); ++c) {
        pool.SetCol(static_cast<int64_t>(pool_device.size()),
                    accepted[d].ColData(c));
        pool_device.push_back(static_cast<int64_t>(d));
      }
    }
    const ScreeningOutcome screening = [&] {
      Span s(trace, "fed.screen", root.id(), round);
      return defense.Screen(pool, pool_device, o.num_threads);
    }();
    std::vector<bool> screened(accepted.size(), false);
    for (const DeviceScreenVerdict& verdict : screening.verdicts) {
      if (verdict.screened) screened[static_cast<size_t>(verdict.device)] = true;
    }
    std::vector<int64_t> keep;
    std::vector<int64_t> keep_device;
    for (size_t c = 0; c < pool_device.size(); ++c) {
      if (screened[static_cast<size_t>(pool_device[c])]) continue;
      keep.push_back(static_cast<int64_t>(c));
      keep_device.push_back(pool_device[c]);
    }
    FEDSC_RETURN_NOT_OK(ReplayCentral(pool.GatherCols(keep), keep_device,
                                      w.num_subspaces, o, trace, root.id(),
                                      round));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics.

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
  int64_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

// Everything the per-layer metrics need from one traced round.
struct TracedRound {
  Round base;  // the untraced RunFedSc call, or an untraced stream pass
  MetricsSnapshot counters;
};

// Per-layer values of one traced round from its spans.
std::map<std::string, double> LayerValues(const Workload& w, int threads,
                                          const TracedRound& traced,
                                          const std::vector<SpanRecord>& spans,
                                          const std::vector<double>& self,
                                          int64_t round) {
  std::map<std::string, double> self_sum;
  std::map<std::string, double> total;
  std::map<std::string, std::vector<double>> durations;
  int64_t root = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].round != round) continue;
    self_sum[spans[i].name] += self[i];
    total[spans[i].name] += spans[i].seconds();
    durations[spans[i].name].push_back(spans[i].seconds());
    if (std::strcmp(spans[i].name, "round") == 0) root = static_cast<int64_t>(i);
  }
  const Round& base = traced.base;
  const std::vector<double>& device =
      durations[w.stream ? "core.client.produce" : "core.local.device"];
  // The replayed T: local stage, defense screen and central solve.
  const double replay = total["core.local.device"] + total["fed.screen"] +
                        total["core.central.solve"];

  std::map<std::string, double> v;
  v["core.round_s"] = base.wall_s;
  v["core.local_sum_s"] = base.local_sum_s;
  v["core.central_s"] = base.central_sum_s();
  v["core.replay_s"] = replay;
  v["core.replay_conservation"] = replay / base.paper_cost_s();
  v["core.local.device_s.p50"] = Percentile(device, 0.5);
  v["core.local.device_s.p99"] = Percentile(device, 0.99);
  v["core.local.device_s.max"] = Percentile(device, 1.0);
  v["core.local.other_s"] = self_sum["core.local.device"];
  v["sc.local.self_expression_s"] = total["sc.local.self_expression"];
  v["sc.local.affinity_s"] = total["sc.local.affinity"];
  v["graph.local.eigengap_s"] = total["graph.local.eigengap"];
  v["cluster.local.spectral_s"] = total["cluster.local.spectral"];
  v["linalg.local.basis_s"] = total["linalg.local.basis"];
  v["sc.central.affinity_s"] = total["sc.central.affinity"];
  v["cluster.central.spectral_s"] =
      total["core.central.solve"] - total["sc.central.affinity"];
  v["fed.encode_s"] = total["fed.encode"];
  v["fed.decode_s"] = total["fed.decode"];
  v["fed.validate_s"] = total["fed.validate"];
  v["fed.screen_s"] = total["fed.screen"];
  v["core.server.add_s.p50"] = Percentile(durations["core.server.add"], 0.5);
  v["core.server.add_s.p99"] = Percentile(durations["core.server.add"], 0.99);
  v["core.server.cluster_s.p50"] = Percentile(base.central_calls_s, 0.5);
  v["core.server.cluster_s.max"] = Percentile(base.central_calls_s, 1.0);
  v["core.server.assign_s"] = total["core.server.assign"];
  v["common.parallel_efficiency"] =
      base.local_sum_s / (threads * (base.wall_s - base.central_sum_s()));
  v["common.cpu_util"] = base.cpu_s / (threads * base.wall_s);

  double round_s = 0.0;
  double attributed = 0.0;
  if (root >= 0) {
    std::vector<size_t> children;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == root) children.push_back(i);
    }
    round_s = spans[static_cast<size_t>(root)].seconds();
    attributed = Trace::CoveredSeconds(spans, static_cast<size_t>(root),
                                       children) /
                 round_s;
  }
  v["core.attributed_frac"] = attributed;
  // The one-shot replay also calls BuildAffinity on its own, which the
  // untraced round never does; that call is not tracing overhead.
  v["common.trace_overhead"] =
      (round_s - (w.stream ? 0.0 : total["sc.central.affinity"])) /
          base.wall_s -
      1.0;

  const auto counter = [&traced](const char* name) {
    const auto it = traced.counters.counters.find(name);
    return it == traced.counters.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  for (const char* name :
       {"sc.ssc_admm.iterations", "sc.ssc_admm.solves", "linalg.gemm.flops",
        "linalg.syrk.flops", "linalg.qr.flops", "linalg.gemm.calls",
        "linalg.eig.calls", "linalg.svd.sweeps", "cluster.kmeans.iterations",
        "cluster.kmeans.restarts", "fed.comm.retries",
        "fed.defense.screened_devices"}) {
    v[name] = counter(name);
  }
  const double solves = counter("sc.ssc_admm.solves");
  v["sc.ssc_admm.converged_frac"] =
      solves > 0.0 ? counter("sc.ssc_admm.converged") / solves : 0.0;
  v["fed.rejected_uploads"] = static_cast<double>(base.rejected_uploads);
  return v;
}

// Every per-layer metric with its unit (README.md defines each one).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.round_s", "s"},
    {"core.local_sum_s", "s"},
    {"core.central_s", "s"},
    {"core.replay_s", "s"},
    {"core.replay_conservation", "ratio"},
    {"core.attributed_frac", "ratio"},
    {"core.local.device_s.p50", "s"},
    {"core.local.device_s.p99", "s"},
    {"core.local.device_s.max", "s"},
    {"core.local.other_s", "s"},
    {"core.server.add_s.p50", "s"},
    {"core.server.add_s.p99", "s"},
    {"core.server.cluster_s.p50", "s"},
    {"core.server.cluster_s.max", "s"},
    {"core.server.assign_s", "s"},
    {"sc.local.self_expression_s", "s"},
    {"sc.local.affinity_s", "s"},
    {"graph.local.eigengap_s", "s"},
    {"cluster.local.spectral_s", "s"},
    {"linalg.local.basis_s", "s"},
    {"sc.central.affinity_s", "s"},
    {"cluster.central.spectral_s", "s"},
    {"fed.encode_s", "s"},
    {"fed.decode_s", "s"},
    {"fed.validate_s", "s"},
    {"fed.screen_s", "s"},
    {"common.parallel_efficiency", "ratio"},
    {"common.cpu_util", "ratio"},
    {"common.trace_overhead", "ratio"},
    {"sc.ssc_admm.iterations", "count"},
    {"sc.ssc_admm.solves", "count"},
    {"sc.ssc_admm.converged_frac", "ratio"},
    {"linalg.gemm.flops", "flop"},
    {"linalg.syrk.flops", "flop"},
    {"linalg.qr.flops", "flop"},
    {"linalg.gemm.calls", "count"},
    {"linalg.eig.calls", "count"},
    {"linalg.svd.sweeps", "count"},
    {"cluster.kmeans.iterations", "count"},
    {"cluster.kmeans.restarts", "count"},
    {"fed.comm.retries", "count"},
    {"fed.rejected_uploads", "count"},
    {"fed.defense.screened_devices", "count"},
};

// ---------------------------------------------------------------------------
// Output.

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  int threads = 1;
  std::string trace_out;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--smoke") {
      if (i + 1 >= argc) {
        *error = flag + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--threads") {
      args->threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad value for " + flag + ": '" + value + "'";
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

int Run(const Args& args) {
  const Workload* spec = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int nproc = Nproc();
  if (args.threads < 1 || args.threads > nproc) {
    std::fprintf(stderr, "--threads %d outside [1, nproc = %d]\n",
                 args.threads, nproc);
    return 2;
  }
  const Workload w = args.smoke ? Smoke(*spec) : *spec;
  const bool traced = !args.trace_out.empty();
  const FedScOptions options = MakeOptions(w, args.seed, args.threads);
  Tally tally;

  // Set-up: the inputs three times (median), then one untimed warm-up round
  // that fills caches and the thread pool.
  std::vector<double> generate_s;
  Result<Inputs> inputs = Status::Internal("not generated");
  for (int k = 0; k < kSetups; ++k) {
    Stopwatch timer;
    inputs = MakeInputs(w, args.seed);
    generate_s.push_back(timer.ElapsedSeconds());
    if (!inputs.ok()) break;
  }
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  const Inputs& in = *inputs;
  const auto run_round = [&](Trace* trace, int64_t id,
                             std::vector<StreamUpload>* log,
                             FedScResult* keep) {
    return w.stream ? StreamPass(in, w, options, trace, id, &tally, log)
                    : OneShotRound(in, w, options, &tally, keep);
  };
  std::vector<Round> checked;  // every round whose output is checked
  checked.push_back(run_round(nullptr, -1, nullptr, nullptr));
  const double setup_s = Median(generate_s) + checked.back().wall_s;

  // Measurement.
  Trace trace;
  if (traced) EnableMetrics(true);
  std::vector<Round> rounds;
  std::vector<TracedRound> traced_rounds;
  const int min_rounds = args.smoke ? 1 : kMinRounds;
  Stopwatch measure;
  double last_round_s = 0.0;
  // Stops before a round would run past --seconds (after min_rounds).
  for (int64_t r = 0;
       static_cast<int>(rounds.size()) < min_rounds ||
       (!args.smoke &&
        measure.ElapsedSeconds() + last_round_s <= args.seconds);
       ++r) {
    Stopwatch round_timer;
    if (!traced) {
      rounds.push_back(run_round(nullptr, r, nullptr, nullptr));
      checked.push_back(rounds.back());
      last_round_s = round_timer.ElapsedSeconds();
      continue;
    }
    TracedRound traced_round;
    FedScResult result;
    std::vector<StreamUpload> log;
    if (w.stream) {
      traced_round.base = run_round(nullptr, r, nullptr, nullptr);
      ResetMetrics();
      checked.push_back(run_round(&trace, r, &log, nullptr));
    } else {
      ResetMetrics();
      traced_round.base = run_round(nullptr, r, nullptr, &result);
    }
    traced_round.counters = SnapshotMetrics();
    const Status replayed =
        w.stream ? ReplayStream(in, w, options, log, &trace, r)
                 : ReplayOneShot(in, w, options, result, &trace, r);
    tally.Check(replayed, "traced replay");
    rounds.push_back(traced_round.base);
    checked.push_back(traced_round.base);
    traced_rounds.push_back(std::move(traced_round));
    last_round_s = round_timer.ElapsedSeconds();
  }
  const double measured_s = measure.ElapsedSeconds();

  // Correctness: no unexpected status, the ACC floor on every round, and
  // identical outputs on every round (warm-up and traced passes included).
  std::vector<std::string> problems = tally.errors;
  const Round& first = checked.front();
  for (const Round& round : checked) {
    if (round.acc < w.acc_floor) {
      problems.push_back("acc " + Num(round.acc) + " below the floor " +
                         Num(w.acc_floor));
    }
    if (round.acc != first.acc || round.coverage != first.coverage ||
        round.uplink_bytes != first.uplink_bytes ||
        round.labels_hash != first.labels_hash) {
      problems.push_back("round outputs differ (determinism)");
    }
  }
  const bool correct = tally.failed == 0 && problems.empty();

  MetricMap metrics;
  const auto samples = static_cast<int64_t>(rounds.size());
  if (!traced) {
    std::vector<double> wall;
    std::vector<double> cost;
    std::vector<double> central;
    for (const Round& round : rounds) {
      wall.push_back(round.wall_s);
      cost.push_back(round.paper_cost_s());
      central.insert(central.end(), round.central_calls_s.begin(),
                     round.central_calls_s.end());
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["round_s"] = {Median(wall), "s", samples};
    metrics["paper_cost_s"] = {Median(cost), "s", samples};
    metrics["central_s"] = {Median(central), "s",
                            static_cast<int64_t>(central.size())};
    metrics["setup_s"] = {setup_s, "s", kSetups};
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MB", 1};
    metrics["acc"] = {first.acc, "%", samples};
    metrics["coverage"] = {first.coverage, "%", samples};
    metrics["uplink_bytes"] = {static_cast<double>(first.uplink_bytes),
                               "bytes", samples};
  } else {
    const std::vector<SpanRecord> spans = trace.Spans();
    const std::vector<double> self = Trace::SelfSeconds(spans);
    std::map<std::string, std::vector<double>> per_round;
    for (size_t r = 0; r < traced_rounds.size(); ++r) {
      for (const auto& [name, value] :
           LayerValues(w, args.threads, traced_rounds[r], spans, self,
                       static_cast<int64_t>(r))) {
        per_round[name].push_back(value);
      }
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics[name] = {Median(per_round[name]), unit, samples};
    }
    if (!trace.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::ostream& out = std::cout;
  out << "{\"workload\": " << Json(w.name) << ", \"seed\": " << args.seed
      << ", \"threads\": " << args.threads << ", \"nproc\": " << nproc
      << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ", \"traced\": " << (traced ? "true" : "false")
      << ", \"rounds\": " << samples << ", \"measured_s\": " << Num(measured_s)
      << ",\n \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ",\n \"problems\": [";
  for (size_t i = 0; i < problems.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Json(problems[i]);
  }
  out << "],\n \"per_round\": {";
  const auto series = [&out, &checked](const char* name, auto field) {
    out << Json(name) << ": [";
    for (size_t i = 0; i < checked.size(); ++i) {
      out << (i == 0 ? "" : ", ") << field(checked[i]);
    }
    out << "]";
  };
  series("acc", [](const Round& r) { return Num(r.acc); });
  out << ", ";
  series("coverage", [](const Round& r) { return Num(r.coverage); });
  out << ", ";
  series("uplink_bytes", [](const Round& r) { return r.uplink_bytes; });
  out << ", ";
  series("labels", [](const Round& r) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                  static_cast<unsigned long long>(r.labels_hash));
    return std::string(hex);
  });
  out << "},\n \"metrics\": {";
  bool comma = false;
  for (const auto& [name, m] : metrics) {
    out << (comma ? ",\n  " : "\n  ") << Json(name) << ": {\"value\": "
        << Num(m.value) << ", \"unit\": " << Json(m.unit)
        << ", \"samples\": " << m.samples << "}";
    comma = true;
  }
  out << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace fedsc::e2e

int main(int argc, char** argv) {
  fedsc::e2e::Args args;
  std::string error;
  if (!fedsc::e2e::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr,
                 "%s\nusage: fedsc_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--threads T] [--trace-out PATH] [--smoke]\n",
                 error.c_str());
    return 2;
  }
  return fedsc::e2e::Run(args);
}
