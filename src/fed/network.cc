#include "fed/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace fedsc {

CodecOptions EffectiveCodecOptions(const ChannelOptions& options) {
  return options.codec;
}

Status ValidateChannelOptions(const ChannelOptions& options) {
  if (options.noise_delta < 0.0) {
    return Status::InvalidArgument("noise_delta must be >= 0, got " +
                                   std::to_string(options.noise_delta));
  }
  return ValidateCodecOptions(options.codec);
}

Status ValidateRetryOptions(const RetryOptions& options) {
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1, got " +
                                   std::to_string(options.max_attempts));
  }
  if (options.timeout_ms <= 0) {
    return Status::InvalidArgument("timeout_ms must be positive, got " +
                                   std::to_string(options.timeout_ms));
  }
  if (options.base_backoff_ms < 0) {
    return Status::InvalidArgument("base_backoff_ms must be >= 0, got " +
                                   std::to_string(options.base_backoff_ms));
  }
  if (options.backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "backoff_multiplier must be >= 1, got " +
        std::to_string(options.backoff_multiplier));
  }
  if (options.jitter_fraction < 0.0 || options.jitter_fraction > 1.0) {
    return Status::InvalidArgument(
        "jitter_fraction must lie in [0, 1], got " +
        std::to_string(options.jitter_fraction));
  }
  return Status::OK();
}

Result<Channel> Channel::Create(const ChannelOptions& options) {
  FEDSC_RETURN_NOT_OK(ValidateChannelOptions(options));
  return Channel(options);
}

Channel::Channel(const ChannelOptions& options)
    : options_(options), rng_(options.seed) {}

void Channel::ApplyNoise(Matrix* samples) {
  if (options_.noise_delta <= 0.0 || samples->cols() == 0) return;
  const double stddev =
      options_.noise_delta / std::sqrt(static_cast<double>(samples->cols()));
  double* data = samples->data();
  for (int64_t i = 0; i < samples->size(); ++i) {
    data[i] += stddev * rng_.Gaussian();
  }
}

std::vector<uint8_t> Channel::Encode(const Matrix& samples) {
  Result<std::vector<uint8_t>> wire = EncodeUpload(samples, options_.codec);
  FEDSC_CHECK(wire.ok()) << "uplink encode failed on a validated channel: "
                         << wire.status().ToString();
  return std::move(*wire);
}

void Channel::ChargeUplinkAttempt(int64_t values, int64_t wire_bytes) {
  stats_.uplink_values += values;
  stats_.uplink_wire_bytes += wire_bytes;
  stats_.uplink_bits += 8 * wire_bytes;
  FEDSC_METRIC_COUNTER("fed.comm.uplink_values").Add(values);
  FEDSC_METRIC_COUNTER("fed.comm.uplink_bits").Add(8 * wire_bytes);
  FEDSC_METRIC_COUNTER("fed.comm.uplink_wire_bytes").Add(wire_bytes);
}

Matrix Channel::Uplink(const Matrix& samples) {
  Matrix noisy = samples;
  ApplyNoise(&noisy);
  std::vector<uint8_t> wire = Encode(noisy);
  ChargeUplinkAttempt(samples.size(), static_cast<int64_t>(wire.size()));
  if (options_.wire_sink) options_.wire_sink(-1, wire);
  Result<DecodedUpload> decoded = DecodeUpload(wire, options_.codec);
  FEDSC_CHECK(decoded.ok()) << "own encoding failed to decode: "
                            << decoded.status().ToString();
  return std::move(decoded->samples);
}

UplinkOutcome Channel::UplinkWithRetry(int64_t device, const Matrix& payload,
                                       const FaultPlan& plan,
                                       const RetryOptions& retry,
                                       SimClock* clock) {
  FEDSC_TRACE_SPAN("fed/uplink_retry", {{"device", device}});
  UplinkOutcome outcome;
  const DeviceFaultSchedule schedule = plan.ScheduleFor(device);
  const Matrix sent = plan.ApplyPayloadFault(device, payload);
  // Failed attempts transmit (and are charged for) the device's encoding of
  // `sent`; computed lazily since the happy path never needs it. Noise is a
  // reception-side effect, so it does not alter what failed attempts cost.
  int64_t failed_attempt_bytes = -1;
  const auto attempt_bytes = [&]() {
    if (failed_attempt_bytes < 0) {
      failed_attempt_bytes = static_cast<int64_t>(Encode(sent).size());
    }
    return failed_attempt_bytes;
  };
  // Jittered backoff draws come from a per-device stream so the schedule
  // replays identically no matter which devices retried before this one.
  Rng backoff_rng(MixSeeds(options_.seed ^ 0xBAC0FFULL,
                           static_cast<uint64_t>(device)));

  const int64_t start_ms = clock->now_ms();
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    outcome.attempts = attempt;
    if (attempt > 1) {
      stats_.retries += 1;
      FEDSC_METRIC_COUNTER("fed.comm.retries").Increment();
      double backoff = static_cast<double>(retry.base_backoff_ms) *
                       std::pow(retry.backoff_multiplier, attempt - 2);
      backoff *= 1.0 + retry.jitter_fraction * backoff_rng.Uniform();
      const int64_t backoff_ms =
          static_cast<int64_t>(std::llround(backoff));
      clock->AdvanceMs(backoff_ms);
      FEDSC_JOURNAL_EVENT("retry", device, clock->now_ms(),
                          {{"attempt", attempt}, {"backoff_ms", backoff_ms}});
    }
    FEDSC_JOURNAL_EVENT("upload_attempt", device, clock->now_ms(),
                        {{"attempt", attempt}});
    if (schedule.dropped) {
      // A dropped device never answers: the server waits out the deadline.
      clock->AdvanceMs(retry.timeout_ms);
      stats_.timeouts += 1;
      FEDSC_METRIC_COUNTER("fed.comm.timeouts").Increment();
      FEDSC_METRIC_COUNTER("fed.faults.dropped_attempts").Increment();
      FEDSC_JOURNAL_EVENT("timeout", device, clock->now_ms(),
                          {{"attempt", attempt},
                           {"cause", "dropout"},
                           {"wire_bytes", int64_t{0}}});
      outcome.status = Status::DeadlineExceeded(
          "device " + std::to_string(device) + " dropped out");
      continue;
    }
    const int64_t delay_ms = plan.UplinkDelayMs(device, attempt);
    if (delay_ms > retry.timeout_ms) {
      // Straggler: the payload was transmitted but arrived past the
      // deadline — the bandwidth is spent, the attempt is not.
      ChargeUplinkAttempt(sent.size(), attempt_bytes());
      clock->AdvanceMs(retry.timeout_ms);
      stats_.timeouts += 1;
      FEDSC_METRIC_COUNTER("fed.comm.timeouts").Increment();
      FEDSC_METRIC_COUNTER("fed.faults.straggler_timeouts").Increment();
      FEDSC_JOURNAL_EVENT("timeout", device, clock->now_ms(),
                          {{"attempt", attempt},
                           {"cause", "straggler"},
                           {"delay_ms", delay_ms},
                           {"wire_bytes", attempt_bytes()}});
      outcome.status = Status::DeadlineExceeded(
          "device " + std::to_string(device) + " straggled (" +
          std::to_string(delay_ms) + "ms > " +
          std::to_string(retry.timeout_ms) + "ms deadline)");
      continue;
    }
    clock->AdvanceMs(delay_ms);
    if (attempt <= schedule.transient_failures) {
      // Lost in flight: bandwidth consumed, nothing delivered.
      ChargeUplinkAttempt(sent.size(), attempt_bytes());
      FEDSC_METRIC_COUNTER("fed.faults.transient_losses").Increment();
      FEDSC_JOURNAL_EVENT("transient_loss", device, clock->now_ms(),
                          {{"attempt", attempt},
                           {"wire_bytes", attempt_bytes()}});
      outcome.status = Status::DeadlineExceeded(
          "device " + std::to_string(device) + " upload lost in transit");
      continue;
    }
    // The delivering attempt: noise, then the real serialized round trip —
    // encode, wire-fault the byte stream, decode what arrived.
    Matrix noisy = sent;
    ApplyNoise(&noisy);
    std::vector<uint8_t> wire = Encode(noisy);
    const bool wire_faulted = plan.ApplyWireFault(device, &wire);
    ChargeUplinkAttempt(sent.size(), static_cast<int64_t>(wire.size()));
    if (options_.wire_sink) options_.wire_sink(device, wire);
    Result<DecodedUpload> decoded = DecodeUpload(wire, options_.codec);
    if (!decoded.ok()) {
      // Every scheduled wire fault is CRC/length-detectable; an undamaged
      // message failing to decode is a codec bug, not a simulation outcome.
      FEDSC_CHECK(wire_faulted)
          << "own encoding failed to decode: " << decoded.status().ToString();
      FEDSC_METRIC_COUNTER("fed.faults.wire_rejections").Increment();
      FEDSC_JOURNAL_EVENT("wire_rejected", device, clock->now_ms(),
                          {{"attempt", attempt},
                           {"wire_bytes", static_cast<int64_t>(wire.size())},
                           {"fault", WireFaultName(schedule.wire)}});
      outcome.status = decoded.status();
      // Retrying cannot help: the fault rides the device's schedule, so
      // every retransmission arrives equally corrupt.
      break;
    }
    FEDSC_JOURNAL_EVENT("delivered", device, clock->now_ms(),
                        {{"attempt", attempt},
                         {"wire_bytes", static_cast<int64_t>(wire.size())},
                         {"codec", CodecModeName(options_.codec.mode)}});
    outcome.received = std::move(decoded->samples);
    outcome.delivered = true;
    outcome.status = Status::OK();
    break;
  }
  outcome.elapsed_ms = clock->now_ms() - start_ms;
  FEDSC_METRIC_HISTOGRAM("fed.retry.attempts_per_device")
      .Record(outcome.attempts);
  if (!outcome.delivered && outcome.status.ok()) {
    outcome.status = Status::DeadlineExceeded(
        "device " + std::to_string(device) + " exhausted its retry budget");
  }
  return outcome;
}

void Channel::Downlink(int64_t count, int64_t num_clusters) {
  stats_.downlink_values += count;
  stats_.downlink_bits +=
      static_cast<double>(count) *
      std::log2(std::max<double>(2.0, static_cast<double>(num_clusters)));
  FEDSC_METRIC_COUNTER("fed.comm.downlink_values").Add(count);
  // Channels are driven from serial protocol code, so the running total is a
  // deterministic gauge (it would race if devices downlinked concurrently).
  FEDSC_METRIC_GAUGE("fed.comm.downlink_bits", MetricKind::kDeterministic)
      .Set(stats_.downlink_bits);
}

void Channel::FinishRounds(int64_t n) {
  stats_.rounds += n;
  FEDSC_METRIC_COUNTER("fed.comm.rounds").Add(n);
}

}  // namespace fedsc
