#include "measure/platform.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace sisyphus::measure {

Platform::Platform(netsim::NetworkSimulator& simulator,
                   PlatformOptions options)
    : simulator_(simulator), options_(options), store_(options.validation) {
  SISYPHUS_REQUIRE(options.step.minutes() > 0, "Platform: zero step");
  SISYPHUS_REQUIRE(options.retry.max_attempts > 0,
                   "Platform: zero max_attempts");
  route_change_cursor_ = simulator_.route_changes().size();
}

void Platform::AddVantage(VantageConfig config) {
  simulator_.WatchPath(config.pop, options_.server);
  VantageState state;
  state.config = config;
  vantages_.push_back(state);
}

void Platform::RunTests(VantageState& vantage, std::size_t count,
                        Intent intent, const ProbePath* path, core::Rng& rng,
                        VantageBatch& batch) {
  for (std::size_t i = 0; i < count; ++i) {
    RunOneTest(vantage, intent, path, rng, batch);
  }
}

void Platform::RunOneTest(VantageState& vantage, Intent intent,
                          const ProbePath* path, core::Rng& rng,
                          VantageBatch& batch) {
  SISYPHUS_METRIC_COUNT("measure.probes.attempted", 1);
  // The path loss rate doubles as the congestion signal that MNAR fault
  // plans couple probe loss to.
  const double congestion_signal = path != nullptr ? path->loss_rate : 0.0;
  const netsim::PopIndex pop = vantage.config.pop;
  netsim::PopIndex server = options_.server;
  if (steering_ != nullptr) {
    auto chosen = steering_->ChooseServer(pop, rng);
    if (!chosen.ok()) {
      batch.failures.push_back({simulator_.Now(), pop, intent,
                                ProbeFault::kUnreachable, 1});
      return;
    }
    server = chosen.value();
  }

  // Retry with exponential backoff in simulated time. Each attempt is
  // timestamped at its (backoff-shifted) send time, so records that only
  // exist because of a retry are visibly late.
  core::SimTime attempt_time = simulator_.Now();
  core::SimTime backoff = options_.retry.backoff_base;
  ProbeFault last_fault = ProbeFault::kNone;
  for (std::uint32_t attempt = 1;
       attempt <= options_.retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      SISYPHUS_METRIC_COUNT("measure.probes.retried", 1);
      attempt_time = attempt_time + backoff;
      backoff = core::SimTime(static_cast<std::int64_t>(
          static_cast<double>(backoff.minutes()) *
          options_.retry.backoff_multiplier));
    }

    if (simulator_.PopDark(pop, attempt_time) ||
        (injector_ != nullptr &&
         injector_->VantageDark(pop, attempt_time))) {
      last_fault = ProbeFault::kVantageOutage;
      continue;
    }
    if (simulator_.PopDark(server, attempt_time) ||
        (injector_ != nullptr && injector_->CollectorDark(attempt_time))) {
      last_fault = ProbeFault::kCollectorOutage;
      continue;
    }
    if (injector_ != nullptr) {
      const ProbeFault fault =
          injector_->SampleProbeFault(congestion_signal, rng);
      if (fault != ProbeFault::kNone) {
        last_fault = fault;
        continue;
      }
    }

    // Under edge steering the server is chosen per test, so its path is
    // resolved per test; otherwise every test samples the step's path.
    const ProbePath* probe = path;
    std::optional<ProbePath> steered;
    if (steering_ != nullptr) {
      auto resolved = ResolveProbePath(simulator_, pop, server);
      if (resolved.ok()) steered = std::move(resolved).value();
      probe = steered ? &*steered : nullptr;
    }
    if (probe == nullptr) {
      // No route: retrying within the step cannot help (routing only
      // changes between steps), so fail fast.
      batch.failures.push_back({simulator_.Now(), pop, intent,
                                ProbeFault::kUnreachable, attempt});
      return;
    }
    SpeedTestRecord record =
        SampleSpeedTest(*probe, intent, rng, options_.test_model);
    record.time = attempt_time;
    record.attempts = attempt;
    SISYPHUS_METRIC_COUNT("measure.probes.succeeded", 1);
    bool duplicate = false;
    std::uint8_t fault_mask = 0;
    if (injector_ != nullptr) {
      duplicate = injector_->ApplyRecordFaults(record, rng, &fault_mask);
    }
    // The id is assigned at merge time (vantage order), not here: task
    // scheduling must not influence archive contents.
    batch.records.push_back({std::move(record), duplicate, fault_mask});
    return;
  }
  batch.failures.push_back(
      {simulator_.Now(), pop, intent, last_fault,
       static_cast<std::uint32_t>(options_.retry.max_attempts)});
}

void Platform::RecordFailure(ProbeFailure failure) {
  SISYPHUS_METRIC_COUNT("measure.probes.failed", 1);
#if !defined(SISYPHUS_OBS_DISABLED)
  // Per-reason counters mirror the ProbeFault provenance of failures().
  obs::Registry::Global()
      .GetCounter(std::string("measure.probes.failed.") +
                  std::string(ToString(failure.reason)))
      ->Add(1);
#endif
  SISYPHUS_LINEAGE(RecordProbeFailure(ToString(failure.reason)));
  failures_.push_back(failure);
}

std::map<std::string, std::size_t> Platform::FailureReasonCounts() const {
  std::map<std::string, std::size_t> counts;
  for (const ProbeFailure& failure : failures_) {
    ++counts[std::string(ToString(failure.reason))];
  }
  return counts;
}

std::map<netsim::PopIndex, std::size_t> Platform::FailuresByVantage() const {
  std::map<netsim::PopIndex, std::size_t> counts;
  for (const ProbeFailure& failure : failures_) ++counts[failure.vantage];
  return counts;
}

std::size_t Platform::CountByIntent(Intent intent) const {
  std::size_t count = 0;
  for (const auto& record : store_.records()) {
    if (record.intent == intent) ++count;
  }
  return count;
}

void Platform::Run(core::SimTime until, core::Rng& rng) {
  RunLoop(until, rng, nullptr);
  LogCampaignSummary();
}

namespace {

/// Appends p50/p95/p99 fields for every registered histogram with data
/// (one "<name>.pXX" triple each) to a campaign-end summary — the same
/// deterministic bucket-interpolated quantiles metrics.json carries.
void AppendHistogramQuantileFields(std::vector<core::LogField>& fields) {
  if (!obs::Registry::enabled()) return;
  for (const char* name : {"netsim.bgp.convergence_sweeps"}) {
    const obs::Histogram* histogram =
        obs::Registry::Global().FindHistogram(name);
    if (histogram == nullptr || histogram->count() == 0) continue;
    fields.emplace_back(std::string(name) + ".p50", histogram->Quantile(0.50));
    fields.emplace_back(std::string(name) + ".p95", histogram->Quantile(0.95));
    fields.emplace_back(std::string(name) + ".p99", histogram->Quantile(0.99));
  }
}

}  // namespace

void Platform::RunStreaming(core::SimTime until, core::Rng& rng,
                            StreamingCampaign& sink) {
  RunLoop(until, rng, &sink);
  std::vector<core::LogField> fields;
  fields.emplace_back("archived", sink.store().size());
  fields.emplace_back("quarantined", sink.store().quarantined());
  fields.emplace_back("failed_probes", failures_.size());
  fields.emplace_back("vantages", vantages_.size());
  fields.emplace_back("batches", sink.batches());
  fields.emplace_back("shards", sink.store().shard_count());
  for (const auto& [tag, count] : sink.store().QuarantineReasonCounts()) {
    fields.emplace_back("quarantine." + tag, count);
  }
  for (const auto& [reason, count] : FailureReasonCounts()) {
    fields.emplace_back("fail." + reason, count);
  }
  AppendHistogramQuantileFields(fields);
  core::LogLine(core::LogLevel::kInfo, "streaming campaign complete", fields);
}

StepOutput Platform::GenerateStep(core::SimTime until, core::Rng& rng) {
  const core::SimTime step_end =
      std::min(until, simulator_.Now() + options_.step);
  simulator_.AdvanceTo(step_end);

  // Route changes that landed during this step, per vantage PoP.
  const auto& changes = simulator_.route_changes();
  std::vector<netsim::PopIndex> changed_pops;
  for (; route_change_cursor_ < changes.size(); ++route_change_cursor_) {
    changed_pops.push_back(changes[route_change_cursor_].source);
  }

  const double step_days =
      static_cast<double>(options_.step.minutes()) / (24.0 * 60.0);

  // Serial prewarm: resolve every vantage's probe path to the server once
  // per step. Route, Now(), mean RTT, loss, traceroute and AS path cannot
  // change until the simulator next advances, so the probe tasks below
  // only sample from it, and only the campaign thread touches the BGP
  // route cache.
  struct StepSignal {
    bool path_changed = false;
    std::optional<ProbePath> path;  ///< nullopt: no route to the server
  };
  std::vector<StepSignal> signals(vantages_.size());
  for (std::size_t i = 0; i < vantages_.size(); ++i) {
    StepSignal& signal = signals[i];
    signal.path_changed =
        std::find(changed_pops.begin(), changed_pops.end(),
                  vantages_[i].config.pop) != changed_pops.end();
    if (auto path = ResolveProbePath(simulator_, vantages_[i].config.pop,
                                     options_.server);
        path.ok()) {
      signal.path = std::move(path).value();
    }
  }

  // One campaign-stream draw per step; each vantage forks its own task
  // stream from it, so per-vantage randomness does not depend on how
  // tasks interleave (or on how many tests other vantages ran).
  const std::uint64_t step_seed = rng.Next();
  std::vector<VantageBatch> batches(vantages_.size());
  const auto run_vantage = [&](std::size_t i) {
    core::Rng task_rng = core::Rng::Fork(step_seed, i);
    VantageState& vantage = vantages_[i];
    const StepSignal& signal = signals[i];
    VantageBatch& batch = batches[i];
    const ProbePath* path = signal.path ? &*signal.path : nullptr;
    // Current network-level RTT (deterministic mean) drives perceived
    // performance.
    const double current_rtt = path != nullptr ? path->mean_rtt_ms : -1.0;

    // Baseline schedule: timing independent of network state.
    const std::uint32_t baseline = task_rng.Poisson(
        vantage.config.baseline_tests_per_day * step_days);
    RunTests(vantage, baseline, Intent::kBaseline, path, task_rng, batch);

    // User-initiated: rate inflated by dissatisfaction and route churn —
    // the collider mechanism.
    if (vantage.config.user_tests_per_day > 0.0 && current_rtt > 0.0) {
      double rate = vantage.config.user_tests_per_day * step_days;
      if (vantage.ewma_rtt > 0.0) {
        const double excess =
            std::max(0.0, current_rtt / vantage.ewma_rtt - 1.0);
        rate *= 1.0 + vantage.config.dissatisfaction_gain * excess;
      }
      if (signal.path_changed) rate *= vantage.config.route_change_multiplier;
      RunTests(vantage, task_rng.Poisson(rate), Intent::kUserInitiated, path,
               task_rng, batch);
    }

    // §4 proposal 1: conditional activation on external signals.
    if (options_.conditional_activation && signal.path_changed) {
      RunTests(vantage, options_.event_burst_tests, Intent::kEventTriggered,
               path, task_rng, batch);
    }

    // Habituate (this task owns vantages_[i]; no sharing).
    if (current_rtt > 0.0) {
      vantage.ewma_rtt =
          vantage.ewma_rtt < 0.0
              ? current_rtt
              : (1.0 - options_.ewma_alpha) * vantage.ewma_rtt +
                    options_.ewma_alpha * current_rtt;
    }
  };
  if (steering_ != nullptr) {
    // EdgeSteering keeps an order-sensitive decision log, so run the
    // identical forked-stream structure serially — same output, one lane.
    for (std::size_t i = 0; i < vantages_.size(); ++i) run_vantage(i);
  } else {
    core::ParallelFor(vantages_.size(), run_vantage);
  }

  // Merge in vantage order: sequential ids independent of scheduling.
  StepOutput out;
  out.step_end = step_end;
  std::size_t total_records = 0, total_failures = 0;
  for (const VantageBatch& batch : batches) {
    total_records += batch.records.size();
    total_failures += batch.failures.size();
  }
  out.records.reserve(total_records);
  out.failures.reserve(total_failures);
  for (VantageBatch& batch : batches) {
    for (PendingRecord& pending : batch.records) {
      pending.record.id = core::MeasurementId(next_record_id_++);
      out.records.push_back(std::move(pending));
    }
  }
  for (VantageBatch& batch : batches) {
    for (ProbeFailure& failure : batch.failures) {
      out.failures.push_back(failure);
    }
  }
  return out;
}

void Platform::CommitFailures(const std::vector<ProbeFailure>& failures) {
  for (const ProbeFailure& failure : failures) RecordFailure(failure);
}

void Platform::CommitBatch(StepOutput&& step) {
  for (PendingRecord& pending : step.records) {
    if (!obs::Lineage::enabled()) {
      if (pending.duplicate) store_.Add(pending.record);
      store_.Add(std::move(pending.record));
      continue;
    }
    obs::LineageRecordInfo info = LineageInfoOf(pending);
    // Duplicate copies share id and content, so one verdict covers
    // both Add() calls.
    bool archived = false;
    if (pending.duplicate) archived = store_.Add(pending.record);
    info.archived = store_.Add(std::move(pending.record)) || archived;
    obs::Lineage::Global().RecordEmitted(info);
  }
  CommitFailures(step.failures);
}

void Platform::SkipStep(core::SimTime until) {
  const core::SimTime step_end =
      std::min(until, simulator_.Now() + options_.step);
  simulator_.AdvanceTo(step_end);
  route_change_cursor_ = simulator_.route_changes().size();
  // Touch every (vantage, server) route so the BGP route cache ends the
  // skipped step exactly as warm as a live step would leave it — the
  // netsim cache counters must match an uninterrupted run when the
  // subsequent live steps re-execute under verification.
  for (const VantageState& vantage : vantages_) {
    (void)simulator_.RouteBetween(vantage.config.pop, options_.server);
  }
}

Platform::StreamState Platform::CaptureStreamState() const {
  StreamState state;
  state.next_record_id = next_record_id_;
  state.route_change_cursor = route_change_cursor_;
  state.ewma_rtt.reserve(vantages_.size());
  for (const VantageState& vantage : vantages_) {
    state.ewma_rtt.push_back(vantage.ewma_rtt);
  }
  return state;
}

void Platform::RestoreStreamState(const StreamState& state) {
  next_record_id_ = state.next_record_id;
  route_change_cursor_ = static_cast<std::size_t>(state.route_change_cursor);
  for (std::size_t i = 0;
       i < vantages_.size() && i < state.ewma_rtt.size(); ++i) {
    vantages_[i].ewma_rtt = state.ewma_rtt[i];
  }
}

obs::LineageRecordInfo LineageInfoOf(const PendingRecord& pending) {
  obs::LineageRecordInfo info;
  info.id = pending.record.id.value();
  info.vantage = pending.record.vantage_pop;
  info.intent = static_cast<std::uint8_t>(pending.record.intent);
  info.attempts = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(pending.record.attempts, 255));
  info.fault_mask = pending.fault_mask;
  info.copies = pending.duplicate ? 2 : 1;
  return info;
}

namespace {

void EmitStreamHeartbeat(std::uint64_t committed_steps,
                         std::uint64_t committed_records, std::size_t every) {
  SISYPHUS_METRIC_GAUGE("measure.stream.records_ingested",
                        static_cast<double>(committed_records));
  SISYPHUS_METRIC_GAUGE("measure.stream.journal_high_water",
                        static_cast<double>(committed_steps));
  SISYPHUS_METRIC_GAUGE("measure.stream.queue_depth", 0.0);
  if (every == 0 || committed_steps % every != 0) return;
  core::LogLine(core::LogLevel::kInfo, "stream heartbeat",
                {{"step", committed_steps}, {"records", committed_records}});
}

}  // namespace

void DeclareStreamTelemetrySeries() {
  if (!obs::Timeline::enabled()) return;
  obs::Timeline& timeline = obs::Timeline::Global();
  timeline.DeclareCounter("measure.stream.records_ingested");
  timeline.DeclareCounter("measure.stream.journal_high_water");
  timeline.DeclareCounter("measure.stream.shed_overload");
  const obs::ChurnConfig churn;
  timeline.DeclareCounter("netsim.bgp.invalidated_destinations", &churn);
  timeline.DeclareCounter("netsim.bgp.retained_destinations");
  timeline.DeclareCounter("netsim.bgp.frontier_pops");
  timeline.DeclareCounter("netsim.bgp.route_cache_hits");
  timeline.DeclareCounter("netsim.bgp.route_cache_misses");
  timeline.DeclareCounter("netsim.bgp.tables_computed");
}

void EmitStepTelemetry(std::uint64_t committed_steps,
                       std::uint64_t committed_records,
                       std::size_t /*live_queue_depth*/, std::size_t every,
                       const StreamingCampaign* campaign,
                       bool ingest_sampled_elsewhere) {
  SISYPHUS_REQUIRE(!ingest_sampled_elsewhere,
                   "EmitStepTelemetry: every step is sampled here");
  EmitStreamHeartbeat(committed_steps, committed_records, every);
  if (!obs::Timeline::enabled()) return;
  obs::Timeline& timeline = obs::Timeline::Global();
  const obs::Registry& registry = obs::Registry::Global();
  timeline.SampleCounter(
      committed_steps,
      timeline.DeclareCounter("measure.stream.records_ingested"),
      committed_records);
  timeline.SampleCounter(
      committed_steps,
      timeline.DeclareCounter("measure.stream.journal_high_water"),
      committed_steps);
  timeline.SampleCounter(
      committed_steps,
      timeline.DeclareCounter("measure.stream.shed_overload"),
      registry.CounterValue("measure.stream.shed_overload"));
  // Route-churn detector: every step in which destinations were
  // invalidated is a route event (ScenarioZa's treatment flap included).
  const obs::ChurnConfig churn;
  timeline.SampleCounter(
      committed_steps,
      timeline.DeclareCounter("netsim.bgp.invalidated_destinations", &churn),
      registry.CounterValue("netsim.bgp.invalidated_destinations"));
  for (const char* name :
       {"netsim.bgp.retained_destinations", "netsim.bgp.frontier_pops",
        "netsim.bgp.route_cache_hits", "netsim.bgp.route_cache_misses",
        "netsim.bgp.tables_computed"}) {
    timeline.SampleCounter(committed_steps, timeline.DeclareCounter(name),
                           registry.CounterValue(name));
  }
  if (campaign != nullptr) {
    const obs::LevelShiftConfig shift;
    campaign->panel_builder().VisitRunningMeans(
        [&](std::string_view unit, std::uint64_t count, double sum) {
          std::string name = "rtt.mean.";
          name.append(unit);
          const std::uint32_t id = timeline.DeclareRunningMean(name, &shift);
          timeline.SampleRunningMean(committed_steps, id, count, sum);
        });
  }
  timeline.CommitStep(committed_steps);
}

void Platform::RunLoop(core::SimTime until, core::Rng& rng,
                       StreamingCampaign* streaming) {
  DeclareStreamTelemetrySeries();
  std::uint64_t steps = 0;
  std::uint64_t records = 0;
  while (simulator_.Now() < until) {
    StepOutput step = GenerateStep(until, rng);
    const std::uint64_t step_records = step.records.size();
    if (streaming != nullptr) {
      // Streaming commit: the whole step's merge-ordered batch goes to the
      // sink, whose per-shard fan-out does validation, store append,
      // lineage, and panel folds. Failures stay platform-side.
      streaming->IngestBatch(step.records);
      CommitFailures(step.failures);
    } else {
      CommitBatch(std::move(step));
    }
    ++steps;
    records += step_records;
    EmitStepTelemetry(steps, records, 0, options_.heartbeat_every_steps,
                      streaming, /*ingest_sampled_elsewhere=*/false);
  }
}

StreamingCampaign::StreamingCampaign(StoreValidationOptions validation,
                                     StreamingOptions options)
    : options_(options),
      store_(validation, options.shard_count),
      panel_(options.panel, options.shard_count) {}

StreamingCampaign::UnitGrouping StreamingCampaign::GroupByUnit(
    const std::vector<PendingRecord>& batch) const {
  // A unit is identified by (ASN, city) without building its key string;
  // the views point into the batch, which outlives the grouping.
  using UnitId = std::pair<std::uint32_t, std::string_view>;
  struct UnitIdHash {
    std::size_t operator()(const UnitId& id) const {
      return std::hash<std::string_view>()(id.second) * 31u + id.first;
    }
  };
  std::unordered_map<UnitId, std::uint32_t, UnitIdHash> index;
  UnitGrouping grouping;
  grouping.unit.resize(batch.size());
  grouping.by_shard.resize(store_.shard_count());
  std::vector<std::size_t> shard_of;  // per distinct unit
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SpeedTestRecord& record = batch[i].record;
    const UnitId id{record.asn.value(), record.city};
    std::uint32_t unit = 0;
    // Merge order keeps each vantage's records together, so most records
    // share the previous record's unit.
    if (i > 0 && id == UnitId{batch[i - 1].record.asn.value(),
                              batch[i - 1].record.city}) {
      unit = grouping.unit[i - 1];
    } else {
      const auto [it, inserted] = index.try_emplace(
          id, static_cast<std::uint32_t>(grouping.keys.size()));
      if (inserted) {
        grouping.keys.push_back(record.UnitKey());
        shard_of.push_back(store_.ShardOf(grouping.keys.back()));
      }
      unit = it->second;
    }
    grouping.unit[i] = unit;
    grouping.by_shard[shard_of[unit]].push_back(static_cast<std::uint32_t>(i));
  }
  return grouping;
}

void StreamingCampaign::IngestBatch(const std::vector<PendingRecord>& batch) {
  const UnitGrouping grouping = GroupByUnit(batch);
  // Telemetry-silent: the ingest fan-out is an execution-strategy detail of
  // a path contracted to produce artifacts byte-identical to the batch
  // merge (which runs no region here); counting it would leak the strategy
  // into metrics.json. Task-side metric/lineage writes still replay.
  core::RegionTelemetrySilencer silencer;
  core::ParallelFor(store_.shard_count(),
                    [&](std::size_t s) { IngestShard(s, batch, grouping); });
  ++batches_;
  ingested_ += batch.size();
}

void StreamingCampaign::IngestShard(std::size_t shard,
                                    const std::vector<PendingRecord>& batch,
                                    const UnitGrouping& grouping) {
  const bool lineage = obs::Lineage::enabled();
  for (std::uint32_t i : grouping.by_shard[shard]) {
    const PendingRecord& pending = batch[i];
    const std::string_view unit = grouping.keys[grouping.unit[i]];
    // Mirrors the batch merge in Platform::CommitBatch: duplicate copies
    // share id and content, one lineage verdict covers both appends,
    // and only archived copies reach the panel.
    bool archived_first = false;
    if (pending.duplicate) {
      archived_first = store_.Append(shard, unit, pending.record);
    }
    const bool archived =
        store_.Append(shard, unit, pending.record) || archived_first;
    if (lineage) {
      obs::LineageRecordInfo info = LineageInfoOf(pending);
      info.archived = archived;
      obs::Lineage::Global().RecordEmitted(info);
    }
    if (archived) {
      if (pending.duplicate) {
        panel_.Observe(shard, unit, pending.record.time,
                       pending.record.rtt_ms, pending.record.id.value());
      }
      panel_.Observe(shard, unit, pending.record.time, pending.record.rtt_ms,
                     pending.record.id.value());
    }
  }
}

void Platform::LogCampaignSummary() const {
  std::vector<core::LogField> fields;
  fields.emplace_back("archived", store_.records().size());
  fields.emplace_back("quarantined", store_.quarantine().size());
  fields.emplace_back("failed_probes", failures_.size());
  fields.emplace_back("vantages", vantages_.size());
  for (const auto& [tag, count] : store_.QuarantineReasonCounts()) {
    fields.emplace_back("quarantine." + tag, count);
  }
  for (const auto& [reason, count] : FailureReasonCounts()) {
    fields.emplace_back("fail." + reason, count);
  }
  AppendHistogramQuantileFields(fields);
  core::LogLine(core::LogLevel::kInfo, "campaign complete", fields);
}

}  // namespace sisyphus::measure
