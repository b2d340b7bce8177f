// Measurement platform: runs campaigns over the simulated Internet and
// implements the paper's §4 design proposals.
//
//  (1) Conditional activation — when a watched path changes, the platform
//      fires a burst of tests tagged kEventTriggered, turning route events
//      into usable before/after measurements.
//  (2) Intent tagging — every record carries WHY it exists (baseline
//      schedule, user frustration, event reaction), so analysts can see —
//      and avoid conditioning on — the collider.
//  (4) Endogeneity as signal — user-initiated tests are generated with the
//      realistic feedback: users test more when performance degrades or
//      right after a route change. The bias is simulated, not assumed
//      away, which is what lets the collider experiment (bench E3) show it.
//
// Proposal (3), the exogenous-intervention API, lives in intervention.h.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/rng.h"
#include "measure/edge_steering.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/speedtest.h"
#include "measure/store.h"
#include "netsim/simulator.h"
#include "obs/lineage.h"

namespace sisyphus::measure {

struct VantageConfig {
  netsim::PopIndex pop = 0;
  /// Scheduled tests/day (Poisson); exogenous timing.
  double baseline_tests_per_day = 8.0;
  /// User-initiated base rate; scaled up by dissatisfaction.
  double user_tests_per_day = 0.0;
  /// Extra rate multiplier per unit of relative RTT excess over the
  /// user's habituated level: rate *= 1 + gain * max(0, rtt/ewma - 1).
  double dissatisfaction_gain = 8.0;
  /// Multiplier applied during a step in which this vantage's path to the
  /// server changed.
  double route_change_multiplier = 3.0;
};

/// Retry policy for failed probes: attempt, then exponential backoff in
/// simulated time within the step. Retries help against transient probe
/// loss; they cannot help against outage windows or missing routes.
struct RetryOptions {
  std::size_t max_attempts = 3;
  core::SimTime backoff_base = core::SimTime(1);
  double backoff_multiplier = 2.0;
};

struct PlatformOptions {
  netsim::PopIndex server = 0;
  core::SimTime step = core::SimTime::FromHours(1);
  /// §4 proposal 1: fire a test burst when a watched path changes.
  bool conditional_activation = false;
  std::size_t event_burst_tests = 4;
  /// EWMA smoothing for the user's habituated RTT (per step).
  double ewma_alpha = 0.05;
  SpeedTestModelOptions test_model;
  RetryOptions retry;
  /// Ingest bounds for the platform's store (quarantine thresholds).
  StoreValidationOptions validation;
  /// Emit a live progress line every N committed steps (0 = never). The
  /// cadence is step-count-based, never wall-clock, so the line sequence
  /// is deterministic; the measure.stream.* gauges refresh every step
  /// regardless.
  std::size_t heartbeat_every_steps = 50;
};

/// A probe that produced no record even after retries — the failure-side
/// counterpart of intent tagging (§4): the archive records not only why a
/// measurement exists but why one is absent.
struct ProbeFailure {
  core::SimTime time;
  netsim::PopIndex vantage = 0;
  Intent intent = Intent::kBaseline;
  ProbeFault reason = ProbeFault::kNone;
  std::uint32_t attempts = 0;
};

/// Options for the streaming ingest path.
struct StreamingOptions {
  PanelOptions panel;
  std::size_t shard_count = ShardedMeasurementStore::kDefaultShardCount;
};

/// Everything one platform step produced, before any of it is committed:
/// the merge-ordered record batch (sequential ids already assigned in
/// vantage order) and the step's probe failures. This is the unit of
/// durability (DESIGN.md §11): the journal records a serialized StepOutput
/// before it is applied, and recovery re-generates the same StepOutput
/// from the restored RNG/simulator state and verifies it byte-for-byte
/// against the journaled frame.
struct StepOutput {
  std::vector<PendingRecord> records;
  std::vector<ProbeFailure> failures;
  core::SimTime step_end;
};

/// The streaming campaign sink: owns the sharded columnar store and the
/// incremental panel builder, and ingests merge-ordered batches as the
/// platform produces them. One batch = one platform step; within a batch,
/// ingest fans out across the core::ThreadPool with one task per shard
/// (shard = hash(unit)), so validation, quarantine metrics, lineage
/// emission, and panel folds all run inside the owning shard's task.
/// Because the shard layout is a pure function of unit keys and the pool
/// replays captured metric/lineage writes in shard-index order, every
/// artifact is byte-identical to the batch path at any SISYPHUS_THREADS
/// (DESIGN.md §10).
class StreamingCampaign {
 public:
  StreamingCampaign(StoreValidationOptions validation,
                    StreamingOptions options);

  /// Ingests one merge-ordered batch (ids already assigned). Every record
  /// reaches exactly one terminal verdict: archived into its shard's arena
  /// and folded into the panel, or quarantined — with the same
  /// metrics/lineage the batch path records.
  void IngestBatch(const std::vector<PendingRecord>& batch);

  /// Assembles the panel from the running cell aggregates (serial; call
  /// after the campaign ends).
  Panel FinalizePanel() const { return panel_.Finalize(); }

  ShardedMeasurementStore& store() { return store_; }
  const ShardedMeasurementStore& store() const { return store_; }
  const IncrementalPanelBuilder& panel_builder() const { return panel_; }
  std::uint64_t batches() const { return batches_; }
  /// Batch entries offered for ingest. A duplicate-delivery entry counts
  /// once here but is ingested as two copies, so archived + quarantined
  /// can exceed this under duplication faults.
  std::uint64_t ingested() const { return ingested_; }

 private:
  /// A batch grouped by ⟨ASN, city⟩ unit: each distinct unit key is built
  /// and hashed to its shard once per batch, however the batch interleaves
  /// its units. A pure function of the batch contents, so each shard sees
  /// a fixed record sequence no matter how many lanes execute.
  struct UnitGrouping {
    std::vector<std::string> keys;    ///< distinct unit keys, first-seen order
    std::vector<std::uint32_t> unit;  ///< batch index -> index into keys
    /// Batch indices owned by each shard, in batch order.
    std::vector<std::vector<std::uint32_t>> by_shard;
  };
  UnitGrouping GroupByUnit(const std::vector<PendingRecord>& batch) const;

  /// Per-shard ingest body: one shard's slice of a batch, applied by the
  /// pool task that owns the shard for this batch.
  void IngestShard(std::size_t shard, const std::vector<PendingRecord>& batch,
                   const UnitGrouping& grouping);

  StreamingOptions options_;
  ShardedMeasurementStore store_;
  IncrementalPanelBuilder panel_;
  std::uint64_t batches_ = 0;
  std::uint64_t ingested_ = 0;
};

class Platform {
 public:
  /// The simulator must outlive the platform.
  Platform(netsim::NetworkSimulator& simulator, PlatformOptions options);

  /// Registers a vantage point; also registers a path watch on the
  /// simulator so conditional activation and user reactions can see
  /// route changes.
  void AddVantage(VantageConfig config);

  /// Routes every test's server choice through `steering` (resolver
  /// rotation / anycast model) instead of the fixed options.server.
  /// Non-owning; pass nullptr to revert. The steering object must outlive
  /// the platform while installed.
  void SetEdgeSteering(EdgeSteering* steering) { steering_ = steering; }

  /// Installs a fault injector consulted on every probe attempt and every
  /// successful record. Non-owning; pass nullptr for a failure-free
  /// platform. Must outlive the platform while installed.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Runs the campaign from the simulator's current time to `until`,
  /// advancing the network and generating tests step by step.
  ///
  /// Within a step, vantages are independent: each one draws from a
  /// generator forked off a per-step seed (Rng::Fork(step_seed, vantage)),
  /// produces a local batch of records and failures, and the batches are
  /// merged into the store in vantage order with sequential ids. The
  /// per-vantage work therefore fans out across the core::ThreadPool with
  /// results byte-identical to the serial order at any SISYPHUS_THREADS
  /// (DESIGN.md §7). With edge steering installed, the same forked-stream
  /// structure runs serially (the steering decision log is order-sensitive
  /// shared state), producing identical output.
  void Run(core::SimTime until, core::Rng& rng);

  /// Streaming variant of Run(): identical step loop, generation, and
  /// merge-time id assignment, but each step's merge-ordered record batch
  /// is handed to `sink.IngestBatch` instead of the in-memory batch store
  /// (which stays empty). Probe failures are recorded on the platform
  /// either way. Same seed + same fault plan => sink artifacts
  /// byte-identical to the batch path's, at any SISYPHUS_THREADS.
  void RunStreaming(core::SimTime until, core::Rng& rng,
                    StreamingCampaign& sink);

  // -- step-at-a-time API (the durable service drives these directly) ----

  /// Runs ONE step ending at min(Now() + step, until) — advance the
  /// simulator, fan per-vantage generation across the pool, habituate
  /// EWMAs — and returns the merge-ordered batch with sequential ids
  /// assigned in vantage order, WITHOUT committing anything to a store or
  /// recording failures. Both Run() and RunStreaming() are loops over
  /// GenerateStep; the durable service journals the StepOutput before
  /// applying it. Precondition: Now() < until.
  StepOutput GenerateStep(core::SimTime until, core::Rng& rng);

  /// Records a step's probe failures (metrics + lineage + failures()).
  void CommitFailures(const std::vector<ProbeFailure>& failures);

  /// Commits a batch-path step: lineage verdicts + store() ingestion in
  /// merge order, then the failures.
  void CommitBatch(StepOutput&& step);

  /// Fast-forwards one step of simulated time WITHOUT generating tests,
  /// consuming RNG draws, or touching EWMAs: advances the simulator,
  /// swallows the step's route changes, and touches every
  /// (vantage, server) route so the BGP route cache is as warm as a live
  /// step would leave it. Recovery fast-forwards k snapshot-covered steps
  /// with this before re-ingesting their journaled batches (DESIGN.md
  /// §11).
  void SkipStep(core::SimTime until);

  /// The platform-side mutable state a snapshot must carry: everything a
  /// resumed process can re-derive neither from re-construction nor from
  /// the journal (EWMAs evolve per step; ids/cursor accumulate). Probe
  /// failures are not here: resume re-commits them from the journal.
  struct StreamState {
    std::uint64_t next_record_id = 1;
    std::uint64_t route_change_cursor = 0;
    std::vector<double> ewma_rtt;  ///< one per vantage, AddVantage order
  };
  StreamState CaptureStreamState() const;
  void RestoreStreamState(const StreamState& state);

  MeasurementStore& store() { return store_; }
  const MeasurementStore& store() const { return store_; }
  const PlatformOptions& options() const { return options_; }

  /// Current simulated time (the step loop driven externally by the
  /// durable service needs the clock the internal loops read).
  core::SimTime Now() const { return simulator_.Now(); }

  /// Total tests by intent (diagnostics).
  std::size_t CountByIntent(Intent intent) const;

  /// Probes that produced no record even after retries, in time order.
  const std::vector<ProbeFailure>& failures() const { return failures_; }

  /// Terminal probe-failure counts by reason (mirrors the ProbeFault
  /// provenance of failures(), pre-aggregated for manifests and logs).
  std::map<std::string, std::size_t> FailureReasonCounts() const;

  /// Failed-probe counts per vantage PoP — the per-vantage outage/loss
  /// picture, queryable without walking failures().
  std::map<netsim::PopIndex, std::size_t> FailuresByVantage() const;

  /// Emits the campaign-end summary line (archive/quarantine/failure
  /// counts, broken down by reason) at Info level. Called by Run().
  void LogCampaignSummary() const;

 private:
  struct VantageState {
    VantageConfig config;
    double ewma_rtt = -1.0;  ///< habituated RTT; <0 = uninitialized
  };

  /// Per-vantage, per-step output produced inside a parallel task and
  /// merged into store_/failures_ on the campaign thread.
  struct VantageBatch {
    std::vector<PendingRecord> records;
    std::vector<ProbeFailure> failures;
  };

  void RunTests(VantageState& vantage, std::size_t count, Intent intent,
                const ProbePath* path, core::Rng& rng, VantageBatch& batch);

  /// One probe with retry/backoff; appends the record or a failure to the
  /// batch. `path` is the vantage's resolved path to options_.server this
  /// step (null when unreachable): its loss rate is the congestion signal,
  /// and without edge steering the record is sampled from it.
  void RunOneTest(VantageState& vantage, Intent intent, const ProbePath* path,
                  core::Rng& rng, VantageBatch& batch);

  /// Appends to failures_ and bumps the failure metrics (total + per
  /// ProbeFault reason), keeping the two views consistent.
  void RecordFailure(ProbeFailure failure);

  /// The shared step loop behind Run and RunStreaming: simulate, fan
  /// per-vantage generation across the pool, then merge in vantage order —
  /// into store_ when `streaming` is null, into the sink otherwise.
  void RunLoop(core::SimTime until, core::Rng& rng,
               StreamingCampaign* streaming);

  netsim::NetworkSimulator& simulator_;
  PlatformOptions options_;
  std::vector<VantageState> vantages_;
  MeasurementStore store_;
  std::vector<ProbeFailure> failures_;
  std::size_t route_change_cursor_ = 0;
  /// Campaign-local record ids (1-based). RunSpeedTest's process-global
  /// counter would differ across campaigns in one process, breaking the
  /// byte-identical-replay guarantee of seeded fault plans.
  std::uint64_t next_record_id_ = 1;
  EdgeSteering* steering_ = nullptr;
  FaultInjector* injector_ = nullptr;
};

/// Lineage facts of a pending record, before its ingest verdict:
/// attempts clamped to the ledger's 255, and two delivered copies for a
/// duplicate delivery. `archived` is left false for the caller to set.
obs::LineageRecordInfo LineageInfoOf(const PendingRecord& pending);

/// Step-boundary telemetry, shared by the platform step loop (batch and
/// streaming branches) and the durable service's step loop so the gauges
/// agree across every execution path. Every call refreshes the
/// measure.stream.{records_ingested,journal_high_water,queue_depth} gauges
/// with values that are pure functions of the committed step stream
/// (queue_depth is always 0: no loop queues steps), and every `every`
/// steps it logs an info-level heartbeat line. Then it samples the
/// timeline for this step (DESIGN.md §15) — the stream counters and the
/// netsim.bgp.* reconvergence counters, then, when `campaign` is
/// non-null, every panel unit's running RTT mean (series
/// `rtt.mean.<unit>`, level-shift detector attached; batch-path callers
/// pass null: no panel builder) — and commits the step. Call once per
/// step, after the step's batch has been ingested.
/// `live_queue_depth` is unused and `ingest_sampled_elsewhere` must be
/// false; both remain only for callers not yet updated.
void EmitStepTelemetry(std::uint64_t committed_steps,
                       std::uint64_t committed_records,
                       std::size_t live_queue_depth, std::size_t every,
                       const StreamingCampaign* campaign,
                       bool ingest_sampled_elsewhere);

/// Declares the fixed stream and netsim.bgp series (idempotent, in the
/// order EmitStepTelemetry samples them). Step loops call this before
/// their first step, so the timeline lists the series from the start.
void DeclareStreamTelemetrySeries();

}  // namespace sisyphus::measure
