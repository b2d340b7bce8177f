// Durable streaming service: crash-tolerant driver for a streaming
// measurement campaign (DESIGN.md §11).
//
// The service owns the durability protocol around Platform's
// step-at-a-time API:
//
//   1. GenerateStep — pure generation from (RNG, simulator, EWMA) state;
//   2. journal — the serialized StepOutput is appended to a checksummed
//      write-ahead journal BEFORE it is applied;
//   3. shed — an optional deterministic per-step record cap; dropped
//      records terminate in lineage as shed_overload with zero delivered
//      copies (conservation stays exact);
//   4. ingest — StreamingCampaign::IngestBatch, then the step's telemetry,
//      committed in step order on the calling thread;
//   5. snapshot — every `snapshot_every` steps, the state whose size does
//      not grow with the record count (seq, RNG, record-id watermark,
//      route-change cursor, per-vantage EWMAs, the shed cap, metrics
//      registry, timeline) is written atomically.
//
// The journal is the store's log. Resume loads the newest valid snapshot
// (seq k), fast-forwards the simulator k steps, and rebuilds the store
// arenas, panel aggregates, probe failures and lineage ledger by decoding
// journal frames 1..k and committing each through the same shed + ingest
// path the live loop uses, with the registry and timeline paused (they
// come from the snapshot). Frames above k are only an integrity witness:
// those steps are re-generated live and their serialized form compared
// byte-for-byte against the journaled frame — any divergence fails the
// resume loudly. Because every artifact byte is a pure function of the
// committed step stream, a killed-and-resumed run produces
// panel.csv/metrics.json/lineage.json byte-identical to an uninterrupted
// one, at any SISYPHUS_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "core/result.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "measure/platform.h"

namespace sisyphus::durable {

/// Fault-injection harness for kill/resume drills (`--chaos` on the
/// table1 bench). The kill fires at a step boundary, after the step's
/// journal append + ingest (and after the forced snapshot when the
/// corruption target is the snapshot), via _exit — no destructors, no
/// flushes beyond what the protocol already guarantees.
struct ChaosOptions {
  bool enabled = false;
  /// Kill after completing this step (1-based). 0 with seed!=0: derived
  /// pseudo-randomly from the seed.
  std::uint64_t kill_after_steps = 0;
  /// Before dying, write a partial journal frame (simulates a crash
  /// mid-append; recovery must treat it as a benign torn tail).
  bool mid_write = false;
  enum class CorruptTarget { kNone, kSnapshot, kJournal };
  /// Before dying, flip one byte in the target file (recovery must detect
  /// the checksum mismatch: snapshot -> fall back, journal -> fail loud).
  CorruptTarget corrupt = CorruptTarget::kNone;
  std::uint64_t seed = 0;
};

/// Parses "kill-after=N[,mid-write][,corrupt=snapshot|journal][,seed=S]";
/// N and S are decimal and must fit in 64 bits.
core::Result<ChaosOptions> ParseChaosSpec(std::string_view spec);

struct DurableOptions {
  /// Directory holding journal.bin and snap-*.bin. Required.
  std::string dir;
  /// Steps between periodic snapshots (0 = final snapshot only).
  std::uint64_t snapshot_every = 16;
  /// Journal frames between fsyncs (also fsynced at snapshots/shutdown).
  std::uint64_t fsync_every = 8;
  /// Shed-on-overload: per-step record cap, keeping the first N in merge
  /// order (0 = unbounded). Deterministic — a pure function of the batch,
  /// never of wall-clock — so replays shed identically.
  std::uint64_t max_step_records = 0;
  /// Snapshots retained (older ones pruned).
  std::size_t keep_snapshots = 3;
  // Heartbeat cadence comes from PlatformOptions::heartbeat_every_steps —
  // one source of truth, so the durable loop's gauge/log stream (and the
  // timeline sampler riding the same hook) is identical to the plain
  // streaming loop's by construction.
  /// Test hook: stop cleanly after N live steps WITHOUT a final snapshot —
  /// emulates a crash whose journal survived (the crash-at-every-step
  /// property test drives this).
  std::uint64_t stop_after_steps = 0;
  /// Test hook: called with each step's seq on the ingest path before the
  /// batch is applied; a throw exercises the supervisor (the step fails
  /// deterministically, naming the step).
  std::function<void(std::uint64_t)> ingest_fault;
  ChaosOptions chaos;
};

enum class RunOutcome {
  kCompleted,    ///< reached `until`
  kInterrupted,  ///< SIGINT/SIGTERM: journal flushed + final snapshot
  kStopped,      ///< stop_after_steps hook fired
};

struct RunStats {
  RunOutcome outcome = RunOutcome::kCompleted;
  bool resumed = false;
  std::uint64_t steps = 0;           ///< live steps executed this process
  std::uint64_t replayed_steps = 0;  ///< steps re-executed under journal verification
  std::uint64_t snapshot_seq = 0;    ///< seq of the last snapshot written
  std::uint64_t journal_high_water = 0;  ///< highest journaled seq
  std::uint64_t journal_entries = 0;     ///< frames appended this process
  std::uint64_t shed_records = 0;        ///< records shed this process
};

/// SIGINT/SIGTERM -> an async-signal-safe flag the step loop polls at
/// step boundaries; the run then flushes, snapshots, and returns
/// kInterrupted so the caller can write valid (partial-run-marked)
/// artifacts instead of torn files.
void InstallSignalHandlers();
bool InterruptRequested();
void ClearInterruptFlag();  ///< tests

/// Serialized journal payload of one step: step_end, next-record-id
/// watermark, then the merge-ordered records and failures. Byte-stable
/// across thread counts and platforms (little-endian, no padding).
std::string EncodeStep(const measure::StepOutput& step,
                       std::uint64_t next_record_id_after);

/// One journal frame's payload, decoded.
struct DecodedStep {
  measure::StepOutput step;
  std::uint64_t next_record_id_after = 1;
};

/// The inverse of EncodeStep. The payload is untrusted (a forger can
/// recompute the frame checksum), so this returns an error — never
/// crashes — on truncation, trailing bytes, counts beyond the payload,
/// Intent/ProbeFault/fault-mask values out of range, and record ids that
/// do not run consecutively up to `next_record_id_after`.
core::Result<DecodedStep> DecodeStep(std::string_view payload);

class DurableStreamingService {
 public:
  /// The platform and campaign must outlive the service. The campaign
  /// must be freshly constructed (Run) or reconstructed identically to
  /// the original run (Resume) — lineage enablement included, since
  /// IncrementalPanelBuilder snapshots the flag at construction.
  DurableStreamingService(measure::Platform& platform,
                          measure::StreamingCampaign& campaign,
                          DurableOptions options);

  /// Fresh durable run from the platform's current time to `until`.
  /// Clears stale journal/snapshot state in the directory first.
  core::Result<RunStats> Run(core::SimTime until, core::Rng& rng);

  /// Crash-tolerant resume: newest valid snapshot (seq k), journal
  /// frames 1..k re-ingested to rebuild the store, panel, failures and
  /// lineage, verified re-execution of the journal tail, then normal
  /// operation to `until`. Corrupt snapshots fall back to the previous
  /// one (loud failure when none is valid but some exist). Fails loudly,
  /// without resuming, on journal corruption before the tail, on a frame
  /// below k that does not decode, and when the journal disagrees with
  /// the snapshot (record-id watermark, step clock) or the snapshot's
  /// max_step_records differs from this run's. With no snapshot and no
  /// journal this degrades to a cold Run without clearing the directory.
  core::Result<RunStats> Resume(core::SimTime until, core::Rng& rng);

 private:
  core::Result<RunStats> RunInternal(core::SimTime until, core::Rng& rng,
                                     bool resume);

  measure::Platform& platform_;
  measure::StreamingCampaign& campaign_;
  DurableOptions options_;
};

}  // namespace sisyphus::durable
