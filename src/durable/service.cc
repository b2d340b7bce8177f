#include "durable/service.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <utility>

#include "core/binio.h"
#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace sisyphus::durable {

namespace binio = core::binio;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Signals

namespace {
volatile std::sig_atomic_t g_interrupted = 0;
void HandleInterrupt(int) { g_interrupted = 1; }
}  // namespace

void InstallSignalHandlers() {
  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);
}

bool InterruptRequested() { return g_interrupted != 0; }

void ClearInterruptFlag() { g_interrupted = 0; }

// ---------------------------------------------------------------------------
// Chaos spec

core::Result<ChaosOptions> ParseChaosSpec(std::string_view spec) {
  ChaosOptions chaos;
  chaos.enabled = true;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view part =
        spec.substr(pos, comma == std::string_view::npos ? spec.size() - pos
                                                         : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    const std::string_view key = part.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : part.substr(eq + 1);
    if (key == "kill-after") {
      if (!ParseDecimalU64(value, &chaos.kill_after_steps)) {
        return core::Error(core::ErrorCode::kParseError,
                           "chaos: bad kill-after value");
      }
    } else if (key == "seed") {
      if (!ParseDecimalU64(value, &chaos.seed)) {
        return core::Error(core::ErrorCode::kParseError,
                           "chaos: bad seed value");
      }
    } else if (key == "mid-write") {
      chaos.mid_write = true;
    } else if (key == "corrupt") {
      if (value == "snapshot") {
        chaos.corrupt = ChaosOptions::CorruptTarget::kSnapshot;
      } else if (value == "journal") {
        chaos.corrupt = ChaosOptions::CorruptTarget::kJournal;
      } else {
        return core::Error(core::ErrorCode::kParseError,
                           "chaos: corrupt target must be snapshot|journal");
      }
    } else {
      return core::Error(
          core::ErrorCode::kParseError,
          "chaos: unknown key '" + std::string(key) +
              "' (expected kill-after/mid-write/corrupt/seed)");
    }
  }
  if (chaos.kill_after_steps == 0 && chaos.seed == 0) {
    return core::Error(core::ErrorCode::kParseError,
                       "chaos: kill-after=N or seed=S required");
  }
  return chaos;
}

// ---------------------------------------------------------------------------
// Step / snapshot serialization

namespace {

// Encoded sizes of the fixed fields, for bounding untrusted counts.
constexpr std::uint64_t kMinRecordBytes = 67;  // empty city string
constexpr std::uint64_t kFailureBytes = 18;
constexpr std::uint8_t kMaxIntent =
    static_cast<std::uint8_t>(measure::Intent::kEventTriggered);
constexpr std::uint8_t kMaxProbeFault =
    static_cast<std::uint8_t>(measure::ProbeFault::kUnreachable);
constexpr std::uint8_t kFaultMaskBits =
    (1u << obs::kLineageFaultNames.size()) - 1;

void PutFailure(binio::Writer& w, const measure::ProbeFailure& f) {
  w.PutI64(f.time.minutes());
  w.PutU32(f.vantage);
  w.PutU8(static_cast<std::uint8_t>(f.intent));
  w.PutU8(static_cast<std::uint8_t>(f.reason));
  w.PutU32(f.attempts);
}

/// False when a field is out of range (the reader's own ok() flags
/// truncation).
bool GetFailure(binio::Reader& r, measure::ProbeFailure* f) {
  f->time = core::SimTime(r.GetI64());
  f->vantage = r.GetU32();
  const std::uint8_t intent = r.GetU8();
  const std::uint8_t reason = r.GetU8();
  f->attempts = r.GetU32();
  if (intent > kMaxIntent || reason > kMaxProbeFault) return false;
  f->intent = static_cast<measure::Intent>(intent);
  f->reason = static_cast<measure::ProbeFault>(reason);
  return true;
}

core::Error FrameError(const char* what) {
  return core::Error(core::ErrorCode::kParseError, what);
}

}  // namespace

std::string EncodeStep(const measure::StepOutput& step,
                       std::uint64_t next_record_id_after) {
  binio::Writer w;
  w.PutI64(step.step_end.minutes());
  w.PutU64(next_record_id_after);
  w.PutU64(step.records.size());
  for (const measure::PendingRecord& pending : step.records) {
    const measure::SpeedTestRecord& r = pending.record;
    w.PutU64(r.id.value());
    w.PutI64(r.time.minutes());
    w.PutU32(r.asn.value());
    w.PutString(r.city);
    w.PutU32(r.vantage_pop);
    w.PutU32(r.server_pop);
    w.PutDouble(r.rtt_ms);
    w.PutDouble(r.loss_rate);
    w.PutDouble(r.throughput_mbps);
    w.PutU8(static_cast<std::uint8_t>(r.intent));
    w.PutU32(r.attempts);
    w.PutBool(pending.duplicate);
    w.PutU8(pending.fault_mask);
  }
  w.PutU64(step.failures.size());
  for (const measure::ProbeFailure& f : step.failures) PutFailure(w, f);
  return std::move(w).Take();
}

core::Result<DecodedStep> DecodeStep(std::string_view payload) {
  binio::Reader r(payload);
  DecodedStep decoded;
  measure::StepOutput& step = decoded.step;
  step.step_end = core::SimTime(r.GetI64());
  decoded.next_record_id_after = r.GetU64();
  const std::uint64_t record_count = r.GetU64();
  if (!r.ok() || record_count > r.remaining() / kMinRecordBytes) {
    return FrameError("record count beyond the payload");
  }
  // Ids are 1-based and run consecutively up to the watermark.
  if (decoded.next_record_id_after <= record_count) {
    return FrameError("record-id watermark below the record count");
  }
  const std::uint64_t first_id = decoded.next_record_id_after - record_count;
  step.records.resize(static_cast<std::size_t>(record_count));
  for (std::uint64_t i = 0; i < record_count; ++i) {
    measure::PendingRecord& pending = step.records[i];
    measure::SpeedTestRecord& rec = pending.record;
    const std::uint64_t id = r.GetU64();
    rec.id = core::MeasurementId(id);
    rec.time = core::SimTime(r.GetI64());
    rec.asn = core::Asn(r.GetU32());
    rec.city = r.GetString();
    rec.vantage_pop = r.GetU32();
    rec.server_pop = r.GetU32();
    rec.rtt_ms = r.GetDouble();
    rec.loss_rate = r.GetDouble();
    rec.throughput_mbps = r.GetDouble();
    const std::uint8_t intent = r.GetU8();
    rec.attempts = r.GetU32();
    const std::uint8_t duplicate = r.GetU8();
    pending.fault_mask = r.GetU8();
    if (!r.ok()) return FrameError("truncated record");
    if (id != first_id + i) return FrameError("non-consecutive record ids");
    if (intent > kMaxIntent) return FrameError("intent out of range");
    if (duplicate > 1) return FrameError("duplicate flag out of range");
    if ((pending.fault_mask & ~kFaultMaskBits) != 0) {
      return FrameError("fault mask out of range");
    }
    rec.intent = static_cast<measure::Intent>(intent);
    pending.duplicate = duplicate != 0;
  }
  const std::uint64_t failure_count = r.GetU64();
  if (!r.ok() || failure_count > r.remaining() / kFailureBytes) {
    return FrameError("failure count beyond the payload");
  }
  step.failures.resize(static_cast<std::size_t>(failure_count));
  for (measure::ProbeFailure& failure : step.failures) {
    if (!GetFailure(r, &failure)) {
      return FrameError("failure intent or reason out of range");
    }
  }
  if (!r.ok()) return FrameError("truncated failure");
  if (r.remaining() != 0) return FrameError("trailing bytes");
  return decoded;
}

namespace {

std::string EncodeSnapshotPayload(std::uint64_t seq, const core::Rng& rng,
                                  const measure::Platform& platform,
                                  std::uint64_t max_step_records) {
  binio::Writer w;
  w.PutU64(seq);
  const core::Rng::State rng_state = rng.SaveState();
  for (std::uint64_t word : rng_state.s) w.PutU64(word);
  w.PutBool(rng_state.has_cached_gaussian);
  w.PutDouble(rng_state.cached_gaussian);
  const measure::Platform::StreamState stream = platform.CaptureStreamState();
  w.PutU64(stream.next_record_id);
  w.PutU64(stream.route_change_cursor);
  binio::PutDoubleVector(w, stream.ewma_rtt);
  w.PutU64(max_step_records);
  obs::Registry::Global().Save(w);
  obs::Timeline::Global().Save(w);
  return std::move(w).Take();
}

/// The fixed-size head of a snapshot (seq, RNG, platform state, shed
/// cap); `tail` holds the registry and timeline bytes.
struct SnapshotHead {
  std::uint64_t seq = 0;
  core::Rng::State rng;
  measure::Platform::StreamState stream;
  std::uint64_t max_step_records = 0;
  std::string tail;
};

bool DecodeSnapshotHead(const std::string& payload, SnapshotHead* head) {
  binio::Reader r(payload);
  head->seq = r.GetU64();
  for (std::uint64_t& word : head->rng.s) word = r.GetU64();
  head->rng.has_cached_gaussian = r.GetBool();
  head->rng.cached_gaussian = r.GetDouble();
  head->stream.next_record_id = r.GetU64();
  head->stream.route_change_cursor = r.GetU64();
  head->stream.ewma_rtt = binio::GetDoubleVector(r);
  head->max_step_records = r.GetU64();
  if (!r.ok()) return false;
  head->tail = payload.substr(payload.size() - r.remaining());
  return true;
}

/// Shed-on-overload: keeps the first `cap` records in merge order (0 =
/// unbounded). Dropped records terminate in lineage as shed_overload
/// with zero delivered copies. Returns the number shed.
std::uint64_t ShedOverload(measure::StepOutput& step, std::uint64_t cap) {
  if (cap == 0 || step.records.size() <= cap) return 0;
  const std::uint64_t shed = step.records.size() - cap;
  if (obs::Lineage::enabled()) {
    for (std::size_t i = cap; i < step.records.size(); ++i) {
      obs::Lineage::Global().RecordShed(
          measure::LineageInfoOf(step.records[i]));
    }
  }
  SISYPHUS_METRIC_COUNT("measure.stream.shed_overload", shed);
  step.records.resize(cap);
  return shed;
}

/// Commits a shed step: the batch into the campaign, then the probe
/// failures onto the platform.
void IngestStep(const measure::StepOutput& step,
                measure::StreamingCampaign& campaign,
                measure::Platform& platform) {
  campaign.IngestBatch(step.records);
  platform.CommitFailures(step.failures);
}

bool FlipByte(const std::string& path, std::size_t offset) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return false;
  bool ok = std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0;
  int byte = ok ? std::fgetc(file) : EOF;
  ok = ok && byte != EOF;
  ok = ok &&
       std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0;
  ok = ok && std::fputc((byte ^ 0xff) & 0xff, file) != EOF;
  std::fclose(file);
  return ok;
}

/// Pauses the registry and timeline for the resume's fast-forward and
/// journal re-ingest (both come from the snapshot), restoring their
/// flags on every exit path. Lineage stays live: the re-ingest rebuilds
/// the ledger.
struct TelemetryPause {
  bool registry_enabled;
  bool timeline_enabled;
  TelemetryPause()
      : registry_enabled(obs::Registry::enabled()),
        timeline_enabled(obs::Timeline::enabled()) {
    obs::Registry::Enable(false);
    obs::Timeline::Enable(false);
  }
  ~TelemetryPause() {
    obs::Registry::Enable(registry_enabled);
    obs::Timeline::Enable(timeline_enabled);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Service

DurableStreamingService::DurableStreamingService(
    measure::Platform& platform, measure::StreamingCampaign& campaign,
    DurableOptions options)
    : platform_(platform), campaign_(campaign), options_(std::move(options)) {}

core::Result<RunStats> DurableStreamingService::Run(core::SimTime until,
                                                    core::Rng& rng) {
  return RunInternal(until, rng, /*resume=*/false);
}

core::Result<RunStats> DurableStreamingService::Resume(core::SimTime until,
                                                       core::Rng& rng) {
  return RunInternal(until, rng, /*resume=*/true);
}

core::Result<RunStats> DurableStreamingService::RunInternal(core::SimTime until,
                                                            core::Rng& rng,
                                                            bool resume) {
  if (options_.dir.empty()) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: options.dir is required");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: cannot create " + options_.dir + ": " +
                           ec.message());
  }
  const std::string journal_path =
      (fs::path(options_.dir) / "journal.bin").string();

  RunStats stats;
  stats.resumed = resume;

  // -- recovery: pick the snapshot to restore -----------------------------
  SnapshotHead head;
  bool restored = false;
  if (!resume) {
    // Fresh run: stale durable state would otherwise be mistaken for a
    // previous incarnation of this campaign.
    fs::remove(journal_path, ec);
    for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("snap-", 0) == 0 ||
          (name.size() > 4 &&
           name.substr(name.size() - 4) == ".tmp")) {
        fs::remove(entry.path(), ec);
      }
    }
  } else {
    const std::vector<SnapshotEntry> snaps = ListSnapshots(options_.dir);
    std::string diagnostics;
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
      SnapshotRead read = ReadSnapshotFile(it->path);
      if (!read.ok) {
        core::LogLine(core::LogLevel::kWarn,
                      "durable: snapshot invalid, falling back",
                      {{"path", it->path}, {"why", read.diagnostic}});
        diagnostics += (diagnostics.empty() ? "" : "; ") + read.diagnostic;
        continue;
      }
      if (!DecodeSnapshotHead(read.payload, &head) || head.seq != it->seq) {
        core::LogLine(core::LogLevel::kWarn,
                      "durable: snapshot undecodable, falling back",
                      {{"path", it->path}});
        diagnostics += (diagnostics.empty() ? "" : "; ") + it->path +
                       ": undecodable";
        continue;
      }
      restored = true;
      break;
    }
    if (!restored && !snaps.empty()) {
      return core::Error(core::ErrorCode::kParseError,
                         "durable resume: no valid snapshot among " +
                             std::to_string(snaps.size()) +
                             " candidates (" + diagnostics + ")");
    }
    // No snapshot files at all: cold resume from step 0 (journal, if any,
    // still verifies the re-execution).
  }
  const std::uint64_t start_seq = restored ? head.seq : 0;

  // -- journal scan -------------------------------------------------------
  JournalScan scan = ScanJournal(journal_path);
  if (scan.corrupt) {
    return core::Error(core::ErrorCode::kParseError,
                       "durable resume: journal corrupt: " + scan.diagnostic);
  }
  std::uint64_t high_water = scan.frames.size();
  if (high_water < start_seq) {
    // The protocol flushes the journal before every snapshot, so a valid
    // snapshot at seq k implies journaled frames through k.
    return core::Error(core::ErrorCode::kParseError,
                       "durable resume: journal high-water " +
                           std::to_string(high_water) +
                           " behind snapshot seq " +
                           std::to_string(start_seq));
  }
  stats.journal_high_water = high_water;

  // -- state restore, fast-forward, journal re-ingest ---------------------
  if (restored) {
    if (head.max_step_records != options_.max_step_records) {
      return core::Error(core::ErrorCode::kInvalidArgument,
                         "durable resume: snapshot was taken with "
                         "max_step_records " +
                             std::to_string(head.max_step_records) +
                             ", this run uses " +
                             std::to_string(options_.max_step_records));
    }
    binio::Reader tail(head.tail);
    if (!obs::Registry::Global().Load(tail) ||
        !obs::Timeline::Global().Load(tail) || tail.remaining() != 0) {
      return core::Error(core::ErrorCode::kParseError,
                         "durable resume: snapshot state failed to load "
                         "(checksum passed but decoding diverged)");
    }
    {
      // The restored registry and timeline already cover steps 1..k, so
      // neither the skipped steps' clock/route-cache effects nor the
      // re-ingest may count again.
      TelemetryPause pause;
      std::uint64_t next_record_id = 1;
      for (std::uint64_t frame_seq = 1; frame_seq <= start_seq; ++frame_seq) {
        platform_.SkipStep(until);
        auto decoded = DecodeStep(scan.frames[frame_seq - 1].payload);
        std::string problem;
        if (!decoded.ok()) {
          problem = decoded.error().message();
        } else if (decoded.value().next_record_id_after -
                       decoded.value().step.records.size() !=
                   next_record_id) {
          problem = "record ids do not continue the previous frame's";
        } else if (decoded.value().step.step_end != platform_.Now()) {
          problem = "step end differs from the fast-forwarded clock";
        }
        if (!problem.empty()) {
          return core::Error(core::ErrorCode::kParseError,
                             "durable resume: journal frame " +
                                 std::to_string(frame_seq) +
                                 " below snapshot " +
                                 std::to_string(start_seq) + ": " + problem);
        }
        measure::StepOutput& step = decoded.value().step;
        next_record_id = decoded.value().next_record_id_after;
        ShedOverload(step, options_.max_step_records);
        IngestStep(step, campaign_, platform_);
      }
      if (next_record_id != head.stream.next_record_id) {
        return core::Error(core::ErrorCode::kParseError,
                           "durable resume: journal frames 1.." +
                               std::to_string(start_seq) +
                               " end at record id " +
                               std::to_string(next_record_id) +
                               ", snapshot says " +
                               std::to_string(head.stream.next_record_id));
      }
    }
    platform_.RestoreStreamState(head.stream);
    rng.RestoreState(head.rng);
    core::LogLine(core::LogLevel::kInfo, "durable: resumed from snapshot",
                  {{"seq", start_seq}, {"journal_high_water", high_water}});
  }

  // -- journal writer ------------------------------------------------------
  Journal journal;
  std::string journal_error;
  if (!journal.Open(journal_path, scan.valid_bytes, options_.fsync_every,
                    &journal_error)) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "durable: " + journal_error);
  }

  // -- chaos arming --------------------------------------------------------
  std::uint64_t chaos_kill_seq = 0;
  if (options_.chaos.enabled) {
    chaos_kill_seq = options_.chaos.kill_after_steps;
    if (chaos_kill_seq == 0) {
      const std::uint64_t h = core::Fnv1a64(
          "chaos-" + std::to_string(options_.chaos.seed));
      chaos_kill_seq = 1 + h % 24;
    }
  }

  measure::DeclareStreamTelemetrySeries();

  std::uint64_t last_snapshot_seq = start_seq;
  const auto write_snapshot = [&](std::uint64_t seq) -> core::Result<bool> {
    journal.Flush();
    const std::string payload = EncodeSnapshotPayload(
        seq, rng, platform_, options_.max_step_records);
    std::string error;
    if (!WriteSnapshotFile(SnapshotPath(options_.dir, seq), payload,
                           &error)) {
      return core::Error(core::ErrorCode::kInvalidArgument,
                         "durable: " + error);
    }
    PruneSnapshots(options_.dir, options_.keep_snapshots);
    // Refresh the live timeline artifact next to the snapshots so
    // `timelineq --follow` can tail a running campaign; like the gauges,
    // its content is a pure function of the committed step stream.
    if (obs::Timeline::enabled()) obs::WriteTimelineArtifact(options_.dir);
    last_snapshot_seq = seq;
    return true;
  };

  // -- the step loop --------------------------------------------------------
  std::uint64_t seq = start_seq;
  std::uint64_t next_record_id_after = restored ? head.stream.next_record_id : 1;
  stats.outcome = RunOutcome::kCompleted;
  while (platform_.Now() < until) {
    if (InterruptRequested()) {
      stats.outcome = RunOutcome::kInterrupted;
      break;
    }
    measure::StepOutput step = platform_.GenerateStep(until, rng);
    ++seq;
    if (!step.records.empty()) {
      next_record_id_after = step.records.back().record.id.value() + 1;
    }
    const std::string payload = EncodeStep(step, next_record_id_after);

    if (seq <= high_water) {
      // Verified re-execution: the regenerated step must match the
      // journaled frame byte-for-byte, or the restored state diverged
      // from the original run.
      const JournalFrame& frame = scan.frames[seq - 1];
      if (frame.payload != payload) {
        return core::Error(
            core::ErrorCode::kInvalidArgument,
            "durable resume: journal verification failed at step " +
                std::to_string(seq) +
                " (regenerated step diverges from journaled frame)");
      }
      ++stats.replayed_steps;
    } else {
      if (!journal.Append(seq, payload)) {
        return core::Error(core::ErrorCode::kInvalidArgument,
                           "durable: journal append failed at step " +
                               std::to_string(seq));
      }
      stats.journal_high_water = seq;
    }

    // Shed AFTER the journal append (the journal witnesses the pre-shed
    // batch) and BEFORE ingest.
    stats.shed_records += ShedOverload(step, options_.max_step_records);

    try {
      if (options_.ingest_fault) options_.ingest_fault(seq);
      IngestStep(step, campaign_, platform_);
    } catch (const std::exception& e) {
      return core::Error(core::ErrorCode::kInvalidArgument,
                         "streaming ingest failed at step " +
                             std::to_string(seq) + ": " + e.what());
    }
    ++stats.steps;
    // campaign_.ingested() counts post-shed batch entries, the journal
    // re-ingest's included, so a resumed run's gauge stream continues
    // exactly where the killed run's left off.
    measure::EmitStepTelemetry(seq, campaign_.ingested(), 0,
                               platform_.options().heartbeat_every_steps,
                               &campaign_,
                               /*ingest_sampled_elsewhere=*/false);

    // Chaos: die at this step boundary, optionally corrupting state
    // first, exactly as a crash would — _exit, no unwinding.
    if (chaos_kill_seq != 0 && seq == chaos_kill_seq) {
      journal.Flush();
      if (options_.chaos.corrupt == ChaosOptions::CorruptTarget::kSnapshot) {
        auto written = write_snapshot(seq);
        if (written.ok()) {
          FlipByte(SnapshotPath(options_.dir, seq), 20);
        }
      }
      if (options_.chaos.mid_write) {
        journal.AppendTorn(seq + 1, payload, 13);
      }
      if (options_.chaos.corrupt == ChaosOptions::CorruptTarget::kJournal) {
        // Offset 26 lands inside the FIRST frame's payload, so the
        // damage is before the journal tail and must be detected (use
        // kill-after >= 2 so the frame is not the last one).
        FlipByte(journal_path, 26);
      }
      std::printf("chaos: killed after step %llu\n",
                  static_cast<unsigned long long>(seq));
      std::fflush(stdout);
      std::_Exit(137);
    }

    if (options_.snapshot_every > 0 &&
        seq % options_.snapshot_every == 0 && platform_.Now() < until) {
      auto written = write_snapshot(seq);
      if (!written.ok()) return written.error();
    }

    if (options_.stop_after_steps > 0 &&
        stats.steps >= options_.stop_after_steps &&
        platform_.Now() < until) {
      stats.outcome = RunOutcome::kStopped;
      break;
    }
  }

  // -- shutdown -------------------------------------------------------------
  journal.Flush();
  if (stats.outcome != RunOutcome::kStopped) {
    // Completed or interrupted: leave a snapshot at the boundary so a
    // later resume (or a post-interrupt restart) fast-forwards instead
    // of replaying the whole journal. kStopped emulates a crash, so it
    // deliberately leaves only the journal.
    auto written = write_snapshot(seq);
    if (!written.ok()) return written.error();
  }

  stats.snapshot_seq = last_snapshot_seq;
  stats.journal_entries = journal.appended();
  if (stats.outcome == RunOutcome::kInterrupted) {
    core::LogLine(core::LogLevel::kWarn,
                  "durable: interrupted, state flushed",
                  {{"seq", seq}, {"snapshot_seq", last_snapshot_seq}});
  }
  return stats;
}

}  // namespace sisyphus::durable
