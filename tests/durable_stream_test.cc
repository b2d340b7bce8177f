// Durability properties of the streaming service (DESIGN.md §11), enforced
// in-process where a diff is debuggable:
//
//   * crash-at-every-step: stop after step k with no final snapshot (a
//     crash whose journal survived), resume, and the panel CSV, metrics
//     snapshot, and lineage ledger must be byte-identical to an
//     uninterrupted run — for every k, at 1 and 8 threads;
//   * a torn tail from a crash mid-journal-write is benign;
//   * a corrupt newest snapshot falls back to the previous one; when every
//     snapshot is corrupt the resume fails loudly;
//   * journal corruption before the tail fails loudly, and so does a
//     re-checksummed frame below the snapshot seq that does not decode or
//     disagrees with the snapshot (the journal is the store's log there);
//   * the supervisor names the step whose ingest failed, and a resume
//     recovers that step from the journal;
//   * shed-on-overload preserves byte-identity;
//   * SIGTERM interrupts cleanly and the run resumes to the same bytes.
//
// The chaos ctest fixtures and the CI chaos-smoke job enforce the same
// properties on the shipped table1 binary across real process kills.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/parallel.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "durable/journal.h"
#include "durable/service.h"
#include "durable/snapshot.h"
#include "measure/export.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;

struct Artifacts {
  std::string panel_csv;
  std::string metrics_json;
  std::string lineage_json;
};

// Two days at one-hour steps: 48 steps, small enough that crashing after
// every single step stays fast, large enough to cross the treatment time
// and several snapshot boundaries.
constexpr std::uint64_t kTotalSteps = 48;

netsim::ScenarioZaOptions SmallScenario() {
  netsim::ScenarioZaOptions options;
  options.donor_units = 6;
  options.treatment_time = core::SimTime::FromDays(1);
  options.horizon = core::SimTime::FromDays(2);
  return options;
}

measure::FaultPlan SmallPlan() {
  measure::FaultPlan plan;
  plan.seed = 42;
  plan.probe_loss_probability = 0.15;
  plan.duplicate_probability = 0.02;
  plan.corruption_probability = 0.01;
  plan.max_clock_skew = core::SimTime(3);
  return plan;
}

struct RunSpec {
  std::string dir;
  bool resume = false;
  std::size_t threads = 1;
  std::uint64_t stop_after = 0;
  std::uint64_t snapshot_every = 5;  ///< deliberately coprime with nothing
  std::uint64_t fsync_every = 3;
  std::uint64_t shed_max = 0;
  std::function<void(std::uint64_t)> ingest_fault;
};

struct RunResult {
  bool ok = false;
  std::string error;
  durable::RunStats stats;
  Artifacts artifacts;  ///< filled only when the run completed
};

/// One durable campaign over a fresh platform + campaign, exactly as the
/// resume contract requires (identical reconstruction). Every obs global
/// is reset first; the run label is fixed so ledgers are comparable.
RunResult RunDurable(const RunSpec& spec) {
  core::ThreadPool::SetGlobalThreadCount(spec.threads);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("durable");

  const netsim::ScenarioZaOptions scenario_options = SmallScenario();
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);

  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);

  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 4.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (netsim::PopIndex donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }

  const measure::FaultPlan plan = SmallPlan();
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);

  durable::DurableOptions durable_options;
  durable_options.dir = spec.dir;
  durable_options.snapshot_every = spec.snapshot_every;
  durable_options.fsync_every = spec.fsync_every;
  durable_options.max_step_records = spec.shed_max;
  durable_options.stop_after_steps = spec.stop_after;
  durable_options.ingest_fault = spec.ingest_fault;

  durable::DurableStreamingService service(platform, stream, durable_options);
  core::Rng rng(scenario_options.seed);
  const core::Result<durable::RunStats> run =
      spec.resume ? service.Resume(scenario_options.horizon, rng)
                  : service.Run(scenario_options.horizon, rng);

  RunResult result;
  result.ok = run.ok();
  if (!run.ok()) {
    result.error = run.error().message();
    return result;
  }
  result.stats = run.value();
  if (result.stats.outcome == durable::RunOutcome::kCompleted) {
    result.artifacts.panel_csv = measure::PanelToCsv(stream.FinalizePanel());
    result.artifacts.metrics_json = obs::Registry::Global().SnapshotJson();
    result.artifacts.lineage_json = obs::Lineage::Global().ToJson();
  }
  return result;
}

/// Fresh per-test durable directory.
std::string MakeDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void FlipByteAt(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  ASSERT_TRUE(f.good()) << "offset " << offset << " past end of " << path;
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

std::string NewestSnapshot(const std::string& dir) {
  const auto snaps = durable::ListSnapshots(dir);
  EXPECT_FALSE(snaps.empty());
  return snaps.empty() ? std::string() : snaps.back().path;
}

class DurableStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_were_enabled_ = obs::Registry::enabled();
    lineage_was_enabled_ = obs::Lineage::enabled();
    obs::Registry::Enable(true);
    obs::Lineage::Enable(true);
  }

  void TearDown() override {
    obs::Registry::Global().ResetAll();
    obs::Lineage::Global().Reset();
    obs::Registry::Enable(metrics_were_enabled_);
    obs::Lineage::Enable(lineage_was_enabled_);
    core::ThreadPool::SetGlobalThreadCount(0);
    durable::ClearInterruptFlag();
  }

  /// The uninterrupted reference run (computed once per test that needs it).
  Artifacts Reference() {
    RunSpec spec;
    spec.dir = MakeDir("durable-reference");
    const RunResult ref = RunDurable(spec);
    EXPECT_TRUE(ref.ok) << ref.error;
    EXPECT_EQ(ref.stats.outcome, durable::RunOutcome::kCompleted);
    EXPECT_EQ(ref.stats.steps, kTotalSteps);
    EXPECT_EQ(ref.stats.journal_high_water, kTotalSteps);
    EXPECT_EQ(ref.stats.snapshot_seq, kTotalSteps);
    EXPECT_FALSE(ref.artifacts.panel_csv.empty());
    return ref.artifacts;
  }

  void ExpectIdentical(const Artifacts& got, const Artifacts& want,
                       const std::string& context) {
    EXPECT_EQ(got.panel_csv, want.panel_csv) << "panel diverged: " << context;
    EXPECT_EQ(got.metrics_json, want.metrics_json)
        << "metrics diverged: " << context;
    EXPECT_EQ(got.lineage_json, want.lineage_json)
        << "lineage diverged: " << context;
  }

 private:
  bool metrics_were_enabled_ = false;
  bool lineage_was_enabled_ = false;
};

// The wrapper must not perturb the campaign: a durable run produces the
// same artifacts as the plain streaming path.
TEST_F(DurableStreamTest, DurableRunMatchesPlainStreaming) {
  const Artifacts reference = Reference();

  core::ThreadPool::SetGlobalThreadCount(1);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("durable");

  const netsim::ScenarioZaOptions scenario_options = SmallScenario();
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 4.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (netsim::PopIndex donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
  const measure::FaultPlan plan = SmallPlan();
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  core::Rng rng(scenario_options.seed);
  platform.RunStreaming(scenario_options.horizon, rng, stream);

  Artifacts plain;
  plain.panel_csv = measure::PanelToCsv(stream.FinalizePanel());
  plain.metrics_json = obs::Registry::Global().SnapshotJson();
  plain.lineage_json = obs::Lineage::Global().ToJson();
  ExpectIdentical(reference, plain, "durable wrapper vs plain streaming");
}

// The tentpole property: crash after EVERY step, resume, byte-identity —
// across thread counts, including a crash at thread count 1 resumed at 8.
TEST_F(DurableStreamTest, CrashAtEveryStepResumesByteIdentical) {
  const Artifacts reference = Reference();

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (std::uint64_t k = 1; k < kTotalSteps; ++k) {
      const std::string dir = MakeDir("durable-crash");
      RunSpec crash;
      crash.dir = dir;
      crash.threads = threads;
      crash.stop_after = k;
      const RunResult stopped = RunDurable(crash);
      ASSERT_TRUE(stopped.ok) << stopped.error;
      ASSERT_EQ(stopped.stats.outcome, durable::RunOutcome::kStopped);
      ASSERT_EQ(stopped.stats.steps, k);

      RunSpec resume;
      resume.dir = dir;
      resume.resume = true;
      // Crash at `threads`, resume at the other thread count: durability
      // must compose with the parallel-ingest determinism guarantee.
      resume.threads = threads == 1 ? 8 : 1;
      const RunResult resumed = RunDurable(resume);
      ASSERT_TRUE(resumed.ok) << resumed.error;
      ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
      EXPECT_TRUE(resumed.stats.resumed);
      EXPECT_EQ(resumed.stats.snapshot_seq, kTotalSteps);
      ExpectIdentical(resumed.artifacts, reference,
                      "crash after step " + std::to_string(k) + " at " +
                          std::to_string(threads) + " threads");
    }
  }
}

// A crash mid-journal-write leaves a torn final frame; recovery treats it
// as a benign tail, truncates it, and regenerates the step.
TEST_F(DurableStreamTest, TornJournalTailIsBenign) {
  const Artifacts reference = Reference();
  const std::string dir = MakeDir("durable-torn");

  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 7;
  ASSERT_TRUE(RunDurable(crash).ok);

  const std::string journal = dir + "/journal.bin";
  const std::uint64_t size = fs::file_size(journal);
  fs::resize_file(journal, size - 5);  // torn trailer on the last frame

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference, "torn journal tail");
}

// A flipped byte in the newest snapshot must fail its checksum and fall
// back to the previous snapshot — same bytes, longer replay.
TEST_F(DurableStreamTest, CorruptNewestSnapshotFallsBack) {
  const Artifacts reference = Reference();
  const std::string dir = MakeDir("durable-snapfall");

  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;  // snapshots at 5 and 10
  ASSERT_TRUE(RunDurable(crash).ok);
  ASSERT_GE(durable::ListSnapshots(dir).size(), 2u);

  FlipByteAt(NewestSnapshot(dir), 20);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference, "corrupt newest snapshot");
}

TEST_F(DurableStreamTest, AllSnapshotsCorruptFailsLoudly) {
  const std::string dir = MakeDir("durable-snapdead");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);

  for (const auto& snap : durable::ListSnapshots(dir)) {
    FlipByteAt(snap.path, 20);
  }

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("no valid snapshot"), std::string::npos)
      << resumed.error;
}

// Damage before the journal's tail is corruption, not a torn write, and
// must never be silently replayed over.
TEST_F(DurableStreamTest, JournalCorruptionBeforeTailFailsLoudly) {
  const std::string dir = MakeDir("durable-jrnlbad");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);

  // Offset 26 is inside the FIRST frame's payload — far from the tail.
  FlipByteAt(dir + "/journal.bin", 26);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("journal corrupt"), std::string::npos)
      << resumed.error;
}

// The supervisor: a failing ingest step surfaces as a deterministic error
// naming the step, and because the step was journaled before it failed, a
// resume recovers it.
TEST_F(DurableStreamTest, SupervisorNamesFailingStepAndResumeRecovers) {
  const Artifacts reference = Reference();

  const std::string dir = MakeDir("durable-supervise");
  RunSpec faulty;
  faulty.dir = dir;
  faulty.ingest_fault = [](std::uint64_t seq) {
    if (seq == 5) throw std::runtime_error("injected ingest fault");
  };
  const RunResult failed = RunDurable(faulty);
  ASSERT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("failed at step 5"), std::string::npos)
      << failed.error;
  EXPECT_NE(failed.error.find("injected ingest fault"), std::string::npos)
      << failed.error;

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference,
                  "resume after supervised failure");
}

// Shed-on-overload: deterministic, lineage-conserving (shed records get a
// terminal shed_overload stage and a matching counter), and byte-stable
// across crash/resume and thread counts.
TEST_F(DurableStreamTest, ShedOverloadIsDeterministicAcrossResume) {
  RunSpec shed_ref;
  shed_ref.dir = MakeDir("durable-shedref");
  shed_ref.shed_max = 3;
  const RunResult reference = RunDurable(shed_ref);
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_EQ(reference.stats.outcome, durable::RunOutcome::kCompleted);
  ASSERT_GT(reference.stats.shed_records, 0u);
  // Under SISYPHUS_OBS=OFF metrics and lineage are compiled out and their
  // artifacts are empty; the crash/resume identity below still holds.
#if !defined(SISYPHUS_OBS_DISABLED)
  EXPECT_NE(
      reference.artifacts.metrics_json.find("measure.stream.shed_overload"),
      std::string::npos);
  EXPECT_NE(reference.artifacts.lineage_json.find("shed_overload"),
            std::string::npos);
#endif

  const std::string dir = MakeDir("durable-shedcrash");
  RunSpec crash;
  crash.dir = dir;
  crash.shed_max = 3;
  crash.stop_after = 20;
  crash.threads = 8;
  ASSERT_TRUE(RunDurable(crash).ok);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  resume.shed_max = 3;
  resume.threads = 8;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference.artifacts,
                  "shed crash/resume at 8 threads");
}

// SIGTERM → clean interruption (journal flushed, final snapshot written),
// and the interrupted run resumes to the reference bytes.
TEST_F(DurableStreamTest, SigtermInterruptsCleanlyAndResumes) {
  const Artifacts reference = Reference();

  durable::InstallSignalHandlers();
  durable::ClearInterruptFlag();
  std::raise(SIGTERM);
  ASSERT_TRUE(durable::InterruptRequested());

  const std::string dir = MakeDir("durable-sigterm");
  RunSpec interrupted_spec;
  interrupted_spec.dir = dir;
  const RunResult interrupted = RunDurable(interrupted_spec);
  ASSERT_TRUE(interrupted.ok) << interrupted.error;
  ASSERT_EQ(interrupted.stats.outcome, durable::RunOutcome::kInterrupted);
  EXPECT_LT(interrupted.stats.steps, kTotalSteps);
  // The final snapshot made it down despite the interrupt.
  EXPECT_FALSE(durable::ListSnapshots(dir).empty());

  durable::ClearInterruptFlag();
  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  ASSERT_EQ(resumed.stats.outcome, durable::RunOutcome::kCompleted);
  ExpectIdentical(resumed.artifacts, reference, "resume after SIGTERM");
}

/// Rewrites `dir`'s journal with frame `seq` decoded, passed to `edit`,
/// and re-encoded, every frame re-checksummed: a forgery the frame
/// checksum cannot catch.
void ForgeJournalFrame(const std::string& dir, std::uint64_t seq,
                       const std::function<void(durable::DecodedStep&)>& edit) {
  const std::string path = dir + "/journal.bin";
  durable::JournalScan scan = durable::ScanJournal(path);
  ASSERT_FALSE(scan.corrupt);
  ASSERT_GE(scan.frames.size(), seq);
  auto decoded = durable::DecodeStep(scan.frames[seq - 1].payload);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  edit(decoded.value());
  const std::string forged = durable::EncodeStep(
      decoded.value().step, decoded.value().next_record_id_after);
  scan.frames[seq - 1].payload = forged;
  // The writer truncates the file the scan's bytes were read from; the
  // frames view the scan's own copy, so they stay readable.
  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, 1));
  for (const durable::JournalFrame& frame : scan.frames) {
    ASSERT_TRUE(journal.Append(frame.seq, frame.payload));
  }
}

// Below the snapshot seq the journal is the store's log, so a frame that
// passes its checksum but does not decode must stop the resume.
TEST_F(DurableStreamTest, ForgedFrameBelowSnapshotFailsLoudly) {
  const std::string dir = MakeDir("durable-forged");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;  // snapshots at 5 and 10
  ASSERT_TRUE(RunDurable(crash).ok);
  ForgeJournalFrame(dir, 2, [](durable::DecodedStep& frame) {
    ASSERT_FALSE(frame.step.records.empty());
    frame.step.records[0].record.intent = static_cast<measure::Intent>(7);
  });

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find(
                "journal frame 2 below snapshot 10: intent out of range"),
            std::string::npos)
      << resumed.error;
}

// A frame whose ids skip ahead decodes on its own but breaks the record-id
// chain the snapshot's watermark closes.
TEST_F(DurableStreamTest, JournalDisagreeingWithSnapshotFailsLoudly) {
  const std::string dir = MakeDir("durable-idgap");
  RunSpec crash;
  crash.dir = dir;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);
  ForgeJournalFrame(dir, 3, [](durable::DecodedStep& frame) {
    frame.next_record_id_after += 1;
    for (measure::PendingRecord& pending : frame.step.records) {
      pending.record.id = core::MeasurementId(pending.record.id.value() + 1);
    }
  });

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("journal frame 3 below snapshot 10: record "
                               "ids do not continue"),
            std::string::npos)
      << resumed.error;
}

// The shed cap decides which journaled records reach the store, so a
// resume under a different cap than the snapshot's must not proceed.
TEST_F(DurableStreamTest, ShedCapMismatchFailsLoudly) {
  const std::string dir = MakeDir("durable-shedcap");
  RunSpec crash;
  crash.dir = dir;
  crash.shed_max = 3;
  crash.stop_after = 12;
  ASSERT_TRUE(RunDurable(crash).ok);

  RunSpec resume;
  resume.dir = dir;
  resume.resume = true;
  const RunResult resumed = RunDurable(resume);
  ASSERT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("max_step_records 3, this run uses 0"),
            std::string::npos)
      << resumed.error;
}

// ---------------------------------------------------------------------------
// Journal scan unit properties: torn tail vs mid-file corruption vs gaps.

TEST(DurableJournalTest, ScanDistinguishesTornTailFromCorruption) {
  const std::string dir = MakeDir("durable-jscan");
  const std::string path = dir + "/journal.bin";

  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, /*fsync_every=*/2));
  ASSERT_TRUE(journal.Append(1, "alpha"));
  ASSERT_TRUE(journal.Append(2, "bravo"));
  journal.Close();

  durable::JournalScan clean = durable::ScanJournal(path);
  ASSERT_EQ(clean.frames.size(), 2u);
  EXPECT_EQ(clean.frames[0].payload, "alpha");
  EXPECT_EQ(clean.frames[1].payload, "bravo");
  // One copy of the file: the frames view the scan's buffer, and moving
  // the scan keeps them valid.
  const char* buffer = clean.bytes.data();
  EXPECT_EQ(clean.bytes.size(), fs::file_size(path));
  for (const durable::JournalFrame& frame : clean.frames) {
    EXPECT_GE(frame.payload.data(), buffer);
    EXPECT_LE(frame.payload.data() + frame.payload.size(),
              buffer + clean.bytes.size());
  }
  const durable::JournalScan moved = std::move(clean);
  EXPECT_EQ(moved.frames[1].payload, "bravo");
  clean = durable::ScanJournal(path);
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_FALSE(clean.corrupt);
  EXPECT_EQ(clean.valid_bytes, fs::file_size(path));

  // A torn final frame (crash mid-append) is benign.
  ASSERT_TRUE(journal.Open(path, clean.valid_bytes, 2));
  ASSERT_TRUE(journal.AppendTorn(3, "charlie", 10));
  journal.Close();
  durable::JournalScan torn = durable::ScanJournal(path);
  EXPECT_EQ(torn.frames.size(), 2u);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_FALSE(torn.corrupt);
  EXPECT_EQ(torn.valid_bytes, clean.valid_bytes);

  // Reopening at valid_bytes truncates the torn tail and appends cleanly.
  ASSERT_TRUE(journal.Open(path, torn.valid_bytes, 2));
  ASSERT_TRUE(journal.Append(3, "charlie"));
  journal.Close();
  durable::JournalScan repaired = durable::ScanJournal(path);
  ASSERT_EQ(repaired.frames.size(), 3u);
  EXPECT_EQ(repaired.frames[2].payload, "charlie");
  EXPECT_FALSE(repaired.torn_tail);
  EXPECT_FALSE(repaired.corrupt);

  // A flipped byte in the FIRST frame (data follows it) is corruption.
  FlipByteAt(path, 26);
  durable::JournalScan corrupt = durable::ScanJournal(path);
  EXPECT_TRUE(corrupt.corrupt);
  EXPECT_FALSE(corrupt.diagnostic.empty());
}

TEST(DurableJournalTest, ScanRejectsSequenceGaps) {
  const std::string dir = MakeDir("durable-jgap");
  const std::string path = dir + "/journal.bin";
  durable::Journal journal;
  ASSERT_TRUE(journal.Open(path, 0, 1));
  ASSERT_TRUE(journal.Append(1, "alpha"));
  ASSERT_TRUE(journal.Append(3, "charlie"));  // gap: seq 2 missing
  journal.Close();
  const durable::JournalScan scan = durable::ScanJournal(path);
  // The bad frame is the final one, so the gap is treated as a torn tail
  // unless data follows it; either way the valid prefix stops at seq 1.
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].seq, 1u);
}

TEST(DurableJournalTest, ChecksumCoversSeqAndPayload) {
  EXPECT_NE(durable::FrameChecksum(1, "alpha"),
            durable::FrameChecksum(2, "alpha"));
  EXPECT_NE(durable::FrameChecksum(1, "alpha"),
            durable::FrameChecksum(1, "alphb"));
  EXPECT_EQ(durable::FrameChecksum(7, "payload"),
            durable::FrameChecksum(7, "payload"));
}

/// Three records (one duplicated, one from a second unit) ending at id 42,
/// and one probe failure.
measure::StepOutput SampleStep() {
  measure::StepOutput step;
  step.step_end = core::SimTime::FromHours(3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    measure::PendingRecord pending;
    measure::SpeedTestRecord& record = pending.record;
    record.id = core::MeasurementId(40 + i);
    record.time = core::SimTime(static_cast<std::int64_t>(170 + i));
    record.asn = core::Asn(3741);
    record.city = i == 1 ? "Cape Town" : "East London";
    record.vantage_pop = static_cast<netsim::PopIndex>(5 + i);
    record.server_pop = 1;
    record.rtt_ms = 20.5 + static_cast<double>(i);
    record.loss_rate = 0.01;
    record.throughput_mbps = 80.0;
    record.intent = i == 2 ? measure::Intent::kEventTriggered
                           : measure::Intent::kBaseline;
    record.attempts = static_cast<std::uint32_t>(1 + i);
    pending.duplicate = i == 1;
    pending.fault_mask = i == 1 ? obs::kLineageFaultDuplicated : 0;
    step.records.push_back(pending);
  }
  step.failures.push_back({core::SimTime(175), 9,
                           measure::Intent::kUserInitiated,
                           measure::ProbeFault::kProbeLoss, 3});
  return step;
}

std::string DecodeError(std::string_view payload) {
  const auto decoded = durable::DecodeStep(payload);
  return decoded.ok() ? "accepted" : decoded.error().message();
}

TEST(DurableJournalTest, DecodeStepInvertsEncodeStep) {
  const std::string payload = durable::EncodeStep(SampleStep(), 43);
  const auto decoded = durable::DecodeStep(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(decoded.value().next_record_id_after, 43u);
  EXPECT_EQ(decoded.value().step.records.size(), 3u);
  EXPECT_EQ(decoded.value().step.records[1].record.city, "Cape Town");
  EXPECT_TRUE(decoded.value().step.records[1].duplicate);
  EXPECT_EQ(decoded.value().step.failures.size(), 1u);
  EXPECT_EQ(durable::EncodeStep(decoded.value().step, 43), payload);

  const measure::StepOutput empty;
  EXPECT_TRUE(durable::DecodeStep(durable::EncodeStep(empty, 1)).ok());
}

TEST(DurableJournalTest, DecodeStepRejectsForgedFrames) {
  const std::string payload = durable::EncodeStep(SampleStep(), 43);
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_NE(DecodeError(payload.substr(0, size)), "accepted") << size;
  }
  EXPECT_EQ(DecodeError(payload + "x"), "trailing bytes");

  std::string counted = payload;
  counted[16 + 5] = 1;  // record count + 2^40
  EXPECT_EQ(DecodeError(counted), "record count beyond the payload");

  measure::StepOutput step = SampleStep();
  step.records[2].record.intent = static_cast<measure::Intent>(3);
  EXPECT_EQ(DecodeError(durable::EncodeStep(step, 43)), "intent out of range");

  step = SampleStep();
  step.records[0].fault_mask = 0x10;
  EXPECT_EQ(DecodeError(durable::EncodeStep(step, 43)),
            "fault mask out of range");

  step = SampleStep();
  step.failures[0].reason = static_cast<measure::ProbeFault>(5);
  EXPECT_EQ(DecodeError(durable::EncodeStep(step, 43)),
            "failure intent or reason out of range");

  step = SampleStep();
  step.records[1].record.id = core::MeasurementId(45);
  EXPECT_EQ(DecodeError(durable::EncodeStep(step, 43)),
            "non-consecutive record ids");
  EXPECT_EQ(DecodeError(durable::EncodeStep(SampleStep(), 3)),
            "record-id watermark below the record count");
}

// ---------------------------------------------------------------------------
// Snapshot file unit properties.

TEST(DurableSnapshotTest, RoundTripAndCorruptionDetection) {
  const std::string dir = MakeDir("durable-snapunit");
  const std::string path = durable::SnapshotPath(dir, 42);

  ASSERT_TRUE(durable::WriteSnapshotFile(path, "snapshot payload"));
  durable::SnapshotRead read = durable::ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok) << read.diagnostic;
  EXPECT_EQ(read.payload, "snapshot payload");

  const auto listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].seq, 42u);

  FlipByteAt(path, 18);
  durable::SnapshotRead bad = durable::ReadSnapshotFile(path);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.diagnostic.empty());
}

// A seq above 2^64 - 1 must not wrap into a small one (which could make a
// stray file look like the newest snapshot, or the oldest to prune).
TEST(DurableSnapshotTest, ListSkipsSeqsBeyond64Bits) {
  const std::string dir = MakeDir("durable-snapwide");
  ASSERT_TRUE(durable::WriteSnapshotFile(durable::SnapshotPath(dir, 7), "p"));
  // 2^64 + 1 in 21 digits: a wrapping parse would read it as seq 1.
  std::ofstream(fs::path(dir) / "snap-000018446744073709551617.bin") << "x";
  std::ofstream(fs::path(dir) / "snap-18446744073709551617.bin") << "x";
  const auto listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].seq, 7u);

  std::uint64_t value = 0;
  EXPECT_TRUE(durable::ParseDecimalU64("18446744073709551615", &value));
  EXPECT_EQ(value, 18446744073709551615ull);
  EXPECT_FALSE(durable::ParseDecimalU64("18446744073709551616", &value));
  EXPECT_FALSE(durable::ParseDecimalU64("", &value));
  EXPECT_FALSE(durable::ParseDecimalU64("+1", &value));
  EXPECT_FALSE(durable::ParseDecimalU64("-1", &value));
  EXPECT_FALSE(durable::ParseDecimalU64("1 ", &value));
  EXPECT_EQ(value, 18446744073709551615ull);  // untouched by a failure
}

TEST(DurableSnapshotTest, PruneKeepsNewest) {
  const std::string dir = MakeDir("durable-snapprune");
  for (std::uint64_t seq : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{3}, std::uint64_t{4}}) {
    ASSERT_TRUE(
        durable::WriteSnapshotFile(durable::SnapshotPath(dir, seq), "p"));
  }
  durable::PruneSnapshots(dir, 2);
  const auto listed = durable::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].seq, 3u);
  EXPECT_EQ(listed[1].seq, 4u);
}

// ---------------------------------------------------------------------------
// Chaos spec grammar.

TEST(ChaosSpecTest, ParsesFullSpec) {
  const auto parsed = durable::ParseChaosSpec(
      "kill-after=7,mid-write,corrupt=snapshot,seed=3");
  ASSERT_TRUE(parsed.ok());
  const durable::ChaosOptions& chaos = parsed.value();
  EXPECT_TRUE(chaos.enabled);
  EXPECT_EQ(chaos.kill_after_steps, 7u);
  EXPECT_TRUE(chaos.mid_write);
  EXPECT_EQ(chaos.corrupt, durable::ChaosOptions::CorruptTarget::kSnapshot);
  EXPECT_EQ(chaos.seed, 3u);
}

TEST(ChaosSpecTest, ParsesJournalTargetAndSeedOnly) {
  const auto journal = durable::ParseChaosSpec("kill-after=2,corrupt=journal");
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal.value().corrupt,
            durable::ChaosOptions::CorruptTarget::kJournal);

  // kill-after omitted: derived from the seed at run time.
  const auto seeded = durable::ParseChaosSpec("seed=11");
  ASSERT_TRUE(seeded.ok());
  EXPECT_TRUE(seeded.value().enabled);
  EXPECT_EQ(seeded.value().kill_after_steps, 0u);
  EXPECT_EQ(seeded.value().seed, 11u);
}

TEST(ChaosSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(durable::ParseChaosSpec("kill-after=x").ok());
  EXPECT_FALSE(durable::ParseChaosSpec("corrupt=panel").ok());
  EXPECT_FALSE(durable::ParseChaosSpec("bogus-knob=1").ok());
  // 2^64 + 1 would wrap to 1 and kill after the first step.
  EXPECT_FALSE(
      durable::ParseChaosSpec("kill-after=18446744073709551617").ok());
  EXPECT_FALSE(durable::ParseChaosSpec("seed=18446744073709551617").ok());
  const auto widest = durable::ParseChaosSpec("kill-after=18446744073709551615");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().kill_after_steps, 18446744073709551615ull);
}

}  // namespace
}  // namespace sisyphus
