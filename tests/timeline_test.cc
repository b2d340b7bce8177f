// Tests for the deterministic telemetry timeline (src/obs/timeline,
// DESIGN.md §15): detector semantics against hand-computed recurrences,
// dense-fill and in-order commit invariants, snapshot Save/Load continuation,
// artifact framing rejection of truncation/corruption (the audit.bin
// contract), and the two byte-identity properties the artifact exists
// for — 1-vs-8-thread identity of a full streaming campaign's
// timeline.bin, and kill-at-every-step/resume identity under the durable
// service.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/binio.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "durable/service.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;

using obs::ChurnConfig;
using obs::DetectionEvent;
using obs::DetectorKind;
using obs::LevelShiftConfig;
using obs::Timeline;
using obs::TimelineReader;

// Under SISYPHUS_OBS=OFF the timeline is compiled out: Enable() is a no-op,
// nothing is sampled and every artifact is empty. Tests whose assertions
// read sampled content or artifact bytes skip there.
class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    timeline_was_enabled_ = Timeline::enabled();
    Timeline::Enable(true);
    Timeline::Global().Reset();
  }
  void TearDown() override {
    Timeline::Global().Reset();
    Timeline::Enable(timeline_was_enabled_);
  }

 private:
  bool timeline_was_enabled_ = false;
};

/// Commits one step carrying one gauge sample.
void GaugeStep(Timeline& timeline, std::uint64_t step, std::uint32_t id,
               double value) {
  timeline.SampleGauge(step, id, value);
  timeline.CommitStep(step);
}

void CounterStep(Timeline& timeline, std::uint64_t step, std::uint32_t id,
                 std::uint64_t value) {
  timeline.SampleCounter(step, id, value);
  timeline.CommitStep(step);
}

// ---------------------------------------------------------------------------
// Detector semantics (worked recurrences from DESIGN.md §15).

// With {alpha=0.05, drift=0.5, threshold=8, min_samples=4}, a level at
// 10.0 for 20 steps then 16.0:
//   step 21: S+ = max(0, 0 + 6.0 - 0.5) = 5.5 (no fire), mu -> 10.3
//   step 22: S+ = 5.5 + (16 - 10.3) - 0.5 = 10.7 > 8 -> fire, +5.7
// and nothing afterwards (the detector re-centers on 16).
TEST_F(TimelineTest, CusumFiresAtTheHandComputedStep) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  LevelShiftConfig config;
  config.ewma_alpha = 0.05;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t id = timeline.DeclareGauge("test.level", &config);

  for (std::uint64_t step = 1; step <= 20; ++step) {
    GaugeStep(timeline, step, id, 10.0);
  }
  ASSERT_TRUE(timeline.Events().empty());
  for (std::uint64_t step = 21; step <= 28; ++step) {
    GaugeStep(timeline, step, id, 16.0);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 22u);
  EXPECT_EQ(events[0].series, id);
  EXPECT_EQ(events[0].direction, 1);
  EXPECT_NEAR(events[0].magnitude, 5.7, 1e-9);
  EXPECT_EQ(events[0].fingerprint, config.Fingerprint());
}

TEST_F(TimelineTest, CusumFiresDownwardOnADrop) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  LevelShiftConfig config;
  config.ewma_alpha = 0.05;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t id = timeline.DeclareGauge("test.level", &config);

  for (std::uint64_t step = 1; step <= 20; ++step) {
    GaugeStep(timeline, step, id, 10.0);
  }
  for (std::uint64_t step = 21; step <= 28; ++step) {
    GaugeStep(timeline, step, id, 4.0);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 22u);
  EXPECT_EQ(events[0].direction, -1);
}

// A quiet plan fires nothing: constant level, and jitter inside the
// per-sample drift slack, never accumulate.
TEST_F(TimelineTest, QuietSeriesFiresNothing) {
  Timeline timeline;
  LevelShiftConfig config;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t flat = timeline.DeclareGauge("test.flat", &config);
  const std::uint32_t jitter = timeline.DeclareGauge("test.jitter", &config);

  for (std::uint64_t step = 1; step <= 100; ++step) {
    timeline.SampleGauge(step, flat, 10.0);
    timeline.SampleGauge(step, jitter, step % 2 == 0 ? 10.2 : 9.8);
    timeline.CommitStep(step);
  }
  EXPECT_TRUE(timeline.Events().empty());
}

TEST_F(TimelineTest, ChurnFiresOnCounterDeltas) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  ChurnConfig config;
  config.min_delta = 5;
  const std::uint32_t id = timeline.DeclareCounter("test.churn", &config);

  // Per-step deltas: 0, 2, 5 (fire), 0, 5 (fire), 1.
  const std::uint64_t values[] = {0, 2, 7, 7, 12, 13};
  for (std::uint64_t step = 1; step <= 6; ++step) {
    CounterStep(timeline, step, id, values[step - 1]);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].step, 3u);
  EXPECT_EQ(events[0].direction, 1);
  EXPECT_DOUBLE_EQ(events[0].magnitude, 5.0);
  EXPECT_EQ(events[0].fingerprint, config.Fingerprint());
  EXPECT_EQ(events[1].step, 5u);
  EXPECT_DOUBLE_EQ(events[1].magnitude, 5.0);
}

// Running-mean series store the running mean but feed the detector the
// per-step *increment* mean, so a level shift in fresh observations fires
// immediately instead of being diluted by the accumulated history.
TEST_F(TimelineTest, RunningMeanDetectorSeesIncrementMean) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  LevelShiftConfig config;
  config.ewma_alpha = 0.05;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;
  const std::uint32_t id = timeline.DeclareRunningMean("test.mean", &config);

  // One new observation per step: 10.0 for 20 steps, then 16.0 — the same
  // increment sequence as the gauge test, so the same firing step.
  std::uint64_t count = 0;
  double sum = 0.0;
  for (std::uint64_t step = 1; step <= 28; ++step) {
    ++count;
    sum += step <= 20 ? 10.0 : 16.0;
    timeline.SampleRunningMean(step, id, count, sum);
    timeline.CommitStep(step);
  }

  const std::vector<DetectionEvent> events = timeline.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, 22u);
  EXPECT_EQ(events[0].direction, 1);

  // The stored samples are the running means, not the increments.
  TimelineReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(timeline.BuildArtifact(), &error)) << error;
  std::vector<double> values;
  ASSERT_TRUE(reader.SeriesValues(id, &values, &error)) << error;
  ASSERT_EQ(values.size(), 28u);
  EXPECT_DOUBLE_EQ(values[0], 10.0);
  EXPECT_DOUBLE_EQ(values[20], (20 * 10.0 + 16.0) / 21.0);
}

// ---------------------------------------------------------------------------
// Sampling invariants.

// A declared series not sampled at a committed step repeats its previous
// value (counters: zero delta), and a series first sampled mid-run is
// dense from its first step onward.
TEST_F(TimelineTest, DenseFillRepeatsLastValue) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  const std::uint32_t counter = timeline.DeclareCounter("test.counter");
  const std::uint32_t gauge = timeline.DeclareGauge("test.gauge");
  const std::uint32_t late = timeline.DeclareGauge("test.late");

  for (std::uint64_t step = 1; step <= 6; ++step) {
    if (step % 2 == 1) {
      timeline.SampleCounter(step, counter, step * 10);
      timeline.SampleGauge(step, gauge, static_cast<double>(step));
    }
    if (step >= 4) timeline.SampleGauge(step, late, 99.0);
    timeline.CommitStep(step);
  }

  TimelineReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(timeline.BuildArtifact(), &error)) << error;
  EXPECT_EQ(reader.steps(), 6u);

  std::vector<double> values;
  ASSERT_TRUE(reader.SeriesValues(counter, &values, &error)) << error;
  EXPECT_EQ(values, (std::vector<double>{10, 10, 30, 30, 50, 50}));
  ASSERT_TRUE(reader.SeriesValues(gauge, &values, &error)) << error;
  EXPECT_EQ(values, (std::vector<double>{1, 1, 3, 3, 5, 5}));

  const obs::TimelineSeriesView* late_view = reader.FindSeries("test.late");
  ASSERT_NE(late_view, nullptr);
  EXPECT_EQ(late_view->first_step, 4u);
  EXPECT_EQ(late_view->sample_count, 3u);

  // ValuesAt skips the late series before its first step.
  std::vector<std::pair<std::uint32_t, double>> at;
  ASSERT_TRUE(reader.ValuesAt(2, &at, &error)) << error;
  EXPECT_EQ(at.size(), 2u);
  ASSERT_TRUE(reader.ValuesAt(5, &at, &error)) << error;
  EXPECT_EQ(at.size(), 3u);
}

// One step is in flight at a time and steps commit in order: a sample for
// the next step before CommitStep, or a skipped step, is a caller bug.
TEST_F(TimelineTest, StepsCommitOneAtATimeInOrder) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  const std::uint32_t id = timeline.DeclareCounter("test.counter");
  timeline.SampleCounter(1, id, 1);
  EXPECT_THROW(timeline.SampleCounter(2, id, 2), std::logic_error);
  timeline.CommitStep(1);
  EXPECT_THROW(timeline.CommitStep(3), std::logic_error);
  CounterStep(timeline, 2, id, 2);
  EXPECT_EQ(timeline.GetSummary().steps, 2u);
  // Every step is sampled where it commits; nothing samples elsewhere.
  EXPECT_THROW(measure::EmitStepTelemetry(3, 0, 0, 0, nullptr,
                                          /*ingest_sampled_elsewhere=*/true),
               std::logic_error);
}

// A second campaign in the same process restarts its step counter at 1;
// the timeline must offset it into a new epoch and stay monotone.
TEST_F(TimelineTest, SecondCampaignGetsANewEpoch) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  Timeline timeline;
  const std::uint32_t id = timeline.DeclareCounter("test.counter");
  for (std::uint64_t step = 1; step <= 5; ++step) {
    CounterStep(timeline, step, id, step);
  }
  for (std::uint64_t step = 1; step <= 5; ++step) {
    CounterStep(timeline, step, id, 100 + step);
  }
  const Timeline::Summary summary = timeline.GetSummary();
  EXPECT_EQ(summary.steps, 10u);
  EXPECT_EQ(summary.first_step, 1u);
  EXPECT_EQ(summary.last_step, 10u);

  TimelineReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(timeline.BuildArtifact(), &error)) << error;
  std::vector<double> values;
  ASSERT_TRUE(reader.SeriesValues(id, &values, &error)) << error;
  ASSERT_EQ(values.size(), 10u);
  EXPECT_DOUBLE_EQ(values[4], 5.0);
  EXPECT_DOUBLE_EQ(values[5], 101.0);
}

// ---------------------------------------------------------------------------
// Snapshot capture/restore.

// Save mid-run, Load into a fresh timeline, continue both with the same
// samples: byte-identical artifacts, and detector state must survive the
// round trip (the CUSUM fires post-restore exactly as it would have).
TEST_F(TimelineTest, SaveLoadContinuesByteIdentical) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  LevelShiftConfig config;
  config.drift = 0.5;
  config.threshold = 8.0;
  config.min_samples = 4;

  Timeline original;
  const std::uint32_t id = original.DeclareGauge("test.level", &config);
  for (std::uint64_t step = 1; step <= 20; ++step) {
    GaugeStep(original, step, id, 10.0);
  }

  core::binio::Writer writer;
  original.Save(writer);
  const std::string snapshot = std::move(writer).Take();

  Timeline restored;
  core::binio::Reader reader(snapshot);
  ASSERT_TRUE(restored.Load(reader));
  ASSERT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(restored.GetSummary().last_step, 20u);

  for (std::uint64_t step = 21; step <= 28; ++step) {
    GaugeStep(original, step, id, 16.0);
    GaugeStep(restored, step, id, 16.0);
  }
  EXPECT_EQ(restored.BuildArtifact(), original.BuildArtifact());
  ASSERT_EQ(restored.Events().size(), 1u);
  EXPECT_EQ(restored.Events()[0].step, 22u);
}

TEST_F(TimelineTest, LoadRejectsGarbage) {
  Timeline timeline;
  const std::string garbage = "definitely not a timeline snapshot";
  core::binio::Reader reader(garbage);
  EXPECT_FALSE(timeline.Load(reader));
}

// ---------------------------------------------------------------------------
// Artifact framing (the audit.bin contract: loud rejection, never a
// partial answer).

std::string SmallArtifact() {
  Timeline timeline;
  ChurnConfig churn;
  LevelShiftConfig shift;
  shift.min_samples = 2;
  shift.threshold = 4.0;
  const std::uint32_t counter = timeline.DeclareCounter("test.churn", &churn);
  const std::uint32_t gauge = timeline.DeclareGauge("test.level", &shift);
  for (std::uint64_t step = 1; step <= 16; ++step) {
    timeline.SampleCounter(step, counter, step * step);
    timeline.SampleGauge(step, gauge, step < 8 ? 1.0 : 50.0);
    timeline.CommitStep(step);
  }
  EXPECT_FALSE(timeline.Events().empty());
  return timeline.BuildArtifact();
}

TEST_F(TimelineTest, ArtifactRejectsEveryTruncationAndGrowth) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  const std::string artifact = SmallArtifact();
  ASSERT_GT(artifact.size(), core::sectioned::kHeaderSize);

  // The header records the exact file size and the section table must
  // close the file, so EVERY proper prefix is rejected.
  for (std::size_t size = 0; size < artifact.size(); ++size) {
    TimelineReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(artifact.substr(0, size), &error))
        << "prefix of " << size << " bytes parsed";
  }
  TimelineReader reader;
  std::string error;
  EXPECT_FALSE(reader.Parse(artifact + "x", &error));
  ASSERT_TRUE(reader.Parse(artifact, &error)) << error;
}

TEST_F(TimelineTest, ArtifactRejectsCorruption) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  const std::string artifact = SmallArtifact();
  // A flip in the header, in a section payload, and in the section table
  // each trip a distinct checksum.
  for (const std::size_t offset :
       {std::size_t{9}, artifact.size() / 2, artifact.size() - 10}) {
    std::string bad = artifact;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x5a);
    TimelineReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(std::move(bad), &error))
        << "flip at offset " << offset << " parsed";
  }
}

// ---------------------------------------------------------------------------
// Byte-identity of a real campaign's timeline, across thread counts and
// across kill/resume. Harnesses mirror stream_parity_test and
// durable_stream_test (small two-day scenario: 48 one-hour steps).

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

/// Builds the scenario/platform/campaign exactly as the durable resume
/// contract requires and runs it; returns the global timeline's artifact.
struct CampaignSpec {
  bool streaming = true;
  std::size_t threads = 1;
  // When `dir` is set the campaign runs under the durable service.
  std::string dir;
  bool resume = false;
  std::uint64_t stop_after = 0;
};

struct CampaignResult {
  bool completed = false;
  std::string artifact;  ///< filled only when the campaign completed
};

CampaignResult RunTimelineCampaign(const CampaignSpec& spec) {
  core::ThreadPool::SetGlobalThreadCount(spec.threads);
  obs::Registry::Global().ResetAll();
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("timeline");
  Timeline::Global().Reset();

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

  core::Rng rng(scenario_options.seed);
  CampaignResult result;
  if (!spec.streaming) {
    platform.Run(scenario_options.horizon, rng);
    result.completed = true;
  } else if (spec.dir.empty()) {
    measure::StreamingOptions streaming_options;
    streaming_options.panel = panel_options;
    measure::StreamingCampaign stream(platform_options.validation,
                                      streaming_options);
    platform.RunStreaming(scenario_options.horizon, rng, stream);
    result.completed = true;
  } else {
    measure::StreamingOptions streaming_options;
    streaming_options.panel = panel_options;
    measure::StreamingCampaign stream(platform_options.validation,
                                      streaming_options);
    durable::DurableOptions durable_options;
    durable_options.dir = spec.dir;
    durable_options.snapshot_every = 5;
    durable_options.fsync_every = 3;
    durable_options.stop_after_steps = spec.stop_after;
    durable::DurableStreamingService service(platform, stream,
                                             durable_options);
    const core::Result<durable::RunStats> run =
        spec.resume ? service.Resume(scenario_options.horizon, rng)
                    : service.Run(scenario_options.horizon, rng);
    EXPECT_TRUE(run.ok()) << run.error().message();
    result.completed =
        run.ok() && run.value().outcome == durable::RunOutcome::kCompleted;
  }
  if (result.completed) result.artifact = Timeline::Global().BuildArtifact();
  return result;
}

std::string MakeDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class TimelineCampaignTest : public TimelineTest {
 protected:
  void SetUp() override {
    TimelineTest::SetUp();
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
    TimelineTest::TearDown();
  }

 private:
  bool metrics_were_enabled_ = false;
  bool lineage_was_enabled_ = false;
};

TEST_F(TimelineCampaignTest, StreamingTimelineByteIdenticalAt1And8Threads) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  CampaignSpec one;
  one.threads = 1;
  const CampaignResult first = RunTimelineCampaign(one);
  ASSERT_TRUE(first.completed);
  ASSERT_FALSE(first.artifact.empty());

  CampaignSpec eight;
  eight.threads = 8;
  const CampaignResult second = RunTimelineCampaign(eight);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(first.artifact, second.artifact);

  // The scenario's treatment-time route flap is the only route change, so
  // the churn detector must pinpoint it: one churn event, in the step
  // ending at the treatment time (day 1 -> step 24 at one-hour steps).
  TimelineReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(first.artifact, &error)) << error;
  EXPECT_EQ(reader.steps(), kTotalSteps);
  std::vector<DetectionEvent> churn_events;
  for (const DetectionEvent& event : reader.events()) {
    if (reader.series()[event.series].detector == DetectorKind::kChurn) {
      churn_events.push_back(event);
    }
  }
  ASSERT_EQ(churn_events.size(), 1u);
  EXPECT_EQ(churn_events[0].step, 24u);
  EXPECT_EQ(
      reader.series()[churn_events[0].series].name,
      "netsim.bgp.invalidated_destinations");
}

// The batch path samples the same counters at the same cadence (it just
// has no panel builder, so no rtt.mean.* series) and must be thread-count
// invariant too.
TEST_F(TimelineCampaignTest, BatchTimelineByteIdenticalAt1And8Threads) {
  if (!Timeline::enabled()) GTEST_SKIP() << "timeline compiled out";
  CampaignSpec one;
  one.streaming = false;
  one.threads = 1;
  const CampaignResult first = RunTimelineCampaign(one);
  ASSERT_TRUE(first.completed);

  CampaignSpec eight;
  eight.streaming = false;
  eight.threads = 8;
  const CampaignResult second = RunTimelineCampaign(eight);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(first.artifact, second.artifact);

  TimelineReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(first.artifact, &error)) << error;
  EXPECT_EQ(reader.FindSeries("rtt.mean.test"), nullptr);
  EXPECT_NE(reader.FindSeries("netsim.bgp.invalidated_destinations"),
            nullptr);
}

// Kill after EVERY step (a crash whose journal survived), resume at the
// other thread count, and the finished timeline.bin must match an
// uninterrupted run byte for byte — the timeline state rides in the
// durable snapshot and fast-forwards over skipped steps.
TEST_F(TimelineCampaignTest, KillAtEveryStepResumesByteIdentical) {
  CampaignSpec reference_spec;
  reference_spec.dir = MakeDir("timeline-reference");
  const CampaignResult reference = RunTimelineCampaign(reference_spec);
  ASSERT_TRUE(reference.completed);
  ASSERT_FALSE(reference.artifact.empty());

  // The plain streaming run and the durable run must agree first.
  CampaignSpec plain;
  const CampaignResult streamed = RunTimelineCampaign(plain);
  ASSERT_TRUE(streamed.completed);
  ASSERT_EQ(streamed.artifact, reference.artifact);

  for (std::uint64_t k = 1; k < kTotalSteps; ++k) {
    const std::string dir = MakeDir("timeline-crash");
    CampaignSpec crash;
    crash.dir = dir;
    crash.threads = 1;
    crash.stop_after = k;
    const CampaignResult stopped = RunTimelineCampaign(crash);
    ASSERT_FALSE(stopped.completed) << "step " << k;

    CampaignSpec resume;
    resume.dir = dir;
    resume.resume = true;
    resume.threads = 8;
    const CampaignResult resumed = RunTimelineCampaign(resume);
    ASSERT_TRUE(resumed.completed) << "resume after step " << k;
    ASSERT_EQ(resumed.artifact, reference.artifact)
        << "timeline diverged after a kill at step " << k;
  }
}

}  // namespace
}  // namespace sisyphus
