// Tests for the indexed audit store (src/audit): the binary artifact
// must answer every query with exactly the numbers the lineage JSON
// holds (round-trip through a real multi-campaign fault run), reject
// truncation and corruption loudly, and stay byte-identical across
// thread counts and across a durable stop/resume — the same contract
// lineage.json itself carries (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "audit/format.h"
#include "audit/reader.h"
#include "audit/writer.h"
#include "causal/robust_synthetic_control.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "durable/service.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;
using core::json::Value;
using obs::Lineage;

/// RAII lineage enable/reset, as in lineage_test.
struct ScopedLineage {
  ScopedLineage() {
    Lineage::Enable(true);
    Lineage::Global().Reset();
  }
  ~ScopedLineage() { Lineage::Enable(false); }
};

/// One small ZA campaign under `plan`, panel + one robust fit — the full
/// emit -> panel -> estimate lineage path (mirrors lineage_test).
void RunCampaign(const measure::FaultPlan& plan) {
  netsim::ScenarioZaOptions options;
  options.donor_units = 6;
  options.treatment_time = core::SimTime::FromDays(3);
  options.horizon = core::SimTime::FromDays(6);
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 3.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (auto donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
  core::Rng rng(29);
  platform.Run(options.horizon, rng);

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = 4 * 6;
  panel_options.max_missing_fraction = 0.9;
  const auto panel = measure::BuildRttPanel(platform.store(), panel_options);
  auto input = measure::MakeSyntheticControlInput(
      panel, scenario.treated[0].name, scenario.donor_names,
      options.treatment_time);
  if (input.ok()) {
    auto fit = causal::FitRobustSyntheticControl(input.value());
    // Register the estimate the way the shipped benches do, so the
    // artifact carries a real estimate entry with composition pools.
    if (fit.ok()) {
      Lineage::Global().AddEstimate(
          "audit.robust.unit0", scenario.treated[0].name,
          scenario.donor_names, fit.value().base.average_effect,
          std::numeric_limits<double>::quiet_NaN());
    }
  }
}

/// Two campaigns with different fault plans under one ledger: a
/// multi-run artifact with faults, drops, duplicates, and estimates.
void RunTwoCampaigns() {
  measure::FaultPlan plan_a;
  plan_a.seed = 23;
  plan_a.probe_loss_probability = 0.1;
  plan_a.duplicate_probability = 0.1;
  plan_a.corruption_probability = 0.05;
  plan_a.max_clock_skew = core::SimTime(3);
  measure::FaultPlan plan_b;
  plan_b.seed = 31;
  plan_b.probe_loss_probability = 0.2;
  plan_b.traceroute_truncation_probability = 0.2;
  plan_b.truncation_min_hops = 2;
  Lineage::Global().BeginRun("campaign-a");
  RunCampaign(plan_a);
  Lineage::Global().BeginRun("campaign-b");
  RunCampaign(plan_b);
}

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t U64(const Value& parent, const std::string& key) {
  const Value* v = parent.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v != nullptr ? static_cast<std::uint64_t>(v->number) : 0;
}

TEST(AuditStoreTest, RoundTripMatchesJsonLedger) {
  ScopedLineage scoped;
  if (!Lineage::enabled()) GTEST_SKIP() << "lineage compiled out";
  RunTwoCampaigns();

  const std::string artifact = audit::BuildAuditArtifact(Lineage::Global());
  const std::string path = TempPath("audit-roundtrip.bin");
  WriteFile(path, artifact);

  auto parsed = core::json::Parse(Lineage::Global().ToJson());
  ASSERT_TRUE(parsed.ok());
  const Value& json = parsed.value();
  const Value* runs = json.Find("runs");
  ASSERT_NE(runs, nullptr);

  audit::AuditReader reader;
  const auto open = reader.Open(path);
  ASSERT_TRUE(open.ok()) << open.error().message();
  ASSERT_EQ(reader.run_count(), runs->array.size());
  ASSERT_EQ(reader.run_count(), 2u);
  EXPECT_TRUE(reader.VerifyAll().ok());

  for (std::size_t i = 0; i < reader.run_count(); ++i) {
    const Value& json_run = runs->array[i];
    const audit::RunSummary& run = reader.run(i);
    EXPECT_EQ(run.label, json_run.Find("label")->string);

    // Waterfall rollup.
    const Value* w = json_run.Find("waterfall");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(run.waterfall.probes_attempted, U64(*w, "probes_attempted"));
    EXPECT_EQ(run.waterfall.probes_failed, U64(*w, "probes_failed"));
    EXPECT_EQ(run.waterfall.emitted, U64(*w, "emitted"));
    EXPECT_EQ(run.waterfall.delivered, U64(*w, "delivered"));
    EXPECT_EQ(run.waterfall.quarantined_copies, U64(*w, "quarantined_copies"));
    EXPECT_EQ(run.waterfall.archived_copies, U64(*w, "archived_copies"));
    EXPECT_GT(run.waterfall.emitted, 0u);

    // Columnar records: every column must equal the JSON dump.
    const Value* json_records = json_run.Find("records");
    ASSERT_NE(json_records, nullptr);
    const auto columns = reader.Records(i);
    ASSERT_TRUE(columns.ok());
    ASSERT_EQ(columns.value().count, U64(*json_records, "count"));
    const Value* stage_col = json_records->Find("stage");
    const Value* vantage_col = json_records->Find("vantage");
    const Value* copies_col = json_records->Find("copies");
    ASSERT_NE(stage_col, nullptr);
    std::vector<std::uint64_t> histogram(obs::kLineageStageCount, 0);
    for (std::uint64_t r = 0; r < columns.value().count; ++r) {
      EXPECT_EQ(columns.value().stage[r],
                static_cast<std::uint8_t>(stage_col->array[r].number));
      EXPECT_EQ(columns.value().vantage[r],
                static_cast<std::uint32_t>(vantage_col->array[r].number));
      EXPECT_EQ(columns.value().copies[r],
                static_cast<std::uint8_t>(copies_col->array[r].number));
      ++histogram[columns.value().stage[r]];
    }

    // Terminal posting lists: count per stage == per-record histogram,
    // and the decoded id set really holds ids with that resolved stage.
    for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
      const auto slice =
          reader.Terminal(i, static_cast<obs::LineageStage>(s));
      ASSERT_TRUE(slice.ok());
      EXPECT_EQ(slice.value().count, histogram[s]) << "stage " << s;
      const auto ids =
          obs::IdRunSet::FromEncoded(slice.value().id_runs).Expand();
      ASSERT_EQ(ids.size(), histogram[s]);
      for (std::uint64_t id : ids) {
        EXPECT_EQ(columns.value().stage[id - 1], s);
      }
    }

    // Every panel unit answers identically to the JSON ledger.
    const Value* units = json_run.Find("panel_units");
    ASSERT_NE(units, nullptr);
    EXPECT_FALSE(units->object.empty());
    for (const auto& [name, json_unit] : units->object) {
      const auto unit = reader.FindUnit(i, name);
      ASSERT_TRUE(unit.ok());
      ASSERT_TRUE(unit.value().found) << name;
      EXPECT_EQ(unit.value().dropped, json_unit.Find("dropped")->boolean);
      EXPECT_DOUBLE_EQ(unit.value().missing_fraction,
                       json_unit.Find("missing_fraction")->number);
      EXPECT_EQ(unit.value().observed_cells, U64(json_unit, "observed_cells"));
      EXPECT_EQ(unit.value().masked_cells, U64(json_unit, "masked_cells"));
      const Value* cells = json_unit.Find("cells");
      ASSERT_NE(cells, nullptr);
      ASSERT_EQ(unit.value().cells.size(), cells->array.size());
      for (std::size_t c = 0; c < cells->array.size(); ++c) {
        EXPECT_EQ(unit.value().cells[c].period,
                  U64(cells->array[c], "period"));
        EXPECT_EQ(unit.value().cells[c].count, U64(cells->array[c], "count"));
        char digest[17];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(
                          unit.value().cells[c].digest));
        EXPECT_EQ(std::string(digest), cells->array[c].Find("digest")->string);
      }
    }
    const auto missing = reader.FindUnit(i, "no such unit");
    ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(missing.value().found);

    // Estimates: composition pools must match the precomputed JSON ones.
    const Value* estimates = json_run.Find("estimates");
    ASSERT_NE(estimates, nullptr);
    EXPECT_EQ(run.estimate_count, estimates->array.size());
    EXPECT_GT(run.estimate_count, 0u);
    for (const Value& json_estimate : estimates->array) {
      const std::string& label = json_estimate.Find("label")->string;
      const auto estimate = reader.FindEstimate(i, label);
      ASSERT_TRUE(estimate.ok());
      ASSERT_TRUE(estimate.value().found) << label;
      EXPECT_EQ(estimate.value().treated,
                json_estimate.Find("treated")->string);
      EXPECT_DOUBLE_EQ(estimate.value().effect,
                       json_estimate.Find("effect")->number);
      EXPECT_EQ(estimate.value().treated_comp.records,
                U64(json_estimate, "treated_records"));
      EXPECT_EQ(estimate.value().treated_comp.cells,
                U64(json_estimate, "treated_cells"));
      EXPECT_EQ(estimate.value().donor_comp.records,
                U64(json_estimate, "donor_records"));
      EXPECT_EQ(estimate.value().donor_comp.cells,
                U64(json_estimate, "donor_cells"));
      char digest[17];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(
                        estimate.value().treated_comp.digest));
      EXPECT_EQ(std::string(digest),
                json_estimate.Find("treated_digest")->string);
    }
    const auto absent = reader.FindEstimate(i, "no such estimate");
    ASSERT_TRUE(absent.ok());
    EXPECT_FALSE(absent.value().found);
  }
}

TEST(AuditStoreTest, RejectsTruncationAndGrowth) {
  ScopedLineage scoped;
  Lineage::Global().BeginRun("truncation");
  measure::FaultPlan plan;
  plan.seed = 7;
  plan.probe_loss_probability = 0.1;
  RunCampaign(plan);
  const std::string artifact = audit::BuildAuditArtifact(Lineage::Global());

  // Any size change must fail Open: the header records the exact file
  // size, so truncation and appended garbage are both caught before any
  // query runs.
  for (const std::size_t size :
       {artifact.size() - 1, artifact.size() / 2, std::size_t{40},
        std::size_t{0}}) {
    const std::string path = TempPath("audit-truncated.bin");
    WriteFile(path, artifact.substr(0, size));
    audit::AuditReader reader;
    EXPECT_FALSE(reader.Open(path).ok()) << "size " << size;
    EXPECT_FALSE(reader.is_open());
  }
  {
    const std::string path = TempPath("audit-grown.bin");
    WriteFile(path, artifact + "x");
    audit::AuditReader reader;
    EXPECT_FALSE(reader.Open(path).ok());
  }
  {
    audit::AuditReader reader;
    const auto status = reader.Open(TempPath("audit-never-written.bin"));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code(), core::ErrorCode::kNotFound);
  }
}

TEST(AuditStoreTest, RejectsCorruption) {
  ScopedLineage scoped;
  if (!Lineage::enabled()) GTEST_SKIP() << "lineage compiled out";
  Lineage::Global().BeginRun("corruption");
  measure::FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_probability = 0.1;
  RunCampaign(plan);
  const std::string artifact = audit::BuildAuditArtifact(Lineage::Global());

  // A flipped byte in the header fails Open outright.
  {
    std::string bad = artifact;
    bad[9] = static_cast<char>(bad[9] ^ 0x5a);
    const std::string path = TempPath("audit-bad-header.bin");
    WriteFile(path, bad);
    audit::AuditReader reader;
    EXPECT_FALSE(reader.Open(path).ok());
  }
  // A flipped byte inside a section payload passes the O(index) Open but
  // must be caught by the lazy per-section checksum (VerifyAll forces
  // every section, as obscheck and lineageq --check do).
  {
    std::string bad = artifact;
    const std::size_t mid = bad.size() / 2;
    bad[mid] = static_cast<char>(bad[mid] ^ 0x5a);
    const std::string path = TempPath("audit-bad-section.bin");
    WriteFile(path, bad);
    audit::AuditReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    EXPECT_FALSE(reader.VerifyAll().ok());
  }
}

TEST(AuditStoreTest, ByteIdenticalAt1And8Lanes) {
  measure::FaultPlan plan;
  plan.seed = 31;
  plan.probe_loss_probability = 0.1;
  plan.duplicate_probability = 0.1;
  plan.corruption_probability = 0.02;
  const auto run = [&](std::size_t lanes) {
    core::ThreadPool::SetGlobalThreadCount(lanes);
    ScopedLineage scoped;
    Lineage::Global().BeginRun("identity");
    RunCampaign(plan);
    std::string artifact = audit::BuildAuditArtifact(Lineage::Global());
    core::ThreadPool::SetGlobalThreadCount(0);
    return artifact;
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  // The audit artifact is a pure function of the final ledger, which the
  // capture/replay side-channel makes lane-count invariant — so the
  // whole indexed file, checksums and all, is byte-identical too.
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.size(), core::sectioned::kHeaderSize);
}

// ---------------------------------------------------------------------------
// Durable stop/resume identity (compact copy of the durable_stream_test
// harness): a run stopped mid-campaign and resumed at a different lane
// count must emit the exact bytes of the uninterrupted run's audit.bin.

struct DurableSpec {
  std::string dir;
  bool resume = false;
  std::size_t threads = 1;
  std::uint64_t stop_after = 0;
};

/// Runs the small durable campaign; returns the audit artifact bytes for
/// completed runs, empty for stopped ones.
std::string RunDurableAudit(const DurableSpec& spec) {
  core::ThreadPool::SetGlobalThreadCount(spec.threads);
  obs::Registry::Global().ResetAll();
  Lineage::Global().Reset();
  Lineage::Global().BeginRun("durable");

  netsim::ScenarioZaOptions scenario_options;
  scenario_options.donor_units = 6;
  scenario_options.treatment_time = core::SimTime::FromDays(1);
  scenario_options.horizon = core::SimTime::FromDays(2);
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
  measure::FaultPlan plan;
  plan.seed = 42;
  plan.probe_loss_probability = 0.15;
  plan.duplicate_probability = 0.02;
  plan.corruption_probability = 0.01;
  plan.max_clock_skew = core::SimTime(3);
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
  durable_options.snapshot_every = 5;
  durable_options.fsync_every = 3;
  durable_options.stop_after_steps = spec.stop_after;
  durable::DurableStreamingService service(platform, stream, durable_options);
  core::Rng rng(scenario_options.seed);
  const auto run = spec.resume
                       ? service.Resume(scenario_options.horizon, rng)
                       : service.Run(scenario_options.horizon, rng);
  EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().message());
  std::string artifact;
  if (run.ok() &&
      run.value().outcome == durable::RunOutcome::kCompleted) {
    artifact = audit::BuildAuditArtifact(Lineage::Global());
  }
  core::ThreadPool::SetGlobalThreadCount(0);
  return artifact;
}

TEST(AuditStoreTest, StopResumeEmitsIdenticalArtifact) {
  const bool metrics_were_enabled = obs::Registry::enabled();
  obs::Registry::Enable(true);
  Lineage::Enable(true);

  const auto make_dir = [](const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  };

  DurableSpec reference;
  reference.dir = make_dir("audit-durable-reference");
  const std::string clean = RunDurableAudit(reference);
  ASSERT_FALSE(clean.empty());

  DurableSpec crash;
  crash.dir = make_dir("audit-durable-crash");
  crash.stop_after = 20;
  ASSERT_TRUE(RunDurableAudit(crash).empty());  // stopped mid-campaign
  DurableSpec resume;
  resume.dir = crash.dir;
  resume.resume = true;
  resume.threads = 8;
  const std::string resumed = RunDurableAudit(resume);

  // The resumed ledger is restored from snapshot + verified journal
  // replay, so the audit index built from it matches the clean run's
  // bytes exactly — same sections, same checksums.
  EXPECT_EQ(clean, resumed);

  obs::Registry::Global().ResetAll();
  Lineage::Global().Reset();
  obs::Registry::Enable(metrics_were_enabled);
  Lineage::Enable(false);
}

}  // namespace
}  // namespace sisyphus
