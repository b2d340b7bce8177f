// Golden-bytes pins for the two sectioned artifacts (DESIGN.md §12, §15)
// and for the records a small campaign emits.
//
// A small hand-built lineage ledger and timeline — no simulator, no
// thread pool — are serialized and the FNV-1a digest of the whole byte
// image is compared against a pinned value. Any drift in the container
// framing (header, alignment, section table, checksums) or in a payload
// codec changes the digest, so an accidental format change fails here
// instead of surfacing as a parity mismatch against an old artifact.
//
// The campaign pins do the same for the measurement hot path: a small ZA
// campaign under a dirty fault plan is run through the streaming ingest
// and through the batch store, and the digests of the archived columns,
// the batch CSV (traceroutes and AS paths included), panel.csv and the
// lineage ledger are compared against values pinned before the per-step
// probe-path resolution and per-unit ingest keying existed. A change to
// how records are generated or ingested must leave every byte alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "artifact_samples.h"
#include "audit/writer.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "measure/export.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"

namespace sisyphus {
namespace {

// The pinned digests were computed from the artifacts as written before the
// framing moved into core/sectioned_file; both formats must stay
// byte-identical across that refactor and any later one.
TEST(ArtifactGoldenTest, AuditBinBytesArePinned) {
  if (!samples::kAvailable) GTEST_SKIP() << "lineage compiled out";
  const std::string bytes = samples::AuditArtifact();
  EXPECT_EQ(bytes.size(), 5752u);
  EXPECT_EQ(core::Fnv1a64(bytes), 10046968410043006769ull);
}

TEST(ArtifactGoldenTest, TimelineBinBytesArePinned) {
  if (!samples::kAvailable) GTEST_SKIP() << "timeline compiled out";
  const std::string bytes = samples::TimelineArtifact();
  EXPECT_EQ(bytes.size(), 1944u);
  EXPECT_EQ(core::Fnv1a64(bytes), 9242496787508703228ull);
}

struct CampaignDigests {
  std::uint64_t columns = 0;    ///< ShardedMeasurementStore::ToCsv
  std::uint64_t panel = 0;      ///< PanelToCsv of the finalized panel
  std::uint64_t lineage = 0;    ///< audit.bin of the run's ledger
  std::uint64_t batch_csv = 0;  ///< StoreToCsv of the batch path's archive
  std::uint64_t archived = 0;
  std::size_t failures = 0;
};

/// A 14-day ZA campaign (8 treated + 6 donor vantages, treatment at day 7)
/// with conditional activation and every record-level fault switched on,
/// so event bursts, retries, outages, truncation, duplicates and
/// quarantine all reach the pinned bytes.
CampaignDigests RunSmallCampaign(bool streaming, std::size_t threads) {
  core::ThreadPool::SetGlobalThreadCount(threads);
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun("golden-campaign");

  netsim::ScenarioZaOptions scenario_options;
  scenario_options.donor_units = 6;
  scenario_options.treatment_time = core::SimTime::FromDays(7);
  scenario_options.horizon = core::SimTime::FromDays(14);
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);

  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.conditional_activation = true;
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
  plan.seed = 7;
  plan.probe_loss_probability = 0.1;
  plan.mnar_loss_gain = 2.0;
  plan.traceroute_truncation_probability = 0.2;
  plan.duplicate_probability = 0.03;
  plan.corruption_probability = 0.02;
  plan.max_clock_skew = core::SimTime(3);
  plan.vantage_outages.push_back(
      {scenario.treated.front().access_pop,
       {{core::SimTime::FromDays(3), core::SimTime::FromDays(4)}}});
  plan.collector_outages.push_back(
      {core::SimTime::FromDays(10), core::SimTime::FromDays(10) +
                                        core::SimTime::FromHours(5)});
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  measure::PanelOptions panel_options;
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());

  core::Rng rng(scenario_options.seed);
  CampaignDigests out;
  if (streaming) {
    measure::StreamingOptions streaming_options;
    streaming_options.panel = panel_options;
    measure::StreamingCampaign stream(platform_options.validation,
                                      streaming_options);
    platform.RunStreaming(scenario_options.horizon, rng, stream);
    out.columns = core::Fnv1a64(stream.store().ToCsv());
    out.panel = core::Fnv1a64(measure::PanelToCsv(stream.FinalizePanel()));
    out.archived = stream.store().size();
  } else {
    platform.Run(scenario_options.horizon, rng);
    out.batch_csv = core::Fnv1a64(measure::StoreToCsv(platform.store()));
    out.panel = core::Fnv1a64(measure::PanelToCsv(
        measure::BuildRttPanel(platform.store(), panel_options)));
    out.archived = platform.store().size();
  }
  out.failures = platform.failures().size();
  if (obs::Lineage::enabled()) {
    out.lineage =
        core::Fnv1a64(audit::BuildAuditArtifact(obs::Lineage::Global()));
  }
  obs::Lineage::Global().Reset();
  return out;
}

class CampaignGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lineage_was_enabled_ = obs::Lineage::enabled();
    obs::Lineage::Enable(true);
  }
  void TearDown() override {
    obs::Lineage::Enable(lineage_was_enabled_);
    core::ThreadPool::SetGlobalThreadCount(0);
  }

 private:
  bool lineage_was_enabled_ = false;
};

constexpr std::uint64_t kColumnsDigest = 9015707586225234571ull;
constexpr std::uint64_t kPanelDigest = 11139349383500388286ull;
constexpr std::uint64_t kLineageDigest = 12793474473391349237ull;
constexpr std::uint64_t kBatchCsvDigest = 10443658405846038866ull;
constexpr std::uint64_t kArchived = 2937;
constexpr std::size_t kFailures = 55;

TEST_F(CampaignGoldenTest, StreamingCampaignBytesArePinned) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CampaignDigests d = RunSmallCampaign(/*streaming=*/true, threads);
    EXPECT_EQ(d.archived, kArchived) << threads << " lanes";
    EXPECT_EQ(d.failures, kFailures) << threads << " lanes";
    EXPECT_EQ(d.columns, kColumnsDigest) << threads << " lanes";
    EXPECT_EQ(d.panel, kPanelDigest) << threads << " lanes";
    if (obs::Lineage::enabled()) {
      EXPECT_EQ(d.lineage, kLineageDigest) << threads << " lanes";
    }
  }
}

TEST_F(CampaignGoldenTest, BatchCampaignBytesArePinned) {
  const CampaignDigests d = RunSmallCampaign(/*streaming=*/false, 2);
  EXPECT_EQ(d.archived, kArchived);
  EXPECT_EQ(d.failures, kFailures);
  EXPECT_EQ(d.batch_csv, kBatchCsvDigest);
  // The batch panel and ledger equal the streaming ones (DESIGN.md §10).
  EXPECT_EQ(d.panel, kPanelDigest);
  if (obs::Lineage::enabled()) {
    EXPECT_EQ(d.lineage, kLineageDigest);
  }
}

}  // namespace
}  // namespace sisyphus
