// The oracle's own test: it accepts the outputs of a small real campaign,
// and rejects each of a perturbed panel, effect, p-value and ledger.
#include <cstdio>
#include <string>

#include "core/parallel.h"
#include "core/rng.h"
#include "oracle.h"
#include "pipeline.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool PanelOk(const sisyphus::measure::ShardedMeasurementStore& store,
             const sisyphus::measure::Panel& panel) {
  Verdict verdict;
  CheckPanel(store, panel, verdict);
  return verdict.ok();
}

bool EstimateOk(const sisyphus::measure::Panel& panel, const UnitEstimate& e,
                bool report = false) {
  Verdict verdict;
  CheckEstimate(panel, e, verdict);
  if (report) {
    for (const std::string& failure : verdict.failures()) {
      std::printf("  %s\n", failure.c_str());
    }
  }
  return verdict.ok();
}

}  // namespace

int main() {
  sisyphus::core::ThreadPool::SetGlobalThreadCount(kLanes);
  ScenarioSpec spec;
  spec.seed = 11;
  spec.scale = 1.0;
  auto setup = MakeSetup(spec);
  auto campaign = MakeCampaign(*setup);
  sisyphus::core::Rng rng(setup->rng_seed);
  setup->platform->RunStreaming(setup->horizon, rng, *campaign);
  const sisyphus::measure::Panel panel = campaign->FinalizePanel();
  const auto estimates = AnalyzeTreated(panel, *setup, nullptr, SpanLog::kNoParent);
  const auto& store = campaign->store();

  // The program's outputs pass.
  Expect(PanelOk(store, panel), "panel agrees with the archived records");
  bool all_estimates = !estimates.empty();
  for (const UnitEstimate& e : estimates) all_estimates &= EstimateOk(panel, e, true);
  Expect(all_estimates, "every estimate re-derives");
  Verdict clean;
  CheckConservation(store, campaign->ingested(), false, clean);
  Expect(clean.ok(), "clean-plan ledger conserves copies");

  // A perturbed panel: one cell's mean, one cell's median, a dropped unit.
  {
    auto bad = panel;
    auto& unit = bad.units.front();
    for (std::size_t t = 0; t < unit.cell_means.size(); ++t) {
      if (unit.observed[t]) {
        unit.cell_means[t] += 1e-6;
        break;
      }
    }
    Expect(!PanelOk(store, bad), "perturbed cell mean is rejected");
  }
  {
    auto bad = panel;
    bad.units.back().values[5] += 0.25;
    Expect(!PanelOk(store, bad), "perturbed cell value is rejected");
  }
  {
    auto bad = panel;
    bad.dropped.push_back({bad.units.back().unit, 0.5});
    bad.units.pop_back();
    Expect(!PanelOk(store, bad), "unit moved to the dropped list is rejected");
  }

  // A perturbed effect and p-value.
  {
    UnitEstimate bad = estimates.front();
    bad.result.treated_fit.average_effect += 1e-3;
    Expect(!EstimateOk(panel, bad), "perturbed average effect is rejected");
  }
  {
    UnitEstimate bad = estimates.front();
    bad.result.p_value =
        bad.result.p_value > 0.5 ? bad.result.p_value - 1.0 / 64 : bad.result.p_value + 1.0 / 64;
    Expect(!EstimateOk(panel, bad), "perturbed p-value is rejected");
  }
  {
    UnitEstimate bad = estimates.front();
    bad.result.treated_fit.synthetic[3] += 0.1;  // a pre-period: moves the RMSE ratio
    Expect(!EstimateOk(panel, bad), "perturbed synthetic series is rejected");
  }

  // A perturbed ledger: copies that vanish, quarantine on a clean plan,
  // and audit stage counts that disagree with lineage.json.
  {
    Verdict verdict;
    CheckConservation(store, campaign->ingested() + 1, false, verdict);
    Expect(!verdict.ok(), "ingested copies that were neither archived nor quarantined are rejected");
  }
  {
    Verdict verdict;
    CheckConservation(store, campaign->ingested(), true, verdict);
    Expect(!verdict.ok(), "a dirty plan without quarantine is rejected");
  }
  {
    sisyphus::obs::LineageWaterfall waterfall;
    waterfall.emitted = 10;
    waterfall.terminal[static_cast<int>(sisyphus::obs::LineageStage::kQuarantined)] = 3;
    waterfall.terminal[static_cast<int>(sisyphus::obs::LineageStage::kTreated)] = 7;
    std::string json = "{\"runs\": [{\"waterfall\": {\"emitted\": 10, \"terminal\": {";
    for (std::size_t s = 0; s < sisyphus::obs::kLineageStageCount; ++s) {
      json += std::string(s == 0 ? "" : ", ") + "\"" +
              sisyphus::obs::ToString(static_cast<sisyphus::obs::LineageStage>(s)) +
              "\": " + std::to_string(waterfall.terminal[s]);
    }
    json += "}}}]}";
    Verdict same;
    CheckStageCounts(waterfall, json, same);
    Expect(same.ok(), "matching audit and lineage stage counts pass");
    auto moved = waterfall;
    --moved.terminal[static_cast<int>(sisyphus::obs::LineageStage::kTreated)];
    ++moved.terminal[static_cast<int>(sisyphus::obs::LineageStage::kDonor)];
    Verdict differs;
    CheckStageCounts(moved, json, differs);
    Expect(!differs.ok(), "a record moved between audit stages is rejected");
  }

  // Test size: the bound is alpha*n + 3 sigma.
  {
    Verdict within;
    CheckTestSize(4, 128, 0.10, within);
    Verdict beyond;
    CheckTestSize(25, 128, 0.10, beyond);
    Expect(within.ok() && !beyond.ok(), "test-size bound holds 4/128, rejects 25/128");
  }

  std::printf("%s: %d failed\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
