#include "pipeline.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>

#include "causal/placebo.h"
#include "core/parallel.h"
#include "measure/export.h"
#include "obs/lineage.h"
#include "obs/metrics.h"

namespace perfbench {

namespace core = sisyphus::core;
namespace measure = sisyphus::measure;
namespace netsim = sisyphus::netsim;
namespace causal = sisyphus::causal;
namespace obs = sisyphus::obs;

std::unique_ptr<Setup> MakeSetup(const ScenarioSpec& spec) {
  const Clock::time_point start = Clock::now();
  const double cpu_start = ThreadCpuSeconds();
  auto setup = std::make_unique<Setup>();
  netsim::ScenarioZaOptions options;
  options.seed = spec.seed;
  if (spec.suppress_treatment) {
    options.treatment_time = options.horizon + core::SimTime::FromDays(1);
  }
  setup->scenario = netsim::BuildScenarioZa(options);
  setup->build_s = Seconds(start, Clock::now());
  setup->horizon = options.horizon;
  setup->analysis_time = core::SimTime::FromDays(28);
  setup->rng_seed = spec.seed;

  measure::PlatformOptions platform_options;
  platform_options.server = setup->scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  setup->platform = std::make_unique<measure::Platform>(
      *setup->scenario.simulator, platform_options);
  if (spec.dirty_collector) {
    setup->injector = std::make_unique<measure::FaultInjector>(
        DirtyCollectorPlan(setup->scenario, spec.seed));
    setup->platform->SetFaultInjector(setup->injector.get());
  }
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0 * spec.scale;
  vantage.user_tests_per_day = 4.0 * spec.scale;
  for (const auto& unit : setup->scenario.treated) {
    vantage.pop = unit.access_pop;
    setup->platform->AddVantage(vantage);
  }
  for (netsim::PopIndex donor : setup->scenario.donors) {
    vantage.pop = donor;
    setup->platform->AddVantage(vantage);
  }
  setup->panel_options.bucket = core::SimTime::FromHours(6);
  setup->panel_options.periods = static_cast<std::size_t>(
      options.horizon.minutes() / setup->panel_options.bucket.minutes());
  setup->setup_cpu_s = ThreadCpuSeconds() - cpu_start;
  return setup;
}

measure::FaultPlan DirtyCollectorPlan(const netsim::ScenarioZa& scenario,
                                      std::uint64_t seed) {
  // exp_fault_resilience's "dirty collector" sweep point.
  measure::FaultPlan plan;
  plan.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  plan.probe_loss_probability = 0.10;
  plan.corruption_probability = 0.02;
  plan.duplicate_probability = 0.03;
  plan.max_clock_skew = core::SimTime(3);
  const core::SimTime start = core::SimTime::FromDays(10);
  plan.vantage_outages.push_back(
      {scenario.treated.front().access_pop,
       {{start, start + core::SimTime::FromHours(60)}}});
  return plan;
}

std::unique_ptr<measure::StreamingCampaign> MakeCampaign(const Setup& setup) {
  measure::StreamingOptions options;
  options.panel = setup.panel_options;
  return std::make_unique<measure::StreamingCampaign>(
      setup.platform->options().validation, options);
}

StepCounts RunSteps(Setup& setup, core::Rng& rng,
                    measure::StreamingCampaign& campaign, Trace* trace,
                    int parent) {
  measure::Platform& platform = *setup.platform;
  measure::DeclareStreamTelemetrySeries();
  std::uint64_t steps = 0;
  std::uint64_t records = 0;
  StepCounts counts;
  while (platform.Now() < setup.horizon) {
    LayerScope step_scope(trace, "measure.step", parent);
    measure::StepOutput step;
    {
      LayerScope scope(trace, "measure.generate", step_scope.id());
      step = platform.GenerateStep(setup.horizon, rng);
    }
    {
      LayerScope scope(trace, "measure.ingest", step_scope.id());
      campaign.IngestBatch(step.records);
    }
    {
      LayerScope scope(trace, "measure.commit_failures", step_scope.id());
      platform.CommitFailures(step.failures);
    }
    ++steps;
    records += step.records.size();
    // A duplicate-delivery entry carries two copies of one record.
    for (const measure::PendingRecord& pending : step.records) {
      ++counts.emitted;
      counts.copies += pending.duplicate ? 2 : 1;
    }
    LayerScope scope(trace, "measure.telemetry", step_scope.id());
    measure::EmitStepTelemetry(steps, records, 0,
                               platform.options().heartbeat_every_steps,
                               &campaign, /*ingest_sampled_elsewhere=*/false);
  }
  return counts;
}

std::vector<UnitEstimate> AnalyzeTreated(const measure::Panel& panel,
                                         const Setup& setup, Trace* trace,
                                         int parent) {
  const auto& treated = setup.scenario.treated;
  std::vector<UnitEstimate> estimates =
      core::ParallelMap(treated.size(), [&](std::size_t u) {
        UnitEstimate estimate;
        estimate.unit = treated[u].name;
        const int span =
            trace != nullptr ? trace->spans.Begin("causal.unit", parent)
                             : SpanLog::kNoParent;
        const Clock::time_point start = Clock::now();
        auto input = measure::MakeSyntheticControlInput(
            panel, estimate.unit, setup.scenario.donor_names,
            setup.analysis_time);
        estimate.input_s = Seconds(start, Clock::now());
        if (!input.ok()) {
          estimate.error = input.error().ToText();
        } else {
          causal::PlaceboOptions options;
          options.method = causal::SyntheticControlMethod::kRobust;
          auto result = causal::RunPlaceboAnalysis(input.value(), options);
          if (!result.ok()) {
            estimate.error = result.error().ToText();
          } else {
            estimate.ok = true;
            estimate.donors = input.value().donor_names;
            estimate.pre_periods = input.value().pre_periods;
            estimate.result = std::move(result).value();
          }
        }
        estimate.unit_s = Seconds(start, Clock::now());
        if (trace != nullptr) trace->spans.End(span);
        return estimate;
      });
  if (obs::Lineage::enabled()) {
    for (std::size_t u = 0; u < estimates.size(); ++u) {
      if (!estimates[u].ok) continue;
      const std::string prefix = "table1.robust.unit" + std::to_string(u);
      const double effect = estimates[u].result.treated_fit.average_effect;
      const double p_value = estimates[u].result.p_value;
      obs::Registry::Global().GetGauge(prefix + ".effect_ms")->Set(effect);
      obs::Registry::Global().GetGauge(prefix + ".p_value")->Set(p_value);
      obs::Lineage::Global().AddEstimate(prefix, estimates[u].unit,
                                         estimates[u].donors, effect, p_value);
    }
  }
  return estimates;
}

bool ExportResults(const std::string& dir, const measure::Panel& panel,
                   const std::vector<UnitEstimate>& estimates) {
  std::string csv = "unit,effect_ms,rmse_ratio,p_value,placebos\n";
  for (const UnitEstimate& e : estimates) {
    char line[160];
    std::snprintf(line, sizeof(line), ",%.17g,%.17g,%.17g,%zu\n",
                  e.result.treated_fit.average_effect,
                  e.result.treated_fit.rmse_ratio, e.result.p_value,
                  e.result.placebo_ratios.size());
    csv += "\"" + e.unit + "\"" + line;
  }
  return measure::WriteTextFile(dir + "/panel.csv", measure::PanelToCsv(panel))
             .ok() &&
         measure::WriteTextFile(dir + "/estimates.csv", csv).ok();
}

std::uint64_t WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
