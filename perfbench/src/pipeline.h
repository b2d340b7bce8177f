// The ZA Table-1 pipeline as the benchmark drives it: scenario set-up,
// the streaming campaign, the per-unit robust synthetic control with
// placebo inference, and the result export. Every call goes through the
// program's public functions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {

/// Thread-pool lanes for every workload: half of a 4-vCPU host, so runs
/// do not depend on the machine's core count.
inline constexpr std::size_t kLanes = 2;

/// What a pipeline's inputs are made from.
struct ScenarioSpec {
  std::uint64_t seed = 0;
  /// Multiplier on the table1 vantage rates (10 baseline + 4 user tests
  /// per vantage and day), as `table1 --scale`.
  double scale = 1.0;
  /// Calibration: the treatment fires after the horizon, so the analysis
  /// at the usual day-28 cut is a zero-effect test.
  bool suppress_treatment = false;
  /// The "dirty collector" fault plan (za_durable).
  bool dirty_collector = false;
};

/// A built scenario with its platform and 38 registered vantages — the
/// state every pipeline starts from.
struct Setup {
  sisyphus::netsim::ScenarioZa scenario;
  std::unique_ptr<sisyphus::measure::FaultInjector> injector;
  std::unique_ptr<sisyphus::measure::Platform> platform;
  sisyphus::measure::PanelOptions panel_options;
  sisyphus::core::SimTime horizon;
  sisyphus::core::SimTime analysis_time;  ///< day 28: treatment or pseudo
  std::uint64_t rng_seed = 0;             ///< campaign generator seed
  double build_s = 0.0;      ///< BuildScenarioZa alone, wall
  double setup_cpu_s = 0.0;  ///< scenario + platform + vantages, CPU
};

std::unique_ptr<Setup> MakeSetup(const ScenarioSpec& spec);

/// Probe loss, 2% corruption, 3% duplication, clock skew and one 60 h
/// outage of the first treated vantage.
sisyphus::measure::FaultPlan DirtyCollectorPlan(
    const sisyphus::netsim::ScenarioZa& scenario, std::uint64_t seed);

std::unique_ptr<sisyphus::measure::StreamingCampaign> MakeCampaign(
    const Setup& setup);

/// What the benchmark itself counted while driving a campaign's steps.
struct StepCounts {
  std::uint64_t emitted = 0;  ///< distinct records
  std::uint64_t copies = 0;   ///< record copies offered for ingest
};

/// Runs the campaign to the horizon through the public step API in
/// Platform::RunLoop's order (GenerateStep, IngestBatch, CommitFailures,
/// EmitStepTelemetry), timing each call when `trace` is set.
StepCounts RunSteps(Setup& setup, sisyphus::core::Rng& rng,
                    sisyphus::measure::StreamingCampaign& campaign,
                    Trace* trace, int parent);

/// MakeSyntheticControlInput + robust RunPlaceboAnalysis per treated unit,
/// fanned out across the pool as table1 does. While the lineage ledger is
/// on, the estimates are registered in it (and as registry gauges) in unit
/// order, as table1 does.
std::vector<UnitEstimate> AnalyzeTreated(const sisyphus::measure::Panel& panel,
                                         const Setup& setup, Trace* trace,
                                         int parent);

/// Writes `dir`/panel.csv and `dir`/estimates.csv. False on I/O failure.
bool ExportResults(const std::string& dir,
                   const sisyphus::measure::Panel& panel,
                   const std::vector<UnitEstimate>& estimates);

/// Bytes this process has handed to write calls (/proc/self/io wchar).
std::uint64_t WrittenBytes();

/// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace perfbench
