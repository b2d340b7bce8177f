// Correctness oracle shared by every workload. Each check recomputes a
// result apart from the program (from the archived columns, the panel, or
// the fit's own series) or tests a property the method must have; none
// compares against a stored copy of earlier output.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "causal/placebo.h"
#include "measure/panel.h"
#include "measure/store.h"
#include "obs/lineage.h"
#include "obs/timeline.h"

namespace perfbench {

/// One treated unit's Table-1 analysis, with the inputs the oracle needs
/// to re-derive it.
struct UnitEstimate {
  std::string unit;
  bool ok = false;
  std::string error;
  std::vector<std::string> donors;  ///< donor column order of the input
  std::size_t pre_periods = 0;
  sisyphus::causal::PlaceboResult result;
  double input_s = 0.0;  ///< MakeSyntheticControlInput
  double unit_s = 0.0;   ///< input + RunPlaceboAnalysis
};

/// Collects failed checks; a run is correct only if none failed.
class Verdict {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Recomputes every cell's count, exact median and compensated mean from
/// the store's archived columns, and checks the panel's kept units, its
/// dropped-unit list (max_missing_fraction) and its interpolated values.
void CheckPanel(const sisyphus::measure::ShardedMeasurementStore& store,
                const sisyphus::measure::Panel& panel, Verdict& verdict);

/// Archived + quarantined copies equal the copies offered for ingest, the
/// shards' columns hold exactly the archived copies, and quarantine is
/// empty on a clean plan and non-empty under a dirty one.
void CheckConservation(const sisyphus::measure::ShardedMeasurementStore& store,
                       std::uint64_t ingested, bool expect_quarantine,
                       Verdict& verdict);

/// Re-derives the RMSE ratio and average effect from the fit's synthetic
/// series and the panel's treated series (observed periods only), and the
/// rank p-value from the placebo ratios.
void CheckEstimate(const sisyphus::measure::Panel& panel,
                   const UnitEstimate& estimate, Verdict& verdict);

/// Placebo rejections at level `alpha` over `tests` zero-effect tests stay
/// within alpha*n + 3 sqrt(n alpha (1 - alpha)).
void CheckTestSize(std::size_t rejections, std::size_t tests, double alpha,
                   Verdict& verdict);

/// The terminal-stage counts of audit.bin's waterfall equal those written
/// in lineage.json (read from the JSON text) and sum to `emitted`.
void CheckStageCounts(const sisyphus::obs::LineageWaterfall& audit,
                      std::string_view lineage_json, Verdict& verdict);

/// Exactly one route-churn event, at `expected_step`.
void CheckChurnEvent(const sisyphus::obs::TimelineReader& timeline,
                     std::uint64_t expected_step, Verdict& verdict);

/// FNV-1a digest of a panel and its estimates, bit for bit: equal digests
/// mean identical outputs (repeat analyses, repeat rounds, resume).
std::uint64_t Digest(const sisyphus::measure::Panel& panel,
                     const std::vector<UnitEstimate>& estimates);
std::uint64_t Digest(const std::vector<UnitEstimate>& estimates);

}  // namespace perfbench
