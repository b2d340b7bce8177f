#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <optional>

namespace perfbench {

namespace measure = sisyphus::measure;
namespace obs = sisyphus::obs;

namespace {

bool Near(double a, double b, double rel = 1e-9) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Neumaier-compensated sum, written out here so the oracle does not lean
/// on the program's own kernel.
double CompensatedSum(const std::vector<double>& xs) {
  double sum = 0.0;
  double compensation = 0.0;
  for (double x : xs) {
    const double t = sum + x;
    compensation += std::abs(sum) >= std::abs(x) ? (sum - t) + x : (x - t) + sum;
    sum = t;
  }
  return sum + compensation;
}

double ExactMedian(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

struct ExpectedUnit {
  std::vector<std::vector<double>> cells;  ///< sorted values per period
  std::size_t observed = 0;
};

class Fnv {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void Double(double value) { Bytes(&value, sizeof(value)); }
  void U64(std::uint64_t value) { Bytes(&value, sizeof(value)); }
  void String(const std::string& text) {
    U64(text.size());
    Bytes(text.data(), text.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void HashEstimates(const std::vector<UnitEstimate>& estimates, Fnv& fnv) {
  for (const UnitEstimate& e : estimates) {
    fnv.String(e.unit);
    fnv.U64(e.ok ? 1 : 0);
    if (!e.ok) continue;
    const auto& fit = e.result.treated_fit;
    fnv.Double(fit.average_effect);
    fnv.Double(fit.rmse_ratio);
    fnv.Double(e.result.p_value);
    for (double w : fit.weights) fnv.Double(w);
    for (double s : fit.synthetic) fnv.Double(s);
    for (double r : e.result.placebo_ratios) fnv.Double(r);
  }
}

}  // namespace

void CheckPanel(const measure::ShardedMeasurementStore& store,
                const measure::Panel& panel, Verdict& verdict) {
  const measure::PanelOptions& options = panel.options;
  const std::int64_t bucket = options.bucket.minutes();
  const std::size_t periods = options.periods;
  std::map<std::string, ExpectedUnit> expected;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const auto& columns = store.shard(s);
    for (std::size_t i = 0; i < columns.size(); ++i) {
      ExpectedUnit& unit = expected[columns.unit_names[columns.unit[i]]];
      if (unit.cells.empty()) unit.cells.resize(periods);
      const std::int64_t offset =
          columns.time_minutes[i] - options.origin.minutes();
      if (offset < 0 || offset / bucket >= static_cast<std::int64_t>(periods)) {
        continue;
      }
      unit.cells[static_cast<std::size_t>(offset / bucket)].push_back(
          columns.rtt_ms[i]);
    }
  }

  std::vector<std::string> kept;
  std::vector<std::pair<std::string, double>> dropped;
  for (auto& [name, unit] : expected) {
    for (auto& cell : unit.cells) {
      std::sort(cell.begin(), cell.end());
      if (!cell.empty()) ++unit.observed;
    }
    if (unit.observed == 0) continue;
    const double missing = static_cast<double>(periods - unit.observed) /
                           static_cast<double>(periods);
    if (missing > options.max_missing_fraction) {
      dropped.emplace_back(name, missing);
    } else {
      kept.push_back(name);
    }
  }

  verdict.Expect(panel.units.size() == kept.size(),
                 "panel: " + std::to_string(panel.units.size()) +
                     " kept units, recomputed " + std::to_string(kept.size()));
  verdict.Expect(panel.dropped.size() == dropped.size(),
                 "panel: " + std::to_string(panel.dropped.size()) +
                     " dropped units, recomputed " +
                     std::to_string(dropped.size()));
  for (std::size_t d = 0; d < std::min(dropped.size(), panel.dropped.size());
       ++d) {
    verdict.Expect(panel.dropped[d].unit == dropped[d].first &&
                       Near(panel.dropped[d].missing_fraction,
                            dropped[d].second, 1e-12),
                   "panel: dropped unit '" + dropped[d].first + "' differs");
  }
  for (std::size_t u = 0; u < std::min(kept.size(), panel.units.size()); ++u) {
    const measure::UnitSeries& series = panel.units[u];
    if (series.unit != kept[u]) {
      verdict.Expect(false, "panel: unit " + std::to_string(u) + " is '" +
                                series.unit + "', recomputed '" + kept[u] + "'");
      continue;
    }
    const ExpectedUnit& unit = expected[kept[u]];
    if (series.values.size() != periods || series.observed.size() != periods ||
        series.cell_counts.size() != periods ||
        series.cell_means.size() != periods) {
      verdict.Expect(false, "panel: unit '" + series.unit + "' has wrong length");
      continue;
    }
    verdict.Expect(Near(series.missing_fraction,
                        static_cast<double>(periods - unit.observed) /
                            static_cast<double>(periods),
                        1e-12),
                   "panel: missing fraction of '" + series.unit + "'");
    std::size_t bad_cells = 0;
    std::optional<std::size_t> previous;  // last observed period
    for (std::size_t t = 0; t < periods; ++t) {
      const std::vector<double>& cell = unit.cells[t];
      if (cell.empty()) {
        if (series.observed[t] || series.cell_counts[t] != 0) ++bad_cells;
        continue;
      }
      if (!series.observed[t] || series.cell_counts[t] != cell.size() ||
          !Near(series.values[t], ExactMedian(cell), 1e-12) ||
          !Near(series.cell_means[t],
                CompensatedSum(cell) / static_cast<double>(cell.size()),
                1e-12)) {
        ++bad_cells;
      }
      // Interpolated periods lie between their observed neighbours.
      const std::size_t from = previous.has_value() ? *previous + 1 : 0;
      const double low = previous.has_value()
                             ? std::min(series.values[*previous], series.values[t])
                             : series.values[t];
      const double high = previous.has_value()
                              ? std::max(series.values[*previous], series.values[t])
                              : series.values[t];
      for (std::size_t gap = from; gap < t; ++gap) {
        if (series.values[gap] < low - 1e-9 || series.values[gap] > high + 1e-9) {
          ++bad_cells;
        }
      }
      previous = t;
    }
    if (previous.has_value()) {
      for (std::size_t gap = *previous + 1; gap < periods; ++gap) {
        if (series.values[gap] != series.values[*previous]) ++bad_cells;
      }
    }
    verdict.Expect(bad_cells == 0, "panel: " + std::to_string(bad_cells) +
                                       " cells of '" + series.unit +
                                       "' disagree with the archived records");
  }
}

void CheckConservation(const measure::ShardedMeasurementStore& store,
                       std::uint64_t ingested, bool expect_quarantine,
                       Verdict& verdict) {
  std::uint64_t rows = 0;
  std::uint64_t quarantined = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    rows += store.shard(s).size();
    quarantined += store.shard(s).quarantined;
  }
  verdict.Expect(rows == store.size(),
                 "conservation: shard columns hold " + std::to_string(rows) +
                     " rows, store reports " + std::to_string(store.size()));
  verdict.Expect(rows + quarantined == ingested,
                 "conservation: archived " + std::to_string(rows) +
                     " + quarantined " + std::to_string(quarantined) +
                     " != ingested " + std::to_string(ingested));
  verdict.Expect(expect_quarantine ? quarantined > 0 : quarantined == 0,
                 "conservation: " + std::to_string(quarantined) +
                     " quarantined copies on a " +
                     (expect_quarantine ? "dirty" : "clean") + " plan");
}

void CheckEstimate(const measure::Panel& panel, const UnitEstimate& estimate,
                   Verdict& verdict) {
  const std::string who = "estimate '" + estimate.unit + "': ";
  if (!estimate.ok) {
    verdict.Expect(false, who + "analysis failed: " + estimate.error);
    return;
  }
  const auto find = [&](const std::string& name) -> const measure::UnitSeries* {
    for (const auto& series : panel.units) {
      if (series.unit == name) return &series;
    }
    return nullptr;
  };
  const measure::UnitSeries* treated = find(estimate.unit);
  std::vector<const measure::UnitSeries*> donors;
  for (const std::string& name : estimate.donors) {
    donors.push_back(find(name));
    if (donors.back() == nullptr) {
      verdict.Expect(false, who + "donor '" + name + "' is not in the panel");
      return;
    }
  }
  const auto& fit = estimate.result.treated_fit;
  if (treated == nullptr || fit.weights.size() != donors.size() ||
      fit.synthetic.size() != treated->values.size() ||
      estimate.pre_periods == 0 ||
      estimate.pre_periods >= treated->values.size()) {
    verdict.Expect(false, who + "shape does not match the panel");
    return;
  }
  const std::size_t periods = treated->values.size();

  // Errors and effects use the treated unit's observed periods, or every
  // period of a segment that has none observed.
  const auto gaps = [&](std::size_t begin, std::size_t end) {
    std::vector<double> out;
    for (std::size_t t = begin; t < end; ++t) {
      if (treated->observed[t]) out.push_back(treated->values[t] - fit.synthetic[t]);
    }
    if (out.empty()) {
      for (std::size_t t = begin; t < end; ++t) {
        out.push_back(treated->values[t] - fit.synthetic[t]);
      }
    }
    return out;
  };
  const auto rmse = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (double x : xs) sum += x * x;
    return std::sqrt(sum / static_cast<double>(xs.size()));
  };
  const std::vector<double> pre = gaps(0, estimate.pre_periods);
  const std::vector<double> post = gaps(estimate.pre_periods, periods);
  double effect = 0.0;
  for (double gap : post) effect += gap;
  effect /= static_cast<double>(post.size());
  verdict.Expect(Near(effect, fit.average_effect),
                 who + "average effect " + std::to_string(fit.average_effect) +
                     ", re-derived " + std::to_string(effect));
  const double ratio = rmse(post) / std::max(rmse(pre), 1e-9);
  verdict.Expect(Near(ratio, fit.rmse_ratio, 1e-7),
                 who + "RMSE ratio " + std::to_string(fit.rmse_ratio) +
                     ", re-derived " + std::to_string(ratio));

  const auto& ratios = estimate.result.placebo_ratios;
  std::size_t at_least = 0;
  for (double r : ratios) {
    if (r >= fit.rmse_ratio) ++at_least;
  }
  const double p = static_cast<double>(at_least + 1) /
                   static_cast<double>(ratios.size() + 1);
  verdict.Expect(ratios.size() >= 2 && p == estimate.result.p_value,
                 who + "p-value " + std::to_string(estimate.result.p_value) +
                     ", re-derived " + std::to_string(p) + " from " +
                     std::to_string(ratios.size()) + " placebo ratios");
}

void CheckTestSize(std::size_t rejections, std::size_t tests, double alpha,
                   Verdict& verdict) {
  const double n = static_cast<double>(tests);
  const double limit = alpha * n + 3.0 * std::sqrt(n * alpha * (1.0 - alpha));
  verdict.Expect(tests > 0 && static_cast<double>(rejections) <= limit,
                 "test size: " + std::to_string(rejections) + "/" +
                     std::to_string(tests) + " placebo rejections at alpha " +
                     std::to_string(alpha) + " exceed " + std::to_string(limit));
}

void CheckStageCounts(const obs::LineageWaterfall& audit,
                      std::string_view lineage_json, Verdict& verdict) {
  // lineage.json: {"runs": [{..., "waterfall": {..., "terminal": {"stage":
  // count, ...}}}]}. Read the one run's terminal object from the text.
  const std::size_t waterfall = lineage_json.find("\"waterfall\"");
  const std::size_t terminal =
      waterfall == std::string_view::npos
          ? std::string_view::npos
          : lineage_json.find("\"terminal\"", waterfall);
  const std::size_t open = terminal == std::string_view::npos
                               ? std::string_view::npos
                               : lineage_json.find('{', terminal);
  const std::size_t close = open == std::string_view::npos
                                ? std::string_view::npos
                                : lineage_json.find('}', open);
  if (close == std::string_view::npos) {
    verdict.Expect(false, "lineage.json: no waterfall terminal counts");
    return;
  }
  std::map<std::string, std::uint64_t> json_counts;
  const std::string_view body = lineage_json.substr(open + 1, close - open - 1);
  std::size_t pos = 0;
  while ((pos = body.find('"', pos)) != std::string_view::npos) {
    const std::size_t end = body.find('"', pos + 1);
    if (end == std::string_view::npos) break;
    const std::string key(body.substr(pos + 1, end - pos - 1));
    std::size_t digit = body.find(':', end) + 1;
    while (digit < body.size() && std::isspace(static_cast<unsigned char>(body[digit]))) {
      ++digit;
    }
    std::uint64_t value = 0;
    while (digit < body.size() && std::isdigit(static_cast<unsigned char>(body[digit]))) {
      value = value * 10 + static_cast<std::uint64_t>(body[digit] - '0');
      ++digit;
    }
    json_counts[key] = value;
    pos = digit;
  }
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
    const std::string name = obs::ToString(static_cast<obs::LineageStage>(s));
    const auto it = json_counts.find(name);
    const bool same = it != json_counts.end() && it->second == audit.terminal[s];
    verdict.Expect(same, "audit.bin stage '" + name + "' has " +
                             std::to_string(audit.terminal[s]) +
                             " records, lineage.json " +
                             (it == json_counts.end() ? std::string("none")
                                                      : std::to_string(it->second)));
    sum += audit.terminal[s];
  }
  verdict.Expect(sum == audit.emitted && audit.emitted > 0,
                 "audit.bin terminal stages sum to " + std::to_string(sum) +
                     ", emitted " + std::to_string(audit.emitted));
}

void CheckChurnEvent(const obs::TimelineReader& timeline,
                     std::uint64_t expected_step, Verdict& verdict) {
  std::vector<std::uint64_t> steps;
  for (const obs::DetectionEvent& event : timeline.events()) {
    for (const obs::TimelineSeriesView& series : timeline.series()) {
      if (series.id == event.series &&
          series.detector == obs::DetectorKind::kChurn) {
        steps.push_back(event.step);
      }
    }
  }
  verdict.Expect(steps.size() == 1 && steps.front() == expected_step,
                 "timeline: " + std::to_string(steps.size()) +
                     " churn events, expected one at step " +
                     std::to_string(expected_step) +
                     (steps.empty() ? std::string()
                                    : ", first at " + std::to_string(steps.front())));
}

std::uint64_t Digest(const measure::Panel& panel,
                     const std::vector<UnitEstimate>& estimates) {
  Fnv fnv;
  for (const auto& series : panel.units) {
    fnv.String(series.unit);
    for (std::size_t t = 0; t < series.values.size(); ++t) {
      fnv.Double(series.values[t]);
      fnv.U64(series.observed[t] ? 1 : 0);
      fnv.U64(series.cell_counts[t]);
      fnv.Double(series.cell_means[t]);
    }
  }
  for (const auto& dropped : panel.dropped) {
    fnv.String(dropped.unit);
    fnv.Double(dropped.missing_fraction);
  }
  HashEstimates(estimates, fnv);
  return fnv.value();
}

std::uint64_t Digest(const std::vector<UnitEstimate>& estimates) {
  Fnv fnv;
  HashEstimates(estimates, fnv);
  return fnv.value();
}

}  // namespace perfbench
