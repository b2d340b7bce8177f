#include "measure/panel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"
#include "stats/timeseries.h"

namespace sisyphus::measure {

using core::Error;
using core::ErrorCode;
using core::Result;

Result<std::size_t> Panel::Find(const std::string& unit) const {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].unit == unit) return i;
  }
  for (const DroppedUnit& drop : dropped) {
    if (drop.unit == unit) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "': dropped for sparsity (missing_fraction %.2f > "
                    "max_missing_fraction %.2f)",
                    drop.missing_fraction, options.max_missing_fraction);
      return Error(ErrorCode::kNotFound, "Panel: unit '" + unit + detail);
    }
  }
  return Error(ErrorCode::kNotFound, "Panel: no unit '" + unit + "'");
}

IncrementalPanelBuilder::IncrementalPanelBuilder(PanelOptions options,
                                                 std::size_t shard_count)
    : options_(options), lineage_(obs::Lineage::enabled()) {
  SISYPHUS_REQUIRE(shard_count > 0, "IncrementalPanelBuilder: zero shards");
  SISYPHUS_REQUIRE(options.bucket.minutes() > 0,
                   "IncrementalPanelBuilder: zero bucket");
  shards_.resize(shard_count);
}

std::size_t IncrementalPanelBuilder::ShardOf(std::string_view unit) const {
  return static_cast<std::size_t>(core::Fnv1a64(unit) % shards_.size());
}

void IncrementalPanelBuilder::Observe(std::size_t shard, std::string_view unit,
                                      core::SimTime time, double rtt_ms,
                                      std::uint64_t id) {
  Shard& owner = shards_[shard];
  auto it = owner.units.find(unit);
  if (it == owner.units.end()) {
    it = owner.units.emplace(std::string(unit), UnitCells{}).first;
    it->second.cells.resize(options_.periods);
  }
  // Cell attribution mirrors the bucketed-median windows exactly: bucket i
  // covers [origin + i*bucket, origin + (i+1)*bucket).
  const std::int64_t from_origin =
      time.minutes() - options_.origin.minutes();
  const std::int64_t idx =
      from_origin >= 0 ? from_origin / options_.bucket.minutes() : -1;
  if (idx < 0 || idx >= static_cast<std::int64_t>(options_.periods)) {
    // Skew/backoff can push a record outside the panel horizon: it
    // terminates here, contributing to no cell (the unit entry above still
    // counts it toward "unit exists but panel-empty").
    if (lineage_) obs::Lineage::Global().RecordOutOfPanel(id);
    return;
  }
  CellAccumulator& cell = it->second.cells[static_cast<std::size_t>(idx)];
  cell.values.push_back(rtt_ms);
  if (lineage_) cell.ids.push_back(id);
  UnitCells& unit_cells = it->second;
  ++unit_cells.running_count;
  const double t = unit_cells.running_sum + rtt_ms;
  if (std::abs(unit_cells.running_sum) >= std::abs(rtt_ms)) {
    unit_cells.running_comp += (unit_cells.running_sum - t) + rtt_ms;
  } else {
    unit_cells.running_comp += (rtt_ms - t) + unit_cells.running_sum;
  }
  unit_cells.running_sum = t;
  ++owner.observed;
}

std::uint64_t IncrementalPanelBuilder::observed() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.observed;
  return total;
}

void IncrementalPanelBuilder::VisitRunningMeans(
    const std::function<void(std::string_view, std::uint64_t, double)>& visit)
    const {
  // Shards partition units, so the sorted concatenation of the per-shard
  // maps is the global sorted unit order (same gather as Finalize).
  std::vector<std::pair<std::string_view, const UnitCells*>> units;
  for (const Shard& shard : shards_) {
    for (const auto& [unit, cells] : shard.units) {
      units.emplace_back(unit, &cells);
    }
  }
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [unit, cells] : units) {
    visit(unit, cells->running_count,
          cells->running_sum + cells->running_comp);
  }
}

Panel IncrementalPanelBuilder::Finalize() const {
  Panel panel;
  panel.options = options_;
  // Shards partition units, so the sorted concatenation of the per-shard
  // maps is exactly the global sorted unit order the batch pass iterates.
  std::vector<std::pair<std::string_view, const UnitCells*>> units;
  for (const Shard& shard : shards_) {
    for (const auto& [unit, cells] : shard.units) {
      units.emplace_back(unit, &cells);
    }
  }
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const auto& [unit_view, unit_cells] : units) {
    const std::string unit(unit_view);
    std::vector<std::optional<double>> buckets(options_.periods);
    std::vector<std::uint32_t> counts(options_.periods, 0);
    std::vector<double> means(options_.periods, 0.0);
    for (std::size_t t = 0; t < options_.periods; ++t) {
      const CellAccumulator& cell = unit_cells->cells[t];
      if (cell.values.empty()) continue;
      // Sorting pins every aggregate to the cell's value *multiset*:
      // medians by definition, means via compensated summation over the
      // sorted values — so batch and streaming arrival orders agree
      // bit-for-bit (the parity audit this builder exists to close).
      std::vector<double> sorted = cell.values;
      std::sort(sorted.begin(), sorted.end());
      buckets[t] = stats::Median(sorted);
      means[t] = stats::CompensatedMean(sorted);
      counts[t] = static_cast<std::uint32_t>(sorted.size());
    }
    if (stats::AllMissing(buckets)) {
      SISYPHUS_METRIC_COUNT("measure.panel.units_empty", 1);
      if (lineage_) obs::Lineage::Global().PanelUnitEmpty(unit);
      (SISYPHUS_LOG(kDebug) << "panel unit skipped: no observed buckets")
          .With("unit", unit);
      continue;
    }
    const double missing = stats::MissingFraction(buckets);
    std::size_t observed_cells = 0;
    for (const auto& bucket : buckets) {
      if (bucket.has_value()) ++observed_cells;
    }
    SISYPHUS_METRIC_COUNT("measure.panel.cells_observed", observed_cells);
    SISYPHUS_METRIC_COUNT("measure.panel.cells_masked",
                          buckets.size() - observed_cells);
    std::vector<std::vector<std::uint64_t>> bucket_ids;
    if (lineage_) {
      bucket_ids.resize(options_.periods);
      for (std::size_t t = 0; t < options_.periods; ++t) {
        bucket_ids[t] = unit_cells->cells[t].ids;
        std::sort(bucket_ids[t].begin(), bucket_ids[t].end());
      }
    }
    if (missing > options_.max_missing_fraction) {
      SISYPHUS_METRIC_COUNT("measure.panel.units_dropped", 1);
      if (lineage_) {
        std::vector<std::uint64_t> in_range;
        for (const auto& ids : bucket_ids) {
          in_range.insert(in_range.end(), ids.begin(), ids.end());
        }
        std::sort(in_range.begin(), in_range.end());
        obs::Lineage::Global().PanelUnitDropped(
            unit, missing, observed_cells, buckets.size() - observed_cells,
            obs::IdRunSet::FromSorted(in_range));
      }
      (SISYPHUS_LOG(kDebug) << "panel unit dropped for sparsity")
          .With("unit", unit)
          .With("missing_fraction", missing)
          .With("max_missing_fraction", options_.max_missing_fraction);
      panel.dropped.push_back({unit, missing});
      continue;
    }
    SISYPHUS_METRIC_COUNT("measure.panel.units_kept", 1);
    UnitSeries out;
    out.unit = unit;
    out.values = stats::InterpolateMissing(buckets);
    out.missing_fraction = missing;
    out.observed.reserve(buckets.size());
    for (const auto& bucket : buckets) {
      out.observed.push_back(bucket.has_value());
    }
    out.cell_counts = std::move(counts);
    out.cell_means = std::move(means);
    if (lineage_) {
      obs::Lineage::Global().PanelUnitKept(
          unit, missing, observed_cells, buckets.size() - observed_cells);
      out.cell_ids.resize(options_.periods);
      for (std::size_t t = 0; t < bucket_ids.size(); ++t) {
        if (bucket_ids[t].empty()) continue;
        auto ids = obs::IdRunSet::FromSorted(bucket_ids[t]);
        obs::Lineage::Global().PanelCell(
            unit, static_cast<std::uint32_t>(t), ids);
        out.cell_ids[t] = std::move(ids);
      }
    }
    panel.units.push_back(std::move(out));
  }
  return panel;
}

Panel BuildRttPanel(const MeasurementStore& store,
                    const PanelOptions& options) {
  // The batch pass is a single-shard streaming fold: every record is
  // observed once (duplicate-delivery copies are distinct records in the
  // archive), then Finalize() assembles cells exactly as the streaming
  // path does. No pre-sort is needed — aggregation is order-independent.
  IncrementalPanelBuilder builder(options, 1);
  for (const std::string& unit : store.Units()) {
    for (const SpeedTestRecord* record : store.ForUnit(unit)) {
      builder.Observe(0, unit, record->time, record->rtt_ms,
                      record->id.value());
    }
  }
  return builder.Finalize();
}

Result<causal::SyntheticControlInput> MakeSyntheticControlInput(
    const Panel& panel, const std::string& treated_unit,
    const std::vector<std::string>& donor_units, core::SimTime treatment_time,
    std::vector<std::string>* skipped) {
  auto treated_index = panel.Find(treated_unit);
  if (!treated_index.ok()) return treated_index.error();

  std::vector<stats::Vector> donor_columns;
  std::vector<stats::Vector> donor_masks;
  std::vector<std::string> donor_names;
  for (const std::string& donor : donor_units) {
    if (donor == treated_unit) continue;
    auto index = panel.Find(donor);
    if (!index.ok()) {
      SISYPHUS_METRIC_COUNT("measure.panel.donors_skipped", 1);
      (SISYPHUS_LOG(kDebug) << "donor skipped")
          .With("donor", donor)
          .With("reason", index.error().ToText());
      if (skipped != nullptr) skipped->push_back(donor);
      continue;
    }
    const UnitSeries& series = panel.units[index.value()];
    donor_columns.push_back(series.values);
    stats::Vector mask(series.values.size(), 1.0);
    for (std::size_t t = 0; t < series.observed.size(); ++t) {
      mask[t] = series.observed[t] ? 1.0 : 0.0;
    }
    donor_masks.push_back(std::move(mask));
    donor_names.push_back(donor);
  }
  if (donor_columns.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "MakeSyntheticControlInput: no usable donors");
  }

  const auto minutes_from_origin =
      treatment_time.minutes() - panel.options.origin.minutes();
  if (minutes_from_origin <= 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "MakeSyntheticControlInput: treatment before panel origin");
  }
  const std::size_t pre_periods = static_cast<std::size_t>(
      minutes_from_origin / panel.options.bucket.minutes());

  const UnitSeries& treated = panel.units[treated_index.value()];
  causal::SyntheticControlInput input;
  input.treated_name = treated_unit;
  input.treated = treated.values;
  input.treated_observed.assign(treated.values.size(), 1.0);
  for (std::size_t t = 0; t < treated.observed.size(); ++t) {
    input.treated_observed[t] = treated.observed[t] ? 1.0 : 0.0;
  }
  input.donors = stats::Matrix::FromColumns(donor_columns);
  input.donor_observed = stats::Matrix::FromColumns(donor_masks);
  input.donor_names = std::move(donor_names);
  input.pre_periods = pre_periods;
  if (auto s = input.Validate(); !s.ok()) return s.error();
  return input;
}

}  // namespace sisyphus::measure
