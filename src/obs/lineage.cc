#include "obs/lineage.h"

#include <algorithm>
#include <cstdio>

#include "core/hash.h"
#include "core/json.h"

namespace sisyphus::obs {

namespace internal {
bool g_lineage_enabled = false;
thread_local std::vector<LineageEvent>* t_lineage_buffer = nullptr;
}  // namespace internal

using internal::LineageEvent;

const char* ToString(LineageStage stage) {
  switch (stage) {
    case LineageStage::kEmitted: return "emitted";
    case LineageStage::kQuarantined: return "quarantined";
    case LineageStage::kArchived: return "archived";
    case LineageStage::kOutOfPanel: return "out_of_panel";
    case LineageStage::kDroppedSparsity: return "dropped_sparsity";
    case LineageStage::kAggregated: return "aggregated";
    case LineageStage::kDonor: return "donor";
    case LineageStage::kTreated: return "treated";
    case LineageStage::kShedOverload: return "shed_overload";
  }
  return "unknown";
}

std::string LineageIntentName(std::uint8_t code) {
  if (code < kLineageIntentNames.size()) return kLineageIntentNames[code];
  return "intent" + std::to_string(code);
}

IdRunSet IdRunSet::FromSorted(const std::vector<std::uint64_t>& sorted_ids) {
  IdRunSet out;
  std::uint64_t prev_end = 0;  // one past the previous run's last id
  std::size_t i = 0;
  while (i < sorted_ids.size()) {
    const std::uint64_t start = sorted_ids[i];
    std::uint64_t end = start + 1;
    ++i;
    while (i < sorted_ids.size() && sorted_ids[i] <= end) {
      if (sorted_ids[i] == end) ++end;  // duplicates collapse
      ++i;
    }
    out.encoded_.push_back(start - prev_end);
    out.encoded_.push_back(end - start);
    out.size_ += end - start;
    prev_end = end;
  }
  // Digest over the encoding bytes: equal sets hash equal; deterministic
  // on a fixed platform (byte order), which is all the artifact promises.
  out.digest_ = core::Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(out.encoded_.data()),
      out.encoded_.size() * sizeof(std::uint64_t)));
  return out;
}

IdRunSet IdRunSet::FromEncoded(std::vector<std::uint64_t> encoded) {
  IdRunSet out;
  out.encoded_ = std::move(encoded);
  for (std::size_t i = 0; i + 1 < out.encoded_.size(); i += 2) {
    out.size_ += out.encoded_[i + 1];
  }
  out.digest_ = core::Fnv1a64(std::string_view(
      reinterpret_cast<const char*>(out.encoded_.data()),
      out.encoded_.size() * sizeof(std::uint64_t)));
  return out;
}

std::vector<std::uint64_t> IdRunSet::Expand() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  std::uint64_t cursor = 0;
  for (std::size_t i = 0; i + 1 < encoded_.size(); i += 2) {
    cursor += encoded_[i];
    for (std::uint64_t k = 0; k < encoded_[i + 1]; ++k) out.push_back(cursor++);
  }
  return out;
}

Lineage& Lineage::Global() {
  static Lineage lineage;
  return lineage;
}

void Lineage::Enable(bool on) { internal::g_lineage_enabled = on; }

void Lineage::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  runs_.clear();
}

Lineage::RunLedger& Lineage::CurrentRun() {
  if (runs_.empty()) runs_.emplace_back();
  return runs_.back();
}

Lineage::RecordEntry& Lineage::EntryFor(RunLedger& run, std::uint64_t id) {
  if (run.records.size() < id) run.records.resize(id);
  return run.records[id - 1];
}

void Lineage::Emit(LineageEvent&& event) {
  if (!enabled()) return;
  if (internal::t_lineage_buffer != nullptr) {
    internal::t_lineage_buffer->push_back(std::move(event));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Apply(event);
}

void Lineage::Replay(const std::vector<LineageEvent>& events) {
  if (events.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const LineageEvent& event : events) Apply(event);
}

void Lineage::Apply(const LineageEvent& event) {
  using Kind = LineageEvent::Kind;
  if (event.kind == Kind::kBeginRun) {
    if (!runs_.empty() && runs_.back().event_count == 0) {
      runs_.back().label = event.name;
    } else {
      runs_.emplace_back();
      runs_.back().label = event.name;
    }
    return;
  }
  RunLedger& run = CurrentRun();
  ++run.event_count;
  const auto upgrade = [](RecordEntry& entry, LineageStage stage) {
    if (entry.stage < stage) entry.stage = stage;
  };
  switch (event.kind) {
    case Kind::kBeginRun:
      break;  // handled above
    case Kind::kEmitted: {
      if (event.record.id == 0) break;  // hand-built record without an id
      RecordEntry& entry = EntryFor(run, event.record.id);
      entry.vantage = event.record.vantage;
      entry.intent = event.record.intent;
      entry.attempts = event.record.attempts;
      entry.fault_mask = event.record.fault_mask;
      entry.copies = event.record.copies;
      entry.seen = true;
      upgrade(entry, event.record.archived ? LineageStage::kArchived
                                           : LineageStage::kQuarantined);
      break;
    }
    case Kind::kShed: {
      if (event.record.id == 0) break;
      RecordEntry& entry = EntryFor(run, event.record.id);
      entry.vantage = event.record.vantage;
      entry.intent = event.record.intent;
      entry.attempts = event.record.attempts;
      entry.fault_mask = event.record.fault_mask;
      entry.copies = 0;  // never delivered; conservation stays exact
      entry.seen = true;
      upgrade(entry, LineageStage::kShedOverload);
      break;
    }
    case Kind::kProbeFailure:
      run.probe_failures[event.name] += event.count;
      break;
    case Kind::kOutOfPanel:
      if (event.id == 0) break;
      upgrade(EntryFor(run, event.id), LineageStage::kOutOfPanel);
      break;
    case Kind::kUnitEmpty:
      ++run.empty_units;
      break;
    case Kind::kUnitKept: {
      UnitLedger& unit = run.units[event.name];
      unit.dropped = false;
      unit.missing_fraction = event.number;
      unit.observed_cells = event.count;
      unit.masked_cells = event.count2;
      break;
    }
    case Kind::kUnitDropped: {
      UnitLedger& unit = run.units[event.name];
      unit.dropped = true;
      unit.missing_fraction = event.number;
      unit.observed_cells = event.count;
      unit.masked_cells = event.count2;
      unit.dropped_ids = event.ids;
      for (std::uint64_t id : event.ids.Expand()) {
        if (id == 0) continue;
        upgrade(EntryFor(run, id), LineageStage::kDroppedSparsity);
      }
      break;
    }
    case Kind::kCell: {
      UnitLedger& unit = run.units[event.name];
      unit.cells.push_back({event.period, event.ids});
      for (std::uint64_t id : event.ids.Expand()) {
        if (id == 0) continue;
        upgrade(EntryFor(run, id), LineageStage::kAggregated);
      }
      break;
    }
    case Kind::kMarkTreated: {
      const auto it = run.units.find(event.name);
      if (it != run.units.end() && !it->second.dropped) {
        it->second.used_treated = true;
      }
      break;
    }
    case Kind::kMarkDonor: {
      const auto it = run.units.find(event.name);
      if (it != run.units.end() && !it->second.dropped) {
        it->second.used_donor = true;
      }
      break;
    }
    case Kind::kEstimate:
      run.estimates.push_back(
          {event.name, event.unit, event.names, event.number, event.number2});
      break;
  }
}

void Lineage::BeginRun(std::string label) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kBeginRun;
  event.name = std::move(label);
  Emit(std::move(event));
}

void Lineage::RecordEmitted(const LineageRecordInfo& info) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kEmitted;
  event.record = info;
  Emit(std::move(event));
}

void Lineage::RecordShed(const LineageRecordInfo& info) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kShed;
  event.record = info;
  Emit(std::move(event));
}

void Lineage::RecordProbeFailure(std::string_view reason,
                                 std::uint64_t count) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kProbeFailure;
  event.name = std::string(reason);
  event.count = count;
  Emit(std::move(event));
}

void Lineage::RecordOutOfPanel(std::uint64_t id) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kOutOfPanel;
  event.id = id;
  Emit(std::move(event));
}

void Lineage::PanelUnitEmpty(std::string_view unit) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kUnitEmpty;
  event.name = std::string(unit);
  Emit(std::move(event));
}

void Lineage::PanelUnitKept(std::string_view unit, double missing_fraction,
                            std::uint64_t observed_cells,
                            std::uint64_t masked_cells) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kUnitKept;
  event.name = std::string(unit);
  event.number = missing_fraction;
  event.count = observed_cells;
  event.count2 = masked_cells;
  Emit(std::move(event));
}

void Lineage::PanelUnitDropped(std::string_view unit, double missing_fraction,
                               std::uint64_t observed_cells,
                               std::uint64_t masked_cells, IdRunSet ids) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kUnitDropped;
  event.name = std::string(unit);
  event.number = missing_fraction;
  event.count = observed_cells;
  event.count2 = masked_cells;
  event.ids = std::move(ids);
  Emit(std::move(event));
}

void Lineage::PanelCell(std::string_view unit, std::uint32_t period,
                        IdRunSet ids) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kCell;
  event.name = std::string(unit);
  event.period = period;
  event.ids = std::move(ids);
  Emit(std::move(event));
}

void Lineage::MarkTreated(std::string_view unit) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kMarkTreated;
  event.name = std::string(unit);
  Emit(std::move(event));
}

void Lineage::MarkDonor(std::string_view unit) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kMarkDonor;
  event.name = std::string(unit);
  Emit(std::move(event));
}

void Lineage::AddEstimate(std::string label, std::string treated_unit,
                          std::vector<std::string> donor_units, double effect,
                          double p_value) {
  LineageEvent event;
  event.kind = LineageEvent::Kind::kEstimate;
  event.name = std::move(label);
  event.unit = std::move(treated_unit);
  event.names = std::move(donor_units);
  event.number = effect;
  event.number2 = p_value;
  Emit(std::move(event));
}

std::vector<LineageStage> Lineage::ResolveStages(const RunLedger& run) {
  std::vector<LineageStage> stages;
  stages.reserve(run.records.size());
  for (const RecordEntry& entry : run.records) stages.push_back(entry.stage);
  for (const auto& [name, unit] : run.units) {
    if (unit.dropped || (!unit.used_treated && !unit.used_donor)) continue;
    const LineageStage mark =
        unit.used_treated ? LineageStage::kTreated : LineageStage::kDonor;
    for (const CellEntry& cell : unit.cells) {
      for (std::uint64_t id : cell.ids.Expand()) {
        if (id == 0 || id > stages.size()) continue;
        if (stages[id - 1] < mark) stages[id - 1] = mark;
      }
    }
  }
  return stages;
}

LineageWaterfall Lineage::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  LineageWaterfall total;
  for (const RunLedger& run : runs_) {
    const std::vector<LineageStage> stages = ResolveStages(run);
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      const RecordEntry& entry = run.records[i];
      if (!entry.seen) {
        ++total.untracked;
        continue;
      }
      ++total.emitted;
      total.delivered += entry.copies;
      if (stages[i] == LineageStage::kQuarantined) {
        total.quarantined_copies += entry.copies;
      } else {
        total.archived_copies += entry.copies;
      }
      ++total.terminal[static_cast<std::size_t>(stages[i])];
    }
    for (const auto& [reason, count] : run.probe_failures) {
      total.probes_failed += count;
      total.failure_reasons[reason] += count;
    }
    total.units_empty += run.empty_units;
    for (const auto& [name, unit] : run.units) {
      if (unit.dropped) {
        ++total.units_dropped;
      } else {
        ++total.units_kept;
      }
      total.cells_observed += unit.observed_cells;
      total.cells_masked += unit.masked_cells;
    }
  }
  total.probes_attempted = total.emitted + total.probes_failed;
  return total;
}

std::size_t Lineage::run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

namespace {

/// Record/intent/fault/vantage composition of a set of units' panel cells.
struct Composition {
  std::uint64_t records = 0;
  std::uint64_t cells = 0;
  std::uint64_t digest = 0;
  std::map<std::string, std::uint64_t> intents;
  std::map<std::string, std::uint64_t> faults;
  std::map<std::string, std::uint64_t> vantages;
};

void WriteCountMap(core::json::Writer& w, const char* key,
                   const std::map<std::string, std::uint64_t>& counts) {
  w.Key(key);
  w.BeginObject();
  for (const auto& [name, count] : counts) {
    w.Key(name);
    w.UInt(count);
  }
  w.EndObject();
}

std::string DigestHex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buffer);
}

void WriteComposition(core::json::Writer& w, const char* prefix,
                      const Composition& comp) {
  w.Key(std::string(prefix) + "_records");
  w.UInt(comp.records);
  w.Key(std::string(prefix) + "_cells");
  w.UInt(comp.cells);
  w.Key(std::string(prefix) + "_digest");
  w.String(DigestHex(comp.digest));
  WriteCountMap(w, (std::string(prefix) + "_intents").c_str(), comp.intents);
  WriteCountMap(w, (std::string(prefix) + "_faults").c_str(), comp.faults);
  WriteCountMap(w, (std::string(prefix) + "_vantages").c_str(),
                comp.vantages);
}

}  // namespace

std::string Lineage::ToJson(int indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  core::json::Writer w(indent);
  w.BeginObject();
  w.Key("schema");
  w.String("sisyphus.lineage/1");
  w.Key("stages");
  w.BeginArray();
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    w.String(ToString(static_cast<LineageStage>(s)));
  }
  w.EndArray();
  w.Key("fault_bits");
  w.BeginArray();
  for (const char* name : kLineageFaultNames) w.String(name);
  w.EndArray();
  w.Key("runs");
  w.BeginArray();
  for (const RunLedger& run : runs_) {
    const std::vector<LineageStage> stages = ResolveStages(run);

    // Compose the per-unit composition lookup once per run.
    const auto compose = [&](const std::vector<std::string>& units) {
      Composition comp;
      std::string digest_bytes;
      for (const std::string& unit_name : units) {
        const auto it = run.units.find(unit_name);
        if (it == run.units.end() || it->second.dropped) continue;
        for (const CellEntry& cell : it->second.cells) {
          ++comp.cells;
          const std::uint64_t cell_digest = cell.ids.digest();
          digest_bytes.append(
              reinterpret_cast<const char*>(&cell_digest),
              sizeof(cell_digest));
          for (std::uint64_t id : cell.ids.Expand()) {
            if (id == 0 || id > run.records.size()) continue;
            const RecordEntry& entry = run.records[id - 1];
            ++comp.records;
            if (!entry.seen) continue;
            ++comp.intents[LineageIntentName(entry.intent)];
            ++comp.vantages[std::to_string(entry.vantage)];
            for (std::size_t bit = 0; bit < kLineageFaultNames.size();
                 ++bit) {
              if (entry.fault_mask & (1u << bit)) {
                ++comp.faults[kLineageFaultNames[bit]];
              }
            }
          }
        }
      }
      comp.digest = core::Fnv1a64(digest_bytes);
      return comp;
    };

    w.BeginObject();
    w.Key("label");
    w.String(run.label);

    // -- waterfall accounting (the conservation surface) --
    std::uint64_t emitted = 0, delivered = 0, quarantined = 0, archived = 0,
                  untracked = 0, failed = 0;
    std::array<std::uint64_t, kLineageStageCount> terminal{};
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      const RecordEntry& entry = run.records[i];
      if (!entry.seen) {
        ++untracked;
        continue;
      }
      ++emitted;
      delivered += entry.copies;
      if (stages[i] == LineageStage::kQuarantined) {
        quarantined += entry.copies;
      } else {
        archived += entry.copies;
      }
      ++terminal[static_cast<std::size_t>(stages[i])];
    }
    for (const auto& [reason, count] : run.probe_failures) failed += count;
    std::uint64_t units_kept = 0, units_dropped = 0, cells_observed = 0,
                  cells_masked = 0;
    for (const auto& [name, unit] : run.units) {
      if (unit.dropped) {
        ++units_dropped;
      } else {
        ++units_kept;
      }
      cells_observed += unit.observed_cells;
      cells_masked += unit.masked_cells;
    }
    w.Key("waterfall");
    w.BeginObject();
    w.Key("probes_attempted");
    w.UInt(emitted + failed);
    w.Key("probes_failed");
    w.UInt(failed);
    WriteCountMap(w, "failure_reasons", run.probe_failures);
    w.Key("emitted");
    w.UInt(emitted);
    w.Key("delivered");
    w.UInt(delivered);
    w.Key("quarantined_copies");
    w.UInt(quarantined);
    w.Key("archived_copies");
    w.UInt(archived);
    w.Key("untracked");
    w.UInt(untracked);
    w.Key("terminal");
    w.BeginObject();
    for (std::size_t s = 0; s < kLineageStageCount; ++s) {
      w.Key(ToString(static_cast<LineageStage>(s)));
      w.UInt(terminal[s]);
    }
    w.EndObject();
    w.Key("panel");
    w.BeginObject();
    w.Key("units_kept");
    w.UInt(units_kept);
    w.Key("units_dropped");
    w.UInt(units_dropped);
    w.Key("units_empty");
    w.UInt(run.empty_units);
    w.Key("cells_observed");
    w.UInt(cells_observed);
    w.Key("cells_masked");
    w.UInt(cells_masked);
    w.EndObject();
    w.EndObject();

    // -- columnar per-record arrays (index = id - 1) --
    w.Key("records");
    w.BeginObject();
    w.Key("count");
    w.UInt(run.records.size());
    const auto column = [&](const char* key, auto&& get) {
      w.Key(key);
      w.BeginArray();
      for (std::size_t i = 0; i < run.records.size(); ++i) {
        w.UInt(get(run.records[i], stages[i]));
      }
      w.EndArray();
    };
    column("vantage", [](const RecordEntry& r, LineageStage) {
      return static_cast<std::uint64_t>(r.vantage);
    });
    column("intent", [](const RecordEntry& r, LineageStage) {
      return static_cast<std::uint64_t>(r.intent);
    });
    column("attempts", [](const RecordEntry& r, LineageStage) {
      return static_cast<std::uint64_t>(r.attempts);
    });
    column("fault_mask", [](const RecordEntry& r, LineageStage) {
      return static_cast<std::uint64_t>(r.fault_mask);
    });
    column("copies", [](const RecordEntry& r, LineageStage) {
      return static_cast<std::uint64_t>(r.copies);
    });
    column("stage", [](const RecordEntry&, LineageStage stage) {
      return static_cast<std::uint64_t>(stage);
    });
    w.EndObject();

    // -- panel units with per-cell id sets --
    w.Key("panel_units");
    w.BeginObject();
    for (const auto& [name, unit] : run.units) {
      w.Key(name);
      w.BeginObject();
      w.Key("dropped");
      w.Bool(unit.dropped);
      w.Key("missing_fraction");
      w.Double(unit.missing_fraction);
      w.Key("observed_cells");
      w.UInt(unit.observed_cells);
      w.Key("masked_cells");
      w.UInt(unit.masked_cells);
      w.Key("used_treated");
      w.Bool(unit.used_treated);
      w.Key("used_donor");
      w.Bool(unit.used_donor);
      if (unit.dropped) {
        w.Key("dropped_ids");
        w.BeginArray();
        for (std::uint64_t v : unit.dropped_ids.encoded()) w.UInt(v);
        w.EndArray();
      }
      w.Key("cells");
      w.BeginArray();
      for (const CellEntry& cell : unit.cells) {
        w.BeginObject();
        w.Key("period");
        w.UInt(cell.period);
        w.Key("count");
        w.UInt(cell.ids.size());
        w.Key("digest");
        w.String(DigestHex(cell.ids.digest()));
        w.Key("runs");
        w.BeginArray();
        for (std::uint64_t v : cell.ids.encoded()) w.UInt(v);
        w.EndArray();
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();

    // -- estimates with resolved compositions --
    w.Key("estimates");
    w.BeginArray();
    for (const EstimateEntry& estimate : run.estimates) {
      w.BeginObject();
      w.Key("label");
      w.String(estimate.label);
      w.Key("treated");
      w.String(estimate.treated);
      w.Key("donors");
      w.BeginArray();
      for (const std::string& donor : estimate.donors) w.String(donor);
      w.EndArray();
      w.Key("effect");
      w.Double(estimate.effect);
      w.Key("p_value");
      w.Double(estimate.p_value);  // NaN serializes as null
      const Composition treated = compose({estimate.treated});
      const Composition donors = compose(estimate.donors);
      WriteComposition(w, "treated", treated);
      WriteComposition(w, "donor", donors);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

}  // namespace sisyphus::obs
