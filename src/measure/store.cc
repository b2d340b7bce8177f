#include "measure/store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "obs/metrics.h"

namespace sisyphus::measure {

using core::Error;
using core::ErrorCode;

core::Status ValidateRecord(const SpeedTestRecord& record,
                            const StoreValidationOptions& options) {
  if (!std::isfinite(record.rtt_ms) || record.rtt_ms <= 0.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "rtt_ms not a positive finite number: " +
                     std::to_string(record.rtt_ms));
  }
  if (record.rtt_ms > options.max_rtt_ms) {
    return Error(ErrorCode::kInvalidArgument,
                 "rtt_ms " + std::to_string(record.rtt_ms) +
                     " exceeds max_rtt_ms " +
                     std::to_string(options.max_rtt_ms));
  }
  if (!std::isfinite(record.loss_rate) || record.loss_rate < 0.0 ||
      record.loss_rate > 1.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "loss_rate outside [0, 1]: " +
                     std::to_string(record.loss_rate));
  }
  if (!std::isfinite(record.throughput_mbps) ||
      record.throughput_mbps < 0.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "throughput_mbps not a non-negative finite number: " +
                     std::to_string(record.throughput_mbps));
  }
  if (record.time < options.min_time || options.max_time < record.time) {
    return Error(ErrorCode::kInvalidArgument,
                 "timestamp " + std::to_string(record.time.minutes()) +
                     "min outside the valid window");
  }
  return core::Status::Ok();
}

std::string QuarantineReasonTag(const std::string& reason) {
  if (reason.find("rtt_ms") != std::string::npos) return "rtt";
  if (reason.find("loss_rate") != std::string::npos) return "loss_rate";
  if (reason.find("throughput") != std::string::npos) return "throughput";
  if (reason.find("timestamp") != std::string::npos) return "timestamp";
  return "other";
}

bool MeasurementStore::Add(SpeedTestRecord record) {
  if (auto status = ValidateRecord(record, validation_); !status.ok()) {
    const std::string reason = status.error().ToText();
    const std::string tag = QuarantineReasonTag(reason);
    ++quarantine_reason_counts_[tag];
    SISYPHUS_METRIC_COUNT("measure.store.quarantined", 1);
#if !defined(SISYPHUS_OBS_DISABLED)
    // Per-reason counters need a dynamic name; quarantine is rare enough
    // that the registry lookup is fine off the fast path.
    obs::Registry::Global()
        .GetCounter("measure.store.quarantined." + tag)
        ->Add(1);
#endif
    (SISYPHUS_LOG(kDebug) << "record quarantined")
        .With("unit", record.UnitKey())
        .With("tag", tag)
        .With("reason", reason);
    quarantine_.push_back({std::move(record), reason});
    return false;
  }
  SISYPHUS_METRIC_COUNT("measure.store.archived", 1);
  by_unit_[record.UnitKey()].push_back(records_.size());
  records_.push_back(std::move(record));
  return true;
}

std::vector<std::string> MeasurementStore::Units() const {
  std::vector<std::string> out;
  out.reserve(by_unit_.size());
  for (const auto& [unit, _] : by_unit_) out.push_back(unit);
  return out;
}

std::vector<const SpeedTestRecord*> MeasurementStore::ForUnit(
    const std::string& unit) const {
  std::vector<const SpeedTestRecord*> out;
  const auto it = by_unit_.find(unit);
  if (it == by_unit_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t index : it->second) out.push_back(&records_[index]);
  return out;
}

std::vector<const SpeedTestRecord*> MeasurementStore::Select(
    const std::function<bool(const SpeedTestRecord&)>& predicate) const {
  std::vector<const SpeedTestRecord*> out;
  for (const auto& record : records_) {
    if (predicate(record)) out.push_back(&record);
  }
  return out;
}

std::optional<core::SimTime> MeasurementStore::FirstIxpCrossing(
    const netsim::Topology& topology, const std::string& unit,
    core::IxpId ixp) const {
  for (const SpeedTestRecord* record : ForUnit(unit)) {
    if (CrossesIxp(topology, record->traceroute, ixp)) return record->time;
  }
  return std::nullopt;
}

double MeasurementStore::IxpCrossingShare(const netsim::Topology& topology,
                                          const std::string& unit,
                                          core::IxpId ixp,
                                          core::SimTime start,
                                          core::SimTime end) const {
  std::size_t total = 0, crossing = 0;
  for (const SpeedTestRecord* record : ForUnit(unit)) {
    if (record->time < start || !(record->time < end)) continue;
    ++total;
    if (CrossesIxp(topology, record->traceroute, ixp)) ++crossing;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(crossing) / static_cast<double>(total);
}

ShardedMeasurementStore::ShardedMeasurementStore(
    StoreValidationOptions validation, std::size_t shard_count)
    : validation_(validation) {
  SISYPHUS_REQUIRE(shard_count > 0, "ShardedMeasurementStore: zero shards");
  shards_.resize(shard_count);
}

std::size_t ShardedMeasurementStore::ShardOf(std::string_view unit) const {
  return static_cast<std::size_t>(core::Fnv1a64(unit) % shards_.size());
}

bool ShardedMeasurementStore::Append(std::size_t shard, std::string_view unit,
                                     const SpeedTestRecord& record) {
  Columns& arena = shards_[shard];
  if (auto status = ValidateRecord(record, validation_); !status.ok()) {
    const std::string reason = status.error().ToText();
    const std::string tag = QuarantineReasonTag(reason);
    ++arena.quarantine_reason_counts[tag];
    ++arena.quarantined;
    SISYPHUS_METRIC_COUNT("measure.store.quarantined", 1);
#if !defined(SISYPHUS_OBS_DISABLED)
    // Same dynamic per-tag counter the batch store bumps; Registry
    // registration is mutex-guarded and Add() is capture-aware, so this is
    // safe (and deterministic) from inside a shard task.
    obs::Registry::Global()
        .GetCounter("measure.store.quarantined." + tag)
        ->Add(1);
#endif
    (SISYPHUS_LOG(kDebug) << "record quarantined")
        .With("unit", unit)
        .With("tag", tag)
        .With("reason", reason);
    return false;
  }
  SISYPHUS_METRIC_COUNT("measure.store.archived", 1);
  auto it = arena.unit_index.find(unit);
  if (it == arena.unit_index.end()) {
    it = arena.unit_index
             .emplace(std::string(unit),
                      static_cast<std::uint32_t>(arena.unit_names.size()))
             .first;
    arena.unit_names.emplace_back(unit);
  }
  arena.id.push_back(record.id.value());
  arena.time_minutes.push_back(record.time.minutes());
  arena.unit.push_back(it->second);
  arena.rtt_ms.push_back(record.rtt_ms);
  arena.loss_rate.push_back(record.loss_rate);
  arena.throughput_mbps.push_back(record.throughput_mbps);
  arena.intent.push_back(static_cast<std::uint8_t>(record.intent));
  arena.attempts.push_back(
      static_cast<std::uint8_t>(std::min<std::uint32_t>(record.attempts, 255)));
  arena.vantage_pop.push_back(record.vantage_pop);
  return true;
}

std::uint64_t ShardedMeasurementStore::size() const {
  std::uint64_t total = 0;
  for (const Columns& arena : shards_) total += arena.size();
  return total;
}

std::uint64_t ShardedMeasurementStore::quarantined() const {
  std::uint64_t total = 0;
  for (const Columns& arena : shards_) total += arena.quarantined;
  return total;
}

std::map<std::string, std::uint64_t>
ShardedMeasurementStore::QuarantineReasonCounts() const {
  std::map<std::string, std::uint64_t> out;
  for (const Columns& arena : shards_) {
    for (const auto& [tag, count] : arena.quarantine_reason_counts) {
      out[tag] += count;
    }
  }
  return out;
}

std::vector<std::string> ShardedMeasurementStore::Units() const {
  std::vector<std::string> out;
  for (const Columns& arena : shards_) {
    for (const auto& [unit, _] : arena.unit_index) out.push_back(unit);
  }
  // Shards partition units (one unit never spans shards), so the merged
  // list has no duplicates — sorting alone restores the global order.
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t ShardedMeasurementStore::CountByIntent(Intent intent) const {
  const auto wanted = static_cast<std::uint8_t>(intent);
  std::uint64_t count = 0;
  for (const Columns& arena : shards_) {
    for (std::uint8_t tag : arena.intent) {
      if (tag == wanted) ++count;
    }
  }
  return count;
}

std::string ShardedMeasurementStore::ToCsv() const {
  std::string out =
      "shard,id,time_minutes,unit,intent,attempts,vantage_pop,rtt_ms,"
      "loss_rate,throughput_mbps\n";
  char buffer[64];
  const auto append_double = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += buffer;
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Columns& arena = shards_[s];
    for (std::size_t i = 0; i < arena.size(); ++i) {
      out += std::to_string(s);
      out += ',';
      out += std::to_string(arena.id[i]);
      out += ',';
      out += std::to_string(arena.time_minutes[i]);
      out += ",\"";
      out += arena.unit_names[arena.unit[i]];
      out += "\",";
      out += std::to_string(arena.intent[i]);
      out += ',';
      out += std::to_string(arena.attempts[i]);
      out += ',';
      out += std::to_string(arena.vantage_pop[i]);
      out += ',';
      append_double(arena.rtt_ms[i]);
      out += ',';
      append_double(arena.loss_rate[i]);
      out += ',';
      append_double(arena.throughput_mbps[i]);
      out += '\n';
    }
  }
  return out;
}

}  // namespace sisyphus::measure
