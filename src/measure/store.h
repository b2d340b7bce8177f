// MeasurementStore: the archive of speed-test records, queryable by
// ⟨ASN, city⟩ unit, time window, intent, and IXP-crossing status.
//
// Ingest is validating: records that cannot be physically right (negative
// RTT, out-of-range timestamps, impossible loss rates, non-finite
// throughput) never enter the archive — they land in an inspectable
// quarantine with a reason, so corrupt data cannot poison downstream
// panels and estimators while remaining available for debugging.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "measure/speedtest.h"

namespace sisyphus::measure {

/// What Add() accepts into the archive. Everything outside these bounds is
/// quarantined, not dropped.
struct StoreValidationOptions {
  double max_rtt_ms = 60'000.0;  ///< 1 minute: beyond any sane speed test
  core::SimTime min_time{0};
  core::SimTime max_time{std::numeric_limits<std::int64_t>::max()};
};

/// Ok, or the reason a record is implausible.
core::Status ValidateRecord(const SpeedTestRecord& record,
                            const StoreValidationOptions& options = {});

/// A rejected record plus why it was rejected.
struct QuarantinedRecord {
  SpeedTestRecord record;
  std::string reason;
};

/// Short stable tag for a quarantine reason ("rtt", "loss_rate",
/// "throughput", "timestamp", "other") — the key of the queryable
/// quarantine counter map.
std::string QuarantineReasonTag(const std::string& reason);

/// A record emitted by the platform awaiting ingest. Ids are assigned at
/// merge time — sequential in vantage order — so archives stay
/// byte-identical at any thread count; `duplicate` marks an injected
/// duplicate-delivery fault (the second copy shares id and content).
struct PendingRecord {
  SpeedTestRecord record;
  bool duplicate = false;
  std::uint8_t fault_mask = 0;  ///< obs::kLineageFault* bits that fired
};

class MeasurementStore {
 public:
  MeasurementStore() = default;
  explicit MeasurementStore(StoreValidationOptions validation)
      : validation_(validation) {}

  /// Archives a valid record (returns true); quarantines an invalid one
  /// (returns false) — the caller-facing verdict lineage records.
  bool Add(SpeedTestRecord record);

  std::size_t size() const { return records_.size(); }
  const std::vector<SpeedTestRecord>& records() const { return records_; }

  const std::vector<QuarantinedRecord>& quarantine() const {
    return quarantine_;
  }

  /// Quarantine counts per reason tag (see QuarantineReasonTag) —
  /// queryable without iterating the quarantined records themselves.
  const std::map<std::string, std::size_t>& QuarantineReasonCounts() const {
    return quarantine_reason_counts_;
  }

  const StoreValidationOptions& validation() const { return validation_; }

  /// Distinct unit keys, sorted.
  std::vector<std::string> Units() const;

  /// Records of one unit, in time order.
  std::vector<const SpeedTestRecord*> ForUnit(const std::string& unit) const;

  /// Records matching a predicate.
  std::vector<const SpeedTestRecord*> Select(
      const std::function<bool(const SpeedTestRecord&)>& predicate) const;

  /// First time a record of `unit` crossed `ixp` (by traceroute hop
  /// matching); nullopt if it never does.
  std::optional<core::SimTime> FirstIxpCrossing(
      const netsim::Topology& topology, const std::string& unit,
      core::IxpId ixp) const;

  /// Fraction of a unit's tests in [start, end) that cross `ixp`.
  double IxpCrossingShare(const netsim::Topology& topology,
                          const std::string& unit, core::IxpId ixp,
                          core::SimTime start, core::SimTime end) const;

 private:
  StoreValidationOptions validation_;
  std::vector<SpeedTestRecord> records_;
  std::vector<QuarantinedRecord> quarantine_;
  std::map<std::string, std::size_t> quarantine_reason_counts_;
  std::map<std::string, std::vector<std::size_t>> by_unit_;
};

/// The streaming archive: records land in columnar (structure-of-arrays)
/// arenas, one arena per shard, shard = Fnv1a64(unit key) % shard_count.
/// Sharding by *unit* — never by thread — keeps every unit's records in
/// exactly one arena in a deterministic order, which is what lets ingest
/// fan out across the thread pool while panel/metrics/lineage artifacts
/// stay byte-identical to the batch path (DESIGN.md §10).
///
/// Only the scalar columns the streaming pipeline consumes are retained
/// (id, time, unit, rtt, loss, throughput, intent, attempts, vantage);
/// traceroutes and AS paths are not — per-record payloads are what caps
/// the batch path near 1M records. Validation, quarantine accounting, and
/// the metric names mirror MeasurementStore::Add exactly.
///
/// Thread safety: distinct shards may be appended to concurrently; a
/// single shard must only be touched by one thread at a time (the ingest
/// fan-out runs one task per shard).
class ShardedMeasurementStore {
 public:
  static constexpr std::size_t kDefaultShardCount = 16;

  explicit ShardedMeasurementStore(StoreValidationOptions validation = {},
                                   std::size_t shard_count = kDefaultShardCount);

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard that owns `unit` — a pure function of the unit key, so the
  /// layout never depends on SISYPHUS_THREADS.
  std::size_t ShardOf(std::string_view unit) const;

  /// Validating columnar append of one record copy into `shard`'s arena.
  /// Returns the same archived/quarantined verdict as
  /// MeasurementStore::Add and bumps the same metric counters. The caller
  /// passes the record's unit key, computed once per unit per batch.
  /// Precondition: unit == record.UnitKey() and shard == ShardOf(unit).
  bool Append(std::size_t shard, std::string_view unit,
              const SpeedTestRecord& record);

  /// One shard's arena, in append order. Parallel arrays: entry i of every
  /// column describes the i-th archived record copy of the shard.
  struct Columns {
    std::vector<std::uint64_t> id;
    std::vector<std::int64_t> time_minutes;
    std::vector<std::uint32_t> unit;  ///< index into unit_names
    std::vector<double> rtt_ms;
    std::vector<double> loss_rate;
    std::vector<double> throughput_mbps;
    std::vector<std::uint8_t> intent;
    std::vector<std::uint8_t> attempts;  ///< clamped to 255
    std::vector<std::uint32_t> vantage_pop;
    std::vector<std::string> unit_names;  ///< interned keys, first-seen order
    std::map<std::string, std::uint32_t, std::less<>> unit_index;
    std::map<std::string, std::uint64_t> quarantine_reason_counts;
    std::uint64_t quarantined = 0;
    std::size_t size() const { return id.size(); }
  };
  const Columns& shard(std::size_t s) const { return shards_[s]; }

  /// Archived record copies across all shards.
  std::uint64_t size() const;
  std::uint64_t quarantined() const;
  /// Quarantine counts per reason tag, merged over shards.
  std::map<std::string, std::uint64_t> QuarantineReasonCounts() const;
  /// Distinct unit keys across shards, sorted.
  std::vector<std::string> Units() const;
  std::uint64_t CountByIntent(Intent intent) const;
  const StoreValidationOptions& validation() const { return validation_; }

  /// Deterministic CSV dump of the scalar columns (shard-major, append
  /// order within a shard) — the streaming analogue of StoreToCsv for
  /// replay/determinism audits. Not row-compatible with the batch CSV:
  /// traceroute and AS-path columns do not exist here.
  std::string ToCsv() const;

 private:
  StoreValidationOptions validation_;
  std::vector<Columns> shards_;
};

}  // namespace sisyphus::measure
