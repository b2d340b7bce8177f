// Streaming ingest units: the sharded columnar store must hand down the
// exact validation/quarantine semantics of MeasurementStore::Add, and the
// incremental panel builder must reproduce BuildRttPanel cell-for-cell no
// matter how records are sharded or in what order they arrive — the
// property the end-to-end byte-identity fixture (stream_parity_test)
// leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "measure/export.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "measure/store.h"
#include "stats/descriptive.h"

namespace sisyphus {
namespace {

measure::SpeedTestRecord MakeRecord(std::uint64_t id, std::uint32_t asn,
                                    const std::string& city,
                                    std::int64_t minutes, double rtt_ms) {
  measure::SpeedTestRecord r;
  r.id = core::MeasurementId(id);
  r.time = core::SimTime(minutes);
  r.asn = core::Asn(asn);
  r.city = city;
  r.vantage_pop = static_cast<netsim::PopIndex>(asn % 7);
  r.rtt_ms = rtt_ms;
  r.loss_rate = 0.01;
  r.throughput_mbps = 40.0;
  r.intent = (id % 3 == 0) ? measure::Intent::kUserInitiated
                           : measure::Intent::kBaseline;
  return r;
}

// ---- Compensated summation ------------------------------------------------

TEST(CompensatedSumTest, SurvivesCatastrophicCancellation) {
  // Naive left-to-right summation of {1e16, 1, -1e16} loses the 1.
  const double values[] = {1e16, 1.0, -1e16};
  EXPECT_EQ(stats::CompensatedSum(values), 1.0);
}

TEST(CompensatedSumTest, HandlesTermLargerThanRunningSum) {
  // Neumaier's branch: the incoming term dominates the running sum.
  const double values[] = {1.0, 1e100, 1.0, -1e100};
  EXPECT_EQ(stats::CompensatedSum(values), 2.0);
  EXPECT_EQ(stats::CompensatedSum(std::vector<double>{}), 0.0);
}

TEST(CompensatedSumTest, MeanIsExactOnRepresentableCases) {
  const double values[] = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(stats::CompensatedMean(values), 0.25);
}

// ---- ShardedMeasurementStore ----------------------------------------------

TEST(ShardedStoreTest, MirrorsBatchStoreValidation) {
  measure::MeasurementStore batch;
  measure::ShardedMeasurementStore sharded;
  std::vector<measure::SpeedTestRecord> records;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    records.push_back(MakeRecord(i, 3741 + static_cast<std::uint32_t>(i % 5),
                                 "City" + std::to_string(i % 5),
                                 static_cast<std::int64_t>(i * 60),
                                 15.0 + static_cast<double>(i)));
  }
  records.push_back(MakeRecord(41, 3741, "City0", 60, -4.0));  // bad rtt
  auto bad_time = MakeRecord(42, 3742, "City1", 60, 20.0);
  bad_time.time = core::SimTime(-5);
  records.push_back(bad_time);

  std::size_t batch_archived = 0;
  std::size_t sharded_archived = 0;
  for (const auto& r : records) {
    if (batch.Add(r)) ++batch_archived;
    if (sharded.Append(sharded.ShardOf(r.UnitKey()), r.UnitKey(), r)) {
      ++sharded_archived;
    }
  }

  EXPECT_EQ(batch_archived, 40u);
  EXPECT_EQ(sharded_archived, batch_archived);
  EXPECT_EQ(sharded.size(), batch.size());
  EXPECT_EQ(sharded.quarantined(), batch.quarantine().size());
  EXPECT_EQ(sharded.Units(), batch.Units());
  EXPECT_EQ(sharded.CountByIntent(measure::Intent::kBaseline),
            batch.Select([](const measure::SpeedTestRecord& r) {
                   return r.intent == measure::Intent::kBaseline;
                 }).size());
  // Same reason tags with the same counts.
  const auto batch_reasons = batch.QuarantineReasonCounts();
  const auto sharded_reasons = sharded.QuarantineReasonCounts();
  ASSERT_EQ(sharded_reasons.size(), batch_reasons.size());
  for (const auto& [tag, count] : batch_reasons) {
    ASSERT_TRUE(sharded_reasons.count(tag)) << tag;
    EXPECT_EQ(sharded_reasons.at(tag), count) << tag;
  }
}

TEST(ShardedStoreTest, ShardOfPartitionsUnitsDeterministically) {
  measure::ShardedMeasurementStore store;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    const auto r = MakeRecord(i, 1000 + static_cast<std::uint32_t>(i), "U",
                              60, 10.0);
    const std::size_t shard = store.ShardOf(r.UnitKey());
    EXPECT_EQ(shard, store.ShardOf(r.UnitKey()));
    ASSERT_LT(shard, store.shard_count());
    ASSERT_TRUE(store.Append(shard, r.UnitKey(), r));
  }
  // Every unit's arena entry lives in exactly one shard.
  std::size_t interned = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    interned += store.shard(s).unit_names.size();
  }
  EXPECT_EQ(interned, store.Units().size());
}

TEST(ShardedStoreTest, InternsUnitsAndClampsAttempts) {
  measure::ShardedMeasurementStore store;
  auto r = MakeRecord(1, 3741, "East London", 60, 12.0);
  r.attempts = 1000;
  const std::size_t shard = store.ShardOf(r.UnitKey());
  ASSERT_TRUE(store.Append(shard, r.UnitKey(), r));
  r.id = core::MeasurementId(2);
  r.attempts = 3;
  ASSERT_TRUE(store.Append(shard, r.UnitKey(), r));
  const auto& columns = store.shard(shard);
  ASSERT_EQ(columns.size(), 2u);
  EXPECT_EQ(columns.unit[0], columns.unit[1]);  // interned once
  EXPECT_EQ(columns.unit_names.size(), 1u);
  EXPECT_EQ(columns.attempts[0], 255);
  EXPECT_EQ(columns.attempts[1], 3);
}

TEST(ShardedStoreTest, ToCsvIsDeterministic) {
  auto fill = [](measure::ShardedMeasurementStore& store) {
    for (std::uint64_t i = 1; i <= 30; ++i) {
      const auto r = MakeRecord(i, 3741 + static_cast<std::uint32_t>(i % 4),
                                "City" + std::to_string(i % 4),
                                static_cast<std::int64_t>(i * 30),
                                10.0 + static_cast<double>(i) * 0.25);
      store.Append(store.ShardOf(r.UnitKey()), r.UnitKey(), r);
    }
  };
  measure::ShardedMeasurementStore a, b;
  fill(a);
  fill(b);
  const std::string csv = a.ToCsv();
  EXPECT_EQ(csv, b.ToCsv());
  EXPECT_NE(csv.find("shard,id,time_minutes,unit"), std::string::npos);
}

// ---- IncrementalPanelBuilder vs BuildRttPanel -----------------------------

std::vector<measure::SpeedTestRecord> PanelFixtureRecords() {
  std::vector<measure::SpeedTestRecord> records;
  std::uint64_t id = 1;
  // Two dense units, one sparse (dropped), one entirely out of horizon
  // (empty). Horizon below: 8 periods of 6h = 2880 minutes.
  for (int unit = 0; unit < 2; ++unit) {
    for (int t = 0; t < 48; ++t) {
      records.push_back(MakeRecord(
          id++, 3741 + static_cast<std::uint32_t>(unit), "Dense", t * 60,
          20.0 + unit * 3.0 + 0.1 * static_cast<double>(t % 7)));
    }
  }
  for (int t = 0; t < 3; ++t) {  // sparse: 3 of 8 buckets observed
    records.push_back(
        MakeRecord(id++, 3750, "Sparse", t * 360, 30.0 + t));
  }
  for (int t = 0; t < 4; ++t) {  // beyond period 8
    records.push_back(MakeRecord(id++, 3760, "Late", 3000 + t * 60, 25.0));
  }
  return records;
}

measure::PanelOptions FixtureOptions() {
  measure::PanelOptions options;
  options.bucket = core::SimTime::FromHours(6);
  options.periods = 8;
  return options;
}

TEST(IncrementalPanelBuilderTest, MatchesBatchBuildRttPanel) {
  const auto records = PanelFixtureRecords();
  measure::MeasurementStore store;
  for (const auto& r : records) ASSERT_TRUE(store.Add(r));
  const measure::Panel batch =
      measure::BuildRttPanel(store, FixtureOptions());

  // Streaming: four shards, records arriving in scrambled order.
  auto scrambled = records;
  std::shuffle(scrambled.begin(), scrambled.end(),
               std::mt19937(20260808));
  measure::IncrementalPanelBuilder builder(FixtureOptions(), 4);
  for (const auto& r : scrambled) {
    builder.Observe(builder.ShardOf(r.UnitKey()), r.UnitKey(), r.time,
                    r.rtt_ms, r.id.value());
  }
  const measure::Panel streamed = builder.Finalize();

  EXPECT_EQ(measure::PanelToCsv(streamed), measure::PanelToCsv(batch));
  ASSERT_EQ(streamed.units.size(), batch.units.size());
  ASSERT_EQ(streamed.dropped.size(), batch.dropped.size());
  for (std::size_t u = 0; u < batch.units.size(); ++u) {
    EXPECT_EQ(streamed.units[u].unit, batch.units[u].unit);
    EXPECT_EQ(streamed.units[u].observed, batch.units[u].observed);
    EXPECT_EQ(streamed.units[u].cell_counts, batch.units[u].cell_counts);
    EXPECT_EQ(streamed.units[u].cell_means, batch.units[u].cell_means);
    EXPECT_EQ(streamed.units[u].values, batch.units[u].values);
  }
  // The all-out-of-horizon unit is empty in both paths: neither kept nor
  // listed as a sparsity drop.
  for (const auto& unit : streamed.units) EXPECT_NE(unit.unit, "3760 / Late");
  for (const auto& drop : streamed.dropped) EXPECT_NE(drop.unit, "3760 / Late");
}

TEST(IncrementalPanelBuilderTest, ArrivalOrderIsIrrelevant) {
  const auto records = PanelFixtureRecords();
  std::string reference;
  for (unsigned seed : {1u, 2u, 3u}) {
    auto scrambled = records;
    std::shuffle(scrambled.begin(), scrambled.end(), std::mt19937(seed));
    measure::IncrementalPanelBuilder builder(FixtureOptions(), 3);
    for (const auto& r : scrambled) {
      builder.Observe(builder.ShardOf(r.UnitKey()), r.UnitKey(), r.time,
                      r.rtt_ms, r.id.value());
    }
    const std::string csv = measure::PanelToCsv(builder.Finalize());
    if (reference.empty()) reference = csv;
    EXPECT_EQ(csv, reference) << "seed " << seed;
  }
}

TEST(IncrementalPanelBuilderTest, CountsObservedInHorizonOnly) {
  measure::IncrementalPanelBuilder builder(FixtureOptions(), 1);
  builder.Observe(0, "3741 / Dense", core::SimTime(60), 20.0, 1);
  builder.Observe(0, "3741 / Dense", core::SimTime(5000), 20.0, 2);  // late
  EXPECT_EQ(builder.observed(), 1u);
}

// ---- StreamingCampaign ingest grouping ------------------------------------

// IngestBatch keys each distinct unit once per batch. Whatever the order of
// units within a batch — interleaved record by record, or two units that
// share a city or an ASN — the arenas and panel must equal appending every
// record on its own, with its own key, in batch order.
TEST(StreamingCampaignTest, InterleavedUnitsIngestLikePerRecordAppends) {
  std::vector<measure::PendingRecord> batch;
  const std::pair<std::uint32_t, const char*> units[] = {
      {3741, "East London"}, {3742, "East London"}, {3741, "Durban"},
      {3743, "Pretoria"}, {3742, "East London"}};
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto& [asn, city] = units[i % 5];
    measure::PendingRecord pending;
    pending.record = MakeRecord(i + 1, asn, city,
                                static_cast<std::int64_t>(i * 45),
                                15.0 + static_cast<double>(i % 9));
    if (i == 17) pending.record.rtt_ms = -1.0;  // quarantined
    pending.duplicate = i % 11 == 0;
    batch.push_back(pending);
  }
  measure::StreamingOptions options;
  options.panel = FixtureOptions();
  options.shard_count = 4;

  measure::ShardedMeasurementStore reference({}, options.shard_count);
  measure::IncrementalPanelBuilder reference_panel(options.panel,
                                                   options.shard_count);
  for (const auto& pending : batch) {
    const std::string unit = pending.record.UnitKey();
    const std::size_t shard = reference.ShardOf(unit);
    for (int copy = pending.duplicate ? 2 : 1; copy > 0; --copy) {
      if (reference.Append(shard, unit, pending.record)) {
        reference_panel.Observe(shard, unit, pending.record.time,
                                pending.record.rtt_ms,
                                pending.record.id.value());
      }
    }
  }

  measure::StreamingCampaign campaign({}, options);
  campaign.IngestBatch(batch);
  EXPECT_EQ(campaign.store().ToCsv(), reference.ToCsv());
  EXPECT_EQ(campaign.store().quarantined(), 1u);
  EXPECT_EQ(campaign.store().Units().size(), 4u);
  EXPECT_EQ(measure::PanelToCsv(campaign.FinalizePanel()),
            measure::PanelToCsv(reference_panel.Finalize()));
}

}  // namespace
}  // namespace sisyphus
