// Tests for speed-test execution and the measurement store.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>

#include "core/hash.h"
#include "measure/export.h"
#include "measure/faults.h"
#include "measure/platform.h"
#include "measure/store.h"
#include "netsim/simulator.h"

namespace sisyphus::measure {
namespace {

using core::Asn;
using core::SimTime;
using netsim::AsRole;
using netsim::NetworkSimulator;
using netsim::Relationship;
using netsim::Topology;

struct Fixture {
  std::unique_ptr<NetworkSimulator> sim;
  netsim::PopIndex user = 0, server = 0;
  core::LinkId peering;
  core::IxpId ixp;

  Fixture() {
    Topology topo;
    const auto jnb = topo.cities().Add({"Johannesburg", {-26.2, 28.0}, 2.0});
    user = topo.AddPop(Asn{3741}, jnb, AsRole::kAccess).value();
    const auto transit = topo.AddPop(Asn{2}, jnb, AsRole::kTransit).value();
    server = topo.AddPop(Asn{3}, jnb, AsRole::kMeasurement).value();
    ixp = topo.AddIxp("NAPAfrica-JNB", jnb);
    EXPECT_TRUE(
        topo.AddLink(user, transit, Relationship::kCustomerToProvider).ok());
    EXPECT_TRUE(
        topo.AddLink(server, transit, Relationship::kCustomerToProvider)
            .ok());
    peering =
        topo.AddLink(user, server, Relationship::kPeerToPeer, ixp).value();
    topo.MutableLink(peering).up = false;
    sim = std::make_unique<NetworkSimulator>(std::move(topo));
  }
};

TEST(SpeedTestTest, RecordFieldsPopulated) {
  Fixture f;
  core::Rng rng(1);
  auto record =
      RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
  ASSERT_TRUE(record.ok());
  const auto& r = record.value();
  EXPECT_EQ(r.asn, Asn{3741});
  EXPECT_EQ(r.city, "Johannesburg");
  EXPECT_EQ(r.UnitKey(), "3741 / Johannesburg");
  EXPECT_GT(r.rtt_ms, 0.0);
  EXPECT_GT(r.throughput_mbps, 0.0);
  EXPECT_LT(r.throughput_mbps, 150.0);
  EXPECT_EQ(r.intent, Intent::kBaseline);
  EXPECT_EQ(r.asn_path.size(), 3u);
  EXPECT_EQ(r.traceroute.hops.size(), 3u);
}

TEST(SpeedTestTest, RttIncludesLastMileOverhead) {
  Fixture f;
  core::Rng rng(2);
  auto route = f.sim->RouteBetween(f.user, f.server);
  ASSERT_TRUE(route.ok());
  const double path_rtt =
      f.sim->latency().PathRttMs(route.value(), f.sim->Now());
  double sum = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    sum += record.value().rtt_ms;
  }
  // Mean last-mile overhead ~2 ms plus occasional spikes.
  EXPECT_GT(sum / n, path_rtt + 1.0);
  EXPECT_LT(sum / n, path_rtt + 6.0);
}

TEST(SpeedTestTest, ThroughputDecreasesWithRtt) {
  SpeedTestModelOptions options;
  // Compare two fixtures: one direct, one with a long link.
  Fixture fast;
  core::Rng rng(3);
  // Slow path: add shock... simpler: compare model formula monotonicity
  // through samples at different path RTTs by toggling peering (shorter).
  fast.sim->topology().MutableLink(fast.peering).up = true;
  fast.sim->bgp().InvalidateCache();
  double fast_sum = 0.0, slow_sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    auto record = RunSpeedTest(*fast.sim, fast.user, fast.server,
                               Intent::kBaseline, rng, options);
    ASSERT_TRUE(record.ok());
    fast_sum += record.value().throughput_mbps;
  }
  fast.sim->topology().MutableLink(fast.peering).up = false;
  fast.sim->bgp().InvalidateCache();
  for (int i = 0; i < n; ++i) {
    auto record = RunSpeedTest(*fast.sim, fast.user, fast.server,
                               Intent::kBaseline, rng, options);
    ASSERT_TRUE(record.ok());
    slow_sum += record.value().throughput_mbps;
  }
  EXPECT_GT(fast_sum, slow_sum);
}

TEST(SpeedTestTest, UnreachableDestinationFails) {
  Fixture f;
  // Partition the user.
  for (core::LinkId link : f.sim->topology().LinksOf(f.user)) {
    f.sim->topology().MutableLink(link).up = false;
  }
  f.sim->bgp().InvalidateCache();
  core::Rng rng(4);
  auto record =
      RunSpeedTest(*f.sim, f.user, f.server, Intent::kUserInitiated, rng);
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.error().code(), core::ErrorCode::kNotFound);
}

TEST(IntentTest, NamesStable) {
  EXPECT_STREQ(ToString(Intent::kBaseline), "baseline");
  EXPECT_STREQ(ToString(Intent::kUserInitiated), "user_initiated");
  EXPECT_STREQ(ToString(Intent::kEventTriggered), "event_triggered");
}

TEST(StoreTest, UnitsIndexedAndOrdered) {
  Fixture f;
  core::Rng rng(5);
  MeasurementStore store;
  for (int i = 0; i < 5; ++i) {
    f.sim->AdvanceTo(SimTime::FromHours(static_cast<double>(i + 1)));
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    store.Add(std::move(record).value());
  }
  EXPECT_EQ(store.size(), 5u);
  ASSERT_EQ(store.Units().size(), 1u);
  EXPECT_EQ(store.Units()[0], "3741 / Johannesburg");
  const auto unit_records = store.ForUnit("3741 / Johannesburg");
  ASSERT_EQ(unit_records.size(), 5u);
  for (std::size_t i = 1; i < unit_records.size(); ++i) {
    EXPECT_LE(unit_records[i - 1]->time, unit_records[i]->time);
  }
  EXPECT_TRUE(store.ForUnit("nope").empty());
}

TEST(StoreTest, SelectByPredicate) {
  Fixture f;
  core::Rng rng(6);
  MeasurementStore store;
  for (int i = 0; i < 4; ++i) {
    auto record = RunSpeedTest(*f.sim, f.user, f.server,
                               i % 2 == 0 ? Intent::kBaseline
                                          : Intent::kUserInitiated,
                               rng);
    ASSERT_TRUE(record.ok());
    store.Add(std::move(record).value());
  }
  const auto baseline = store.Select([](const SpeedTestRecord& r) {
    return r.intent == Intent::kBaseline;
  });
  EXPECT_EQ(baseline.size(), 2u);
}

TEST(StoreTest, FirstIxpCrossingDetectsTreatmentOnset) {
  Fixture f;
  core::Rng rng(7);
  MeasurementStore store;
  // Two pre-treatment tests.
  for (int i = 0; i < 2; ++i) {
    f.sim->AdvanceTo(SimTime::FromHours(static_cast<double>(i + 1)));
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    store.Add(std::move(record).value());
  }
  // Peering turns up at t = 3h.
  f.sim->AdvanceTo(SimTime::FromHours(3.0));
  f.sim->topology().MutableLink(f.peering).up = true;
  f.sim->bgp().InvalidateCache();
  for (int i = 0; i < 2; ++i) {
    f.sim->AdvanceTo(SimTime::FromHours(4.0 + i));
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    store.Add(std::move(record).value());
  }
  const auto& topo = f.sim->topology();
  const auto first =
      store.FirstIxpCrossing(topo, "3741 / Johannesburg", f.ixp);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, SimTime::FromHours(4.0));
  // Crossing share: 0 before, 1 after.
  EXPECT_DOUBLE_EQ(store.IxpCrossingShare(topo, "3741 / Johannesburg", f.ixp,
                                          SimTime(0), SimTime::FromHours(3.0)),
                   0.0);
  EXPECT_DOUBLE_EQ(
      store.IxpCrossingShare(topo, "3741 / Johannesburg", f.ixp,
                             SimTime::FromHours(3.5), SimTime::FromHours(6.0)),
      1.0);
  // Empty window: share 0.
  EXPECT_DOUBLE_EQ(
      store.IxpCrossingShare(topo, "3741 / Johannesburg", f.ixp,
                             SimTime::FromHours(50), SimTime::FromHours(60)),
      0.0);
}

// ---- Validating ingest / quarantine ---------------------------------------

SpeedTestRecord PlausibleRecord() {
  SpeedTestRecord record;
  record.time = SimTime::FromHours(3);
  record.asn = Asn{100};
  record.city = "X";
  record.rtt_ms = 20.0;
  record.loss_rate = 0.01;
  record.throughput_mbps = 50.0;
  return record;
}

TEST(StoreValidationTest, ValidateRecordCatchesEachDefect) {
  EXPECT_TRUE(ValidateRecord(PlausibleRecord()).ok());

  auto negative_rtt = PlausibleRecord();
  negative_rtt.rtt_ms = -5.0;
  EXPECT_FALSE(ValidateRecord(negative_rtt).ok());

  auto huge_rtt = PlausibleRecord();
  huge_rtt.rtt_ms = 1e9;
  EXPECT_FALSE(ValidateRecord(huge_rtt).ok());

  auto impossible_loss = PlausibleRecord();
  impossible_loss.loss_rate = 2.0;
  EXPECT_FALSE(ValidateRecord(impossible_loss).ok());

  auto nan_throughput = PlausibleRecord();
  nan_throughput.throughput_mbps =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateRecord(nan_throughput).ok());

  auto pre_epoch = PlausibleRecord();
  pre_epoch.time = SimTime(-10);
  EXPECT_FALSE(ValidateRecord(pre_epoch).ok());

  StoreValidationOptions window;
  window.max_time = SimTime::FromHours(1);
  EXPECT_FALSE(ValidateRecord(PlausibleRecord(), window).ok());
}

TEST(StoreValidationTest, CorruptRecordsQuarantinedWithReason) {
  MeasurementStore store;
  store.Add(PlausibleRecord());

  auto negative_rtt = PlausibleRecord();
  negative_rtt.rtt_ms = -1.0;
  store.Add(negative_rtt);

  auto pre_epoch = PlausibleRecord();
  pre_epoch.time = SimTime(-99);
  store.Add(pre_epoch);

  EXPECT_EQ(store.size(), 1u);
  ASSERT_EQ(store.quarantine().size(), 2u);
  EXPECT_NE(store.quarantine()[0].reason.find("rtt"), std::string::npos);
  EXPECT_NE(store.quarantine()[1].reason.find("timestamp"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(store.quarantine()[0].record.rtt_ms, -1.0);
  // Quarantined units never surface in queries.
  for (const auto& record : store.records()) {
    EXPECT_TRUE(ValidateRecord(record).ok());
  }
}

TEST(StoreValidationTest, CustomBoundsRespected) {
  StoreValidationOptions validation;
  validation.max_rtt_ms = 100.0;
  validation.min_time = SimTime::FromHours(1);
  validation.max_time = SimTime::FromHours(10);
  MeasurementStore store(validation);

  auto ok_record = PlausibleRecord();
  store.Add(ok_record);

  auto slow = PlausibleRecord();
  slow.rtt_ms = 500.0;  // valid by default bounds, not by these
  store.Add(slow);

  auto late = PlausibleRecord();
  late.time = SimTime::FromHours(11);
  store.Add(late);

  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.quarantine().size(), 2u);
}

// ---- Probe-path resolution ------------------------------------------------

/// The speed test as one function over a fresh route lookup, written out
/// independently of ResolveProbePath/SampleSpeedTest: LatencyModel's own
/// SampleRttMs and PathLossRate, then last mile, spike and throughput noise.
SpeedTestRecord ReferenceSpeedTest(NetworkSimulator& sim,
                                   netsim::PopIndex vantage,
                                   netsim::PopIndex server, Intent intent,
                                   core::Rng& rng,
                                   const SpeedTestModelOptions& options,
                                   netsim::AddressFamily af) {
  const netsim::BgpRoute route = sim.RouteBetween(vantage, server, af).value();
  SpeedTestRecord record;
  record.time = sim.Now();
  const auto& pop = sim.topology().GetPop(vantage);
  record.asn = pop.asn;
  record.city = sim.topology().cities().Get(pop.city).name;
  record.vantage_pop = vantage;
  record.server_pop = server;
  record.intent = intent;
  record.address_family = af;
  const double path_rtt = sim.latency().SampleRttMs(route, sim.Now(), rng);
  double last_mile = std::max(
      0.2, rng.Gaussian(options.last_mile_base_ms, options.last_mile_sd_ms));
  if (rng.Bernoulli(options.spike_probability)) {
    last_mile += rng.Exponential(1.0 / options.spike_scale_ms);
  }
  record.rtt_ms = path_rtt + last_mile;
  record.loss_rate = sim.latency().PathLossRate(route, sim.Now());
  const double access_limit = options.access_capacity_mbps /
                              (1.0 + record.rtt_ms / options.rtt_half_ms);
  const double mathis_limit_mbps =
      options.mathis_constant * options.mss_bytes * 8.0 /
      (record.rtt_ms / 1000.0 *
       std::sqrt(std::max(record.loss_rate, 1e-6))) /
      1e6;
  record.throughput_mbps =
      std::min(access_limit, mathis_limit_mbps) *
      std::exp(rng.Gaussian(0.0, options.throughput_noise_sigma));
  record.traceroute = SimulateTraceroute(sim.topology(), route);
  record.asn_path = route.asn_path;
  return record;
}

/// Every field but the id, compared exactly (doubles bit for bit).
void ExpectSameRecord(const SpeedTestRecord& a, const SpeedTestRecord& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.asn, b.asn);
  EXPECT_EQ(a.city, b.city);
  EXPECT_EQ(a.vantage_pop, b.vantage_pop);
  EXPECT_EQ(a.server_pop, b.server_pop);
  EXPECT_EQ(std::memcmp(&a.rtt_ms, &b.rtt_ms, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.loss_rate, &b.loss_rate, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.throughput_mbps, &b.throughput_mbps,
                        sizeof(double)),
            0);
  EXPECT_EQ(a.intent, b.intent);
  EXPECT_EQ(a.address_family, b.address_family);
  EXPECT_EQ(a.attempts, b.attempts);
  ASSERT_EQ(a.traceroute.hops.size(), b.traceroute.hops.size());
  for (std::size_t h = 0; h < a.traceroute.hops.size(); ++h) {
    EXPECT_EQ(a.traceroute.hops[h].address, b.traceroute.hops[h].address);
    EXPECT_EQ(a.traceroute.hops[h].asn, b.traceroute.hops[h].asn);
    EXPECT_EQ(a.traceroute.hops[h].pop, b.traceroute.hops[h].pop);
  }
  EXPECT_EQ(a.asn_path, b.asn_path);
}

/// A user dual-homed to two transits; only one carries IPv6, and IPv4
/// prefers the other, so the two families take different paths.
struct DualStackFixture {
  std::unique_ptr<NetworkSimulator> sim;
  netsim::PopIndex user = 0, server = 0;

  DualStackFixture() {
    Topology topo;
    const auto jnb = topo.cities().Add({"Johannesburg", {-26.2, 28.0}, 2.0});
    user = topo.AddPop(Asn{3741}, jnb, AsRole::kAccess).value();
    const auto v4_transit = topo.AddPop(Asn{20}, jnb, AsRole::kTransit).value();
    const auto v6_transit = topo.AddPop(Asn{30}, jnb, AsRole::kTransit).value();
    server = topo.AddPop(Asn{3}, jnb, AsRole::kMeasurement).value();
    const auto a =
        topo.AddLink(user, v4_transit, Relationship::kCustomerToProvider);
    EXPECT_TRUE(
        topo.AddLink(user, v6_transit, Relationship::kCustomerToProvider)
            .ok());
    const auto b =
        topo.AddLink(server, v4_transit, Relationship::kCustomerToProvider);
    EXPECT_TRUE(
        topo.AddLink(server, v6_transit, Relationship::kCustomerToProvider)
            .ok());
    topo.MutableLink(a.value()).ipv6 = false;
    topo.MutableLink(b.value()).ipv6 = false;
    sim = std::make_unique<NetworkSimulator>(std::move(topo));
  }
};

TEST(ProbePathTest, ResolveThenSampleEqualsRunSpeedTestBitForBit) {
  DualStackFixture f;
  f.sim->AdvanceTo(SimTime::FromHours(13));  // a non-trivial diurnal load
  const SpeedTestModelOptions options;
  for (const auto af :
       {netsim::AddressFamily::kIpv4, netsim::AddressFamily::kIpv6}) {
    core::Rng run_rng(99), split_rng(99), reference_rng(99);
    auto path = ResolveProbePath(*f.sim, f.user, f.server, af);
    ASSERT_TRUE(path.ok());
    std::uint64_t last_id = 0;
    for (int i = 0; i < 200; ++i) {
      const Intent intent = i % 3 == 0 ? Intent::kUserInitiated
                                       : Intent::kBaseline;
      auto run =
          RunSpeedTest(*f.sim, f.user, f.server, intent, run_rng, options, af);
      ASSERT_TRUE(run.ok());
      const SpeedTestRecord split =
          SampleSpeedTest(path.value(), intent, split_rng, options);
      const SpeedTestRecord reference = ReferenceSpeedTest(
          *f.sim, f.user, f.server, intent, reference_rng, options, af);
      ExpectSameRecord(run.value(), reference);
      ExpectSameRecord(split, reference);
      // RunSpeedTest still hands out process-unique ids; the sampled
      // record leaves the id to the platform's merge.
      EXPECT_GT(run.value().id.value(), last_id);
      last_id = run.value().id.value();
      EXPECT_EQ(split.id.value(), 0u);
    }
    // Same draws, same order: the three streams end aligned.
    const std::uint64_t next = reference_rng.Next();
    EXPECT_EQ(run_rng.Next(), next);
    EXPECT_EQ(split_rng.Next(), next);
  }
  // The families really took different paths.
  EXPECT_NE(ResolveProbePath(*f.sim, f.user, f.server,
                             netsim::AddressFamily::kIpv4)
                .value()
                .asn_path,
            ResolveProbePath(*f.sim, f.user, f.server,
                             netsim::AddressFamily::kIpv6)
                .value()
                .asn_path);
}

/// Platform failure provenance must not depend on where the path is
/// resolved: an unreachable vantage fails at the attempt that first gets
/// past the dark and probe-loss checks, a dark vantage after max_attempts.
/// The pinned histogram and archive digest were taken from the platform
/// as it was when every probe looked its route up itself.
TEST(ProbePathTest, UnreachableAndDarkVantagesKeepFailureProvenance) {
  Topology topo;
  const auto jnb = topo.cities().Add({"Johannesburg", {-26.2, 28.0}, 2.0});
  const auto user = topo.AddPop(Asn{3741}, jnb, AsRole::kAccess).value();
  const auto dark = topo.AddPop(Asn{3742}, jnb, AsRole::kAccess).value();
  const auto island = topo.AddPop(Asn{3743}, jnb, AsRole::kAccess).value();
  const auto transit = topo.AddPop(Asn{2}, jnb, AsRole::kTransit).value();
  const auto server = topo.AddPop(Asn{3}, jnb, AsRole::kMeasurement).value();
  for (const auto pop : {user, dark, server}) {
    ASSERT_TRUE(
        topo.AddLink(pop, transit, Relationship::kCustomerToProvider).ok());
  }
  NetworkSimulator sim(std::move(topo));
  const auto no_route = ResolveProbePath(sim, island, server);
  ASSERT_FALSE(no_route.ok());
  EXPECT_EQ(no_route.error().code(), core::ErrorCode::kNotFound);

  PlatformOptions options;
  options.server = server;
  Platform platform(sim, options);
  for (const auto pop : {user, dark, island}) {
    VantageConfig vantage;
    vantage.pop = pop;
    vantage.baseline_tests_per_day = 24.0;
    vantage.user_tests_per_day = 6.0;
    platform.AddVantage(vantage);
  }
  FaultPlan plan;
  plan.seed = 11;
  plan.probe_loss_probability = 0.3;
  plan.vantage_outages.push_back(
      {dark, {{SimTime::FromHours(6), SimTime::FromHours(30)}}});
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  core::Rng rng(31);
  platform.Run(SimTime::FromDays(2), rng);

  using Key = std::tuple<netsim::PopIndex, ProbeFault, std::uint32_t>;
  std::map<Key, std::size_t> histogram;
  for (const ProbeFailure& failure : platform.failures()) {
    ++histogram[{failure.vantage, failure.reason, failure.attempts}];
  }
  const std::map<Key, std::size_t> expected = {
      {{user, ProbeFault::kProbeLoss, 3}, 2},
      {{dark, ProbeFault::kVantageOutage, 3}, 44},
      {{island, ProbeFault::kProbeLoss, 3}, 1},
      {{island, ProbeFault::kUnreachable, 1}, 32},
      {{island, ProbeFault::kUnreachable, 2}, 14},
      {{island, ProbeFault::kUnreachable, 3}, 5},
  };
  EXPECT_EQ(histogram, expected);
  EXPECT_EQ(platform.store().size(), 110u);
  EXPECT_EQ(core::Fnv1a64(StoreToCsv(platform.store())),
            15100067749409693610ull);
}

}  // namespace
}  // namespace sisyphus::measure
