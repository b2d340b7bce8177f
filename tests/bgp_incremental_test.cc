// Tests for incremental BGP route maintenance (DESIGN.md §14): frontier
// repair vs from-scratch parity under randomized event sequences (link
// flaps, local-pref overrides, poison set/clear interleaved), scoped
// link-down invalidation via the reverse index, thread-count invariance
// of route tables and cache hit/miss metrics, the RecomputeFrom repair
// API, and the SISYPHUS_BGP_CHECK differential mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "netsim/bgp.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"

namespace sisyphus::netsim {
namespace {

/// False under SISYPHUS_OBS=OFF, where the metric macros are compiled out
/// and every counter reads 0: assertions on counter values are skipped
/// there, the rest of each test still runs.
#if defined(SISYPHUS_OBS_DISABLED)
constexpr bool kMetricsCompiledIn = false;
#else
constexpr bool kMetricsCompiledIn = true;
#endif

using core::Asn;
using core::LinkId;
using core::Rng;

/// Random 3-tier topology (as in bgp_test's valley-free sweep), with a
/// few v4-only links so the IPv6 fixed point differs from the IPv4 one.
Topology RandomTopology(Rng& rng) {
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  std::vector<PopIndex> tier1, tier2;
  std::uint32_t asn = 1;
  for (int i = 0; i < 4; ++i) {
    tier1.push_back(topo.AddPop(Asn{asn++}, city, AsRole::kTransit).value());
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      EXPECT_TRUE(
          topo.AddLink(tier1[i], tier1[j], Relationship::kPeerToPeer).ok());
    }
  }
  for (int i = 0; i < 5; ++i) {
    const auto node = topo.AddPop(Asn{asn++}, city, AsRole::kTransit).value();
    tier2.push_back(node);
    const auto up = static_cast<std::size_t>(rng.UniformInt(0, 3));
    EXPECT_TRUE(
        topo.AddLink(node, tier1[up], Relationship::kCustomerToProvider).ok());
    if (rng.Bernoulli(0.5)) {
      EXPECT_TRUE(topo.AddLink(node, tier1[(up + 1) % 4],
                               Relationship::kCustomerToProvider)
                      .ok());
    }
  }
  for (std::size_t i = 0; i + 1 < tier2.size(); i += 2) {
    EXPECT_TRUE(
        topo.AddLink(tier2[i], tier2[i + 1], Relationship::kPeerToPeer).ok());
  }
  for (int i = 0; i < 12; ++i) {
    const auto node = topo.AddPop(Asn{asn++}, city, AsRole::kAccess).value();
    const auto up = static_cast<std::size_t>(rng.UniformInt(0, 4));
    EXPECT_TRUE(
        topo.AddLink(node, tier2[up], Relationship::kCustomerToProvider).ok());
    if (rng.Bernoulli(0.3)) {
      EXPECT_TRUE(topo.AddLink(node, tier2[(up + 2) % 5],
                               Relationship::kCustomerToProvider)
                      .ok());
    }
  }
  for (LinkId link{0}; link.value() < topo.LinkCount();
       link = LinkId{link.value() + 1}) {
    if (rng.Bernoulli(0.2)) topo.MutableLink(link).ipv6 = false;
  }
  return topo;
}

std::vector<PopIndex> AllPops(const Topology& topo) {
  std::vector<PopIndex> all;
  for (PopIndex p = 0; p < topo.PopCount(); ++p) all.push_back(p);
  return all;
}

/// Externally tracked policy state, replayed onto fresh reference
/// simulators so the scratch fixed point uses identical inputs.
struct PolicyState {
  std::map<std::pair<PopIndex, LinkId>, double> prefs;
  std::map<PopIndex, std::set<Asn>> poisons;

  void ApplyTo(BgpSimulator& bgp) const {
    for (const auto& [key, delta] : prefs) {
      bgp.SetLocalPrefOverride(key.first, key.second, delta);
    }
    for (const auto& [destination, asns] : poisons) {
      bgp.SetPoisonedAsns(destination, asns);
    }
  }
};

/// One scripted mutation (kinds interleaved by the seeded rng), applied
/// through the incremental API and mirrored into `state`.
void ApplyScriptedEvent(Rng& rng, Topology& topo, BgpSimulator& bgp,
                        PolicyState& state) {
  const auto n_links = static_cast<std::int64_t>(topo.LinkCount());
  const auto n_pops = static_cast<std::int64_t>(topo.PopCount());
  switch (rng.UniformInt(0, 5)) {
    case 0: {  // link down (flap if already down)
      const LinkId link{
          static_cast<std::uint32_t>(rng.UniformInt(0, n_links - 1))};
      topo.MutableLink(link).up = false;
      bgp.ApplyLinkEvent(link);
      break;
    }
    case 1: {  // link up
      const LinkId link{
          static_cast<std::uint32_t>(rng.UniformInt(0, n_links - 1))};
      topo.MutableLink(link).up = true;
      bgp.ApplyLinkEvent(link);
      break;
    }
    case 2: {  // local-pref override on a random incident (pop, link)
      const auto pop =
          static_cast<PopIndex>(rng.UniformInt(0, n_pops - 1));
      const auto& links = topo.LinksOf(pop);
      if (links.empty()) break;
      const LinkId link = links[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(links.size()) - 1))];
      const double delta = rng.Bernoulli(0.5) ? -150.0 : 150.0;
      state.prefs[{pop, link}] = delta;
      bgp.SetLocalPrefOverride(pop, link, delta);
      break;
    }
    case 3: {  // clear one override (no-op when none)
      if (state.prefs.empty()) break;
      auto it = state.prefs.begin();
      std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(
                                             state.prefs.size()) -
                                             1));
      bgp.ClearLocalPrefOverride(it->first.first, it->first.second);
      state.prefs.erase(it);
      break;
    }
    case 4: {  // poison 1-2 transit ASNs from a random origin
      const auto destination =
          static_cast<PopIndex>(rng.UniformInt(0, n_pops - 1));
      std::set<Asn> asns;
      asns.insert(Asn{static_cast<std::uint32_t>(rng.UniformInt(1, 9))});
      if (rng.Bernoulli(0.5)) {
        asns.insert(Asn{static_cast<std::uint32_t>(rng.UniformInt(1, 9))});
      }
      state.poisons[destination] = asns;
      bgp.SetPoisonedAsns(destination, asns);
      break;
    }
    case 5: {  // clear a poison set (no-op when none)
      if (state.poisons.empty()) break;
      auto it = state.poisons.begin();
      std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(
                                             state.poisons.size()) -
                                             1));
      bgp.ClearPoisonedAsns(it->first);
      state.poisons.erase(it);
      break;
    }
  }
}

// ---- Randomized event-sequence parity ---------------------------------------

class BgpIncrementalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BgpIncrementalPropertyTest, EventSequenceMatchesScratch) {
  Rng topo_rng(static_cast<std::uint64_t>(GetParam()));
  Topology topo = RandomTopology(topo_rng);
  const auto destinations = AllPops(topo);

  BgpSimulator incremental(topo);
  incremental.WarmRoutes(destinations);
  incremental.WarmRoutes(destinations, AddressFamily::kIpv6);
  PolicyState state;

  Rng script_rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  for (int step = 0; step < 40; ++step) {
    ApplyScriptedEvent(script_rng, topo, incremental, state);
    // Poison events drop that destination's tables; rewarm so every
    // destination is compared on every step.
    incremental.WarmRoutes(destinations);
    incremental.WarmRoutes(destinations, AddressFamily::kIpv6);

    // Reference: a cold simulator over the mutated topology with the same
    // policy state converges from scratch.
    BgpSimulator scratch(topo);
    state.ApplyTo(scratch);
    for (PopIndex destination : destinations) {
      EXPECT_TRUE(SameRoutes(incremental.RoutesTo(destination),
                             scratch.RoutesTo(destination)))
          << "ipv4 divergence at step " << step << " destination "
          << topo.GetPop(destination).label;
      EXPECT_TRUE(
          SameRoutes(incremental.RoutesTo(destination, AddressFamily::kIpv6),
                     scratch.RoutesTo(destination, AddressFamily::kIpv6)))
          << "ipv6 divergence at step " << step << " destination "
          << topo.GetPop(destination).label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpIncrementalPropertyTest,
                         ::testing::Range(1, 7));

// ---- Thread-count invariance ------------------------------------------------

struct RunResult {
  std::vector<RouteTable> tables;
  std::map<std::string, std::uint64_t> counters;
};

RunResult RunScriptedCampaign(int seed, std::size_t threads) {
  core::ThreadPool::SetGlobalThreadCount(threads);
  obs::Registry::Enable(true);
  obs::Registry::Global().ResetAll();

  Rng topo_rng(static_cast<std::uint64_t>(seed));
  Topology topo = RandomTopology(topo_rng);
  const auto destinations = AllPops(topo);
  BgpSimulator bgp(topo);
  bgp.WarmRoutes(destinations);
  PolicyState state;
  Rng script_rng(static_cast<std::uint64_t>(seed) * 977 + 13);
  for (int step = 0; step < 30; ++step) {
    ApplyScriptedEvent(script_rng, topo, bgp, state);
    bgp.WarmRoutes(destinations);
    for (PopIndex destination : destinations) {
      (void)bgp.Route(0, destination);
    }
  }

  RunResult result;
  for (PopIndex destination : destinations) {
    result.tables.push_back(bgp.RoutesTo(destination));
  }
  for (const char* name :
       {"netsim.bgp.route_cache_hits", "netsim.bgp.route_cache_misses",
        "netsim.bgp.invalidated_destinations",
        "netsim.bgp.retained_destinations", "netsim.bgp.frontier_pops",
        "netsim.bgp.tables_computed"}) {
    result.counters[name] = obs::Registry::Global().CounterValue(name);
  }
  obs::Registry::Global().ResetAll();
  obs::Registry::Enable(false);
  core::ThreadPool::SetGlobalThreadCount(0);
  return result;
}

TEST(BgpIncrementalThreadsTest, TablesAndCacheMetricsInvariantAcrossLanes) {
  const RunResult serial = RunScriptedCampaign(5, 1);
  const RunResult wide = RunScriptedCampaign(5, 8);
  ASSERT_EQ(serial.tables.size(), wide.tables.size());
  for (std::size_t i = 0; i < serial.tables.size(); ++i) {
    EXPECT_TRUE(SameRoutes(serial.tables[i], wide.tables[i]));
  }
  // Cache behaviour — including how much work each event caused — must
  // not leak the execution strategy.
  EXPECT_EQ(serial.counters, wide.counters);
  if (kMetricsCompiledIn) {
    EXPECT_GT(wide.counters.at("netsim.bgp.retained_destinations"), 0u);
  }
}

// ---- Link-down scoping via the reverse index --------------------------------

TEST(BgpIncrementalTest, LinkDownRepairsOnlyTraversingCone) {
  // Valley-free export keeps a peer link between two access PoPs out of
  // every table except the ones destined to those PoPs themselves: a1-a2
  // is a1's best first hop towards a2 (peer beats the provider detour via
  // t1-p-t2) but can never carry transit. Killing it must repair a2's
  // table and leave p's untouched.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto p = topo.AddPop(Asn{1}, city, AsRole::kTransit).value();
  const auto t1 = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
  const auto t2 = topo.AddPop(Asn{3}, city, AsRole::kTransit).value();
  const auto a1 = topo.AddPop(Asn{4}, city, AsRole::kAccess).value();
  const auto a2 = topo.AddPop(Asn{5}, city, AsRole::kAccess).value();
  ASSERT_TRUE(topo.AddLink(t1, p, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(t2, p, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(a1, t1, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(a2, t2, Relationship::kCustomerToProvider).ok());
  const auto a1_a2 =
      topo.AddLink(a1, a2, Relationship::kPeerToPeer).value();

  obs::Registry::Enable(true);
  obs::Registry::Global().ResetAll();
  BgpSimulator bgp(topo);
  bgp.WarmRoutes({a2, p});
  ASSERT_EQ(bgp.CachedTableCount(), 2u);
  {
    auto direct = bgp.Route(a1, a2);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct.value().cls, RouteClass::kPeer);
    ASSERT_EQ(direct.value().pop_path.size(), 2u);
  }

  topo.MutableLink(a1_a2).up = false;
  bgp.ApplyLinkEvent(a1_a2);
  // Only a2's table traverses the link: one repaired, one retained.
  if (kMetricsCompiledIn) {
    EXPECT_EQ(obs::Registry::Global().CounterValue(
                  "netsim.bgp.invalidated_destinations"),
              1u);
    EXPECT_EQ(obs::Registry::Global().CounterValue(
                  "netsim.bgp.retained_destinations"),
              1u);
  }
  obs::Registry::Global().ResetAll();
  obs::Registry::Enable(false);

  auto detour = bgp.Route(a1, a2);  // falls back to the provider detour
  ASSERT_TRUE(detour.ok());
  EXPECT_EQ(detour.value().cls, RouteClass::kProvider);
  EXPECT_EQ(detour.value().pop_path.size(), 5u);
  BgpSimulator scratch(topo);
  EXPECT_TRUE(SameRoutes(bgp.RoutesTo(a2), scratch.RoutesTo(a2)));
  EXPECT_TRUE(SameRoutes(bgp.RoutesTo(p), scratch.RoutesTo(p)));
}

// ---- RecomputeFrom repair API -----------------------------------------------

TEST(BgpIncrementalTest, RecomputeFromRepairsStaleTableInPlace) {
  Rng rng(42);
  Topology topo = RandomTopology(rng);
  BgpSimulator bgp(topo);
  const PopIndex destination = static_cast<PopIndex>(topo.PopCount() - 1);
  RouteTable stale = bgp.RoutesTo(destination);  // converged copy

  // Take down the stale table's own first-hop link somewhere in the cone.
  const auto& links = topo.LinksOf(destination);
  ASSERT_FALSE(links.empty());
  const LinkId cut = links[0];
  topo.MutableLink(cut).up = false;

  const RepairStats stats = bgp.RecomputeFrom(stale, {cut});
  EXPECT_FALSE(stats.fell_back);
  EXPECT_GT(stats.pops_recomputed, 0u);
  EXPECT_LE(stats.rounds, topo.PopCount() + 2);
  BgpSimulator scratch(topo);
  const RouteTable& fresh = scratch.RoutesTo(destination);
  EXPECT_TRUE(SameRoutes(stale, fresh));
}

TEST(BgpIncrementalTest, RecomputeFromNoOpWhenLinkUnused) {
  // Flipping a link no cached route traverses must confirm convergence
  // after only the two endpoint re-evaluations.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto p = topo.AddPop(Asn{1}, city, AsRole::kTransit).value();
  const auto a = topo.AddPop(Asn{2}, city, AsRole::kAccess).value();
  const auto b = topo.AddPop(Asn{3}, city, AsRole::kAccess).value();
  ASSERT_TRUE(topo.AddLink(a, p, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(b, p, Relationship::kCustomerToProvider).ok());
  const auto a_b = topo.AddLink(a, b, Relationship::kPeerToPeer).value();

  BgpSimulator bgp(topo);
  RouteTable table = bgp.RoutesTo(p);  // a and b route straight up to p
  topo.MutableLink(a_b).up = false;
  const RepairStats stats = bgp.RecomputeFrom(table, {a_b});
  EXPECT_FALSE(stats.changed);
  EXPECT_EQ(stats.pops_recomputed, 2u);  // just the endpoints
  EXPECT_EQ(stats.rounds, 1u);
}

// ---- Differential check mode ------------------------------------------------

TEST(BgpIncrementalTest, DifferentialCheckModeAcceptsRepairs) {
  BgpSimulator::SetDifferentialCheckForTest(1);
  Rng rng(7);
  Topology topo = RandomTopology(rng);
  BgpSimulator bgp(topo);
  bgp.WarmRoutes(AllPops(topo));
  PolicyState state;
  Rng script_rng(99);
  for (int step = 0; step < 15; ++step) {
    // Every repair re-verifies the full cache against scratch internally;
    // any divergence throws std::logic_error.
    ASSERT_NO_THROW(ApplyScriptedEvent(script_rng, topo, bgp, state));
  }
  BgpSimulator::SetDifferentialCheckForTest(-1);
}

// ---- Simulator-level event parity -------------------------------------------

TEST(BgpIncrementalTest, SimulatorEventsProduceScratchIdenticalRoutes) {
  // Drive all routing-relevant event types through
  // NetworkSimulator::ApplyNow and compare against cold convergence.
  Rng rng(3);
  Topology reference_topo = RandomTopology(rng);
  Topology topo = reference_topo;  // simulator takes ownership of a copy
  NetworkSimulator sim(std::move(topo));
  const auto destinations = AllPops(reference_topo);
  sim.WarmRoutes(destinations);

  const LinkId flap{0};
  NetworkEvent down;
  down.type = EventType::kLinkDown;
  down.link = flap;
  sim.ApplyNow(down);
  NetworkEvent pref;
  pref.type = EventType::kLocalPrefChange;
  pref.pop = sim.topology().GetLink(flap).a;
  pref.link = sim.topology().LinksOf(pref.pop)[0];
  pref.pref_delta = -150.0;
  sim.ApplyNow(pref);
  NetworkEvent up;
  up.type = EventType::kLinkUp;
  up.link = flap;
  sim.ApplyNow(up);
  sim.WarmRoutes(destinations);

  BgpSimulator scratch(sim.topology());
  scratch.SetLocalPrefOverride(pref.pop, *pref.link, pref.pref_delta);
  for (PopIndex destination : destinations) {
    auto incremental = sim.RouteBetween(0, destination);
    auto cold = scratch.Route(0, destination);
    ASSERT_EQ(incremental.ok(), cold.ok());
    if (incremental.ok()) {
      EXPECT_TRUE(incremental.value() == cold.value());
    }
  }
}

}  // namespace
}  // namespace sisyphus::netsim
