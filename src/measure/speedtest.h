// Speed tests: the measurement primitive of the Table 1 case study.
//
// A speed test records RTT and throughput between a vantage point (user
// behind an access ⟨ASN, city⟩ PoP) and a measurement server, plus the
// traceroute triggered after the test (as M-Lab does). Every record
// carries an intent tag — one of the paper's §4 platform proposals — so
// analysts can condition on *why* a measurement exists and avoid collider
// bias when they must.
#pragma once

#include <string>
#include <vector>

#include "core/ids.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "measure/traceroute.h"
#include "netsim/simulator.h"

namespace sisyphus::measure {

/// Why a measurement was taken (§4 proposal 2: intent tagging).
enum class Intent {
  kBaseline,        ///< scheduled, state-independent (exogenous timing)
  kUserInitiated,   ///< user ran a test — more likely when things look bad
  kEventTriggered,  ///< platform reacted to an external signal (BGP change)
};

const char* ToString(Intent intent);

struct SpeedTestRecord {
  core::MeasurementId id;
  core::SimTime time;
  core::Asn asn;               ///< vantage ASN
  std::string city;            ///< vantage city name
  netsim::PopIndex vantage_pop = 0;
  netsim::PopIndex server_pop = 0;
  double rtt_ms = 0.0;
  double loss_rate = 0.0;  ///< end-to-end path loss during the test
  double throughput_mbps = 0.0;
  Intent intent = Intent::kBaseline;
  netsim::AddressFamily address_family = netsim::AddressFamily::kIpv4;
  /// Probe attempts consumed before this record existed (1 = first try).
  /// Extends §4 intent tagging to *failure* provenance: analysts can see
  /// that a record only exists because the platform retried through loss.
  std::uint32_t attempts = 1;
  Traceroute traceroute;
  std::vector<core::Asn> asn_path;

  /// ⟨ASN, city⟩ unit key, e.g. "3741 / East London".
  std::string UnitKey() const;
};

struct SpeedTestModelOptions {
  /// Last-mile access overhead added to the path RTT (WiFi, DSLAM...).
  double last_mile_base_ms = 2.0;
  double last_mile_sd_ms = 0.8;
  /// Probability a test hits a transient last-mile spike, and its scale.
  double spike_probability = 0.03;
  double spike_scale_ms = 25.0;
  /// Bottleneck throughput model: the minimum of an access-capacity
  /// curve capacity / (1 + rtt/rtt_half) and a Mathis-style single-flow
  /// TCP limit mss_bits * C / (rtt * sqrt(loss)).
  double access_capacity_mbps = 95.0;
  double rtt_half_ms = 120.0;
  double throughput_noise_sigma = 0.15;
  double mathis_constant = 1.22;
  double mss_bytes = 1460.0;
};

/// Everything a speed test between a vantage and a server measures that
/// cannot change before the simulator next advances: the vantage's unit,
/// the converged route's mean RTT and loss at Now(), and the traceroute
/// and AS path along it. The platform resolves one per vantage per step
/// and samples every test of that step from it (DESIGN.md §10).
struct ProbePath {
  core::SimTime time;
  core::Asn asn;
  std::string city;
  netsim::PopIndex vantage_pop = 0;
  netsim::PopIndex server_pop = 0;
  netsim::AddressFamily address_family = netsim::AddressFamily::kIpv4;
  double mean_rtt_ms = 0.0;   ///< LatencyModel::PathRttMs (no jitter)
  double loss_rate = 0.0;     ///< LatencyModel::PathLossRate
  double jitter_sigma = 0.0;  ///< LatencyModelOptions::jitter_sigma
  Traceroute traceroute;
  std::vector<core::Asn> asn_path;
};

/// Looks up the current route and resolves its ProbePath. Fails
/// (kNotFound) when the vantage cannot reach the server. Draws nothing.
core::Result<ProbePath> ResolveProbePath(
    netsim::NetworkSimulator& simulator, netsim::PopIndex vantage,
    netsim::PopIndex server,
    netsim::AddressFamily af = netsim::AddressFamily::kIpv4);

/// One speed test over a resolved path: draws path jitter, last mile,
/// spike and throughput noise from `rng`, in that order. The record's id
/// is left unset (the platform assigns ids at merge time).
SpeedTestRecord SampleSpeedTest(const ProbePath& path, Intent intent,
                                core::Rng& rng,
                                const SpeedTestModelOptions& options = {});

/// Executes one speed test right now: ResolveProbePath, then
/// SampleSpeedTest, with a process-unique id. Fails (kNotFound) when the
/// vantage cannot reach the server.
core::Result<SpeedTestRecord> RunSpeedTest(
    netsim::NetworkSimulator& simulator, netsim::PopIndex vantage,
    netsim::PopIndex server, Intent intent, core::Rng& rng,
    const SpeedTestModelOptions& options = {},
    netsim::AddressFamily af = netsim::AddressFamily::kIpv4);

}  // namespace sisyphus::measure
