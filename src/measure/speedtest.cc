#include "measure/speedtest.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace sisyphus::measure {

using core::Error;
using core::ErrorCode;
using core::Result;

const char* ToString(Intent intent) {
  switch (intent) {
    case Intent::kBaseline: return "baseline";
    case Intent::kUserInitiated: return "user_initiated";
    case Intent::kEventTriggered: return "event_triggered";
  }
  return "?";
}

std::string SpeedTestRecord::UnitKey() const {
  return std::to_string(asn.value()) + " / " + city;
}

Result<ProbePath> ResolveProbePath(netsim::NetworkSimulator& simulator,
                                   netsim::PopIndex vantage,
                                   netsim::PopIndex server,
                                   netsim::AddressFamily af) {
  auto route = simulator.RouteBetween(vantage, server, af);
  if (!route.ok()) return route.error();

  ProbePath path;
  path.time = simulator.Now();
  const auto& pop = simulator.topology().GetPop(vantage);
  path.asn = pop.asn;
  path.city = simulator.topology().cities().Get(pop.city).name;
  path.vantage_pop = vantage;
  path.server_pop = server;
  path.address_family = af;
  const netsim::LatencyModel& latency = simulator.latency();
  path.mean_rtt_ms = latency.PathRttMs(route.value(), path.time);
  path.loss_rate = latency.PathLossRate(route.value(), path.time);
  path.jitter_sigma = latency.options().jitter_sigma;
  path.traceroute = SimulateTraceroute(simulator.topology(), route.value());
  path.asn_path = std::move(route).value().asn_path;
  return path;
}

SpeedTestRecord SampleSpeedTest(const ProbePath& path, Intent intent,
                                core::Rng& rng,
                                const SpeedTestModelOptions& options) {
  SpeedTestRecord record;
  record.time = path.time;
  record.asn = path.asn;
  record.city = path.city;
  record.vantage_pop = path.vantage_pop;
  record.server_pop = path.server_pop;
  record.intent = intent;
  record.address_family = path.address_family;

  const double path_rtt =
      netsim::ApplyRttJitter(path.mean_rtt_ms, path.jitter_sigma, rng);
  double last_mile =
      std::max(0.2, rng.Gaussian(options.last_mile_base_ms,
                                 options.last_mile_sd_ms));
  if (rng.Bernoulli(options.spike_probability)) {
    last_mile += rng.Exponential(1.0 / options.spike_scale_ms);
  }
  record.rtt_ms = path_rtt + last_mile;
  record.loss_rate = path.loss_rate;

  const double access_limit =
      options.access_capacity_mbps /
      (1.0 + record.rtt_ms / options.rtt_half_ms);
  // Mathis et al.: single-flow TCP throughput ~ C * MSS / (RTT sqrt(p)).
  const double loss = std::max(record.loss_rate, 1e-6);
  const double mathis_limit_mbps =
      options.mathis_constant * options.mss_bytes * 8.0 /
      (record.rtt_ms / 1000.0 * std::sqrt(loss)) / 1e6;
  const double mean_throughput = std::min(access_limit, mathis_limit_mbps);
  record.throughput_mbps =
      mean_throughput *
      std::exp(rng.Gaussian(0.0, options.throughput_noise_sigma));

  record.traceroute = path.traceroute;
  record.asn_path = path.asn_path;
  return record;
}

Result<SpeedTestRecord> RunSpeedTest(netsim::NetworkSimulator& simulator,
                                     netsim::PopIndex vantage,
                                     netsim::PopIndex server, Intent intent,
                                     core::Rng& rng,
                                     const SpeedTestModelOptions& options,
                                     netsim::AddressFamily af) {
  static std::atomic<std::uint64_t> next_id{1};

  auto path = ResolveProbePath(simulator, vantage, server, af);
  if (!path.ok()) return path.error();
  SpeedTestRecord record = SampleSpeedTest(path.value(), intent, rng, options);
  record.id = core::MeasurementId(next_id.fetch_add(1));
  return record;
}

}  // namespace sisyphus::measure
