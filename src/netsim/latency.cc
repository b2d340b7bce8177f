#include "netsim/latency.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace sisyphus::netsim {

LatencyModel::LatencyModel(const Topology& topology,
                           LatencyModelOptions options)
    : topology_(topology), options_(options) {}

void LatencyModel::AddUtilizationShock(core::LinkId link, core::SimTime start,
                                       core::SimTime end, double extra) {
  SISYPHUS_REQUIRE(start <= end, "AddUtilizationShock: start > end");
  shocks_.push_back({link, start, end, extra});
}

void LatencyModel::ClearShocks() { shocks_.clear(); }

double LatencyModel::LinkUtilization(core::LinkId link,
                                     core::SimTime time) const {
  const Link& l = topology_.GetLink(link);
  // The profile's time zone follows the link's lower-index endpoint city.
  DiurnalProfile profile;
  profile.base_utilization = l.base_utilization;
  profile.diurnal_amplitude = l.diurnal_amplitude;
  profile.utc_offset_hours =
      topology_.cities().Get(topology_.GetPop(l.a).city).utc_offset_hours;
  profile.noise_sd = 0.0;
  double u = profile.MeanUtilization(time);
  for (const auto& shock : shocks_) {
    if (shock.link == link && shock.start <= time && time < shock.end) {
      u += shock.extra;
    }
  }
  return std::clamp(u, 0.0, 0.97);
}

double LatencyModel::LinkDelayMs(core::LinkId link, core::SimTime time) const {
  const Link& l = topology_.GetLink(link);
  const double rho = LinkUtilization(link, time);
  const double queue =
      std::min(options_.max_queue_ms,
               options_.queue_scale_ms * rho / std::max(0.03, 1.0 - rho));
  return l.propagation_ms + queue + options_.per_hop_ms;
}

double LatencyModel::LinkLossRate(core::LinkId link,
                                  core::SimTime time) const {
  const double rho = LinkUtilization(link, time);
  const double onset = options_.congestion_loss_onset;
  double loss = options_.base_loss;
  if (rho > onset && onset < 1.0) {
    const double over = (rho - onset) / (1.0 - onset);
    loss += options_.congestion_loss_scale * over * over;
  }
  return std::min(1.0, loss);
}

double LatencyModel::PathLossRate(const BgpRoute& route,
                                  core::SimTime time) const {
  double delivered = 1.0;
  for (core::LinkId link : route.links) {
    const double survive = 1.0 - LinkLossRate(link, time);
    delivered *= survive * survive;  // forward and return direction
  }
  return 1.0 - delivered;
}

double LatencyModel::PathRttMs(const BgpRoute& route,
                               core::SimTime time) const {
  double one_way = 0.0;
  for (core::LinkId link : route.links) one_way += LinkDelayMs(link, time);
  return 2.0 * one_way;
}

double ApplyRttJitter(double mean_rtt_ms, double jitter_sigma,
                      core::Rng& rng) {
  const double jitter =
      jitter_sigma > 0.0 ? std::exp(rng.Gaussian(0.0, jitter_sigma)) : 1.0;
  return mean_rtt_ms * jitter;
}

double LatencyModel::SampleRttMs(const BgpRoute& route, core::SimTime time,
                                 core::Rng& rng) const {
  return ApplyRttJitter(PathRttMs(route, time), options_.jitter_sigma, rng);
}

}  // namespace sisyphus::netsim
