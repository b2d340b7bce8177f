// Link and path latency: propagation + utilization-driven queueing.
#pragma once

#include "core/rng.h"
#include "core/sim_time.h"
#include "netsim/bgp.h"
#include "netsim/topology.h"
#include "netsim/traffic.h"

namespace sisyphus::netsim {

struct LatencyModelOptions {
  /// Queueing delay at utilization rho: queue_scale_ms * rho / (1 - rho),
  /// the M/M/1 waiting-time shape, clamped at max_queue_ms.
  double queue_scale_ms = 0.6;
  double max_queue_ms = 60.0;
  /// Per-hop forwarding overhead.
  double per_hop_ms = 0.08;
  /// Multiplicative lognormal jitter sigma applied per path sample.
  double jitter_sigma = 0.04;
  /// Loss model: a noise floor plus congestion loss that switches on as
  /// utilization approaches saturation (tail-drop shape):
  /// loss = base + scale * max(0, rho - onset)^2 / (1 - onset)^2.
  double base_loss = 2e-4;
  double congestion_loss_onset = 0.80;
  double congestion_loss_scale = 0.08;
};

/// One sampled RTT around a mean: mean_rtt_ms times lognormal jitter
/// exp(N(0, jitter_sigma)), drawn from `rng` only when jitter_sigma > 0.
double ApplyRttJitter(double mean_rtt_ms, double jitter_sigma, core::Rng& rng);

/// Computes one-way / round-trip delays over converged BGP paths. Holds
/// references; topology must outlive it. Per-link utilization shocks can
/// be installed by the event layer (AddUtilizationShock).
class LatencyModel {
 public:
  LatencyModel(const Topology& topology, LatencyModelOptions options = {});

  /// Adds `extra` utilization on `link` during [start, end) — congestion
  /// shocks from events (failures elsewhere, maintenance reroutes, DDoS).
  void AddUtilizationShock(core::LinkId link, core::SimTime start,
                           core::SimTime end, double extra);
  void ClearShocks();

  /// Deterministic mean utilization of a link at `time` (profile + shocks).
  double LinkUtilization(core::LinkId link, core::SimTime time) const;

  /// Mean one-way delay of a link at `time` (no jitter).
  double LinkDelayMs(core::LinkId link, core::SimTime time) const;

  /// Packet-loss probability of a link at `time` (one direction).
  double LinkLossRate(core::LinkId link, core::SimTime time) const;

  /// End-to-end loss along a route (both directions, independent links):
  /// 1 - prod (1 - l_i)^2.
  double PathLossRate(const BgpRoute& route, core::SimTime time) const;

  /// Mean RTT along a converged route at `time` (no jitter): twice the
  /// one-way sum, assuming symmetric reverse routing.
  double PathRttMs(const BgpRoute& route, core::SimTime time) const;

  /// One sampled RTT: ApplyRttJitter over PathRttMs.
  double SampleRttMs(const BgpRoute& route, core::SimTime time,
                     core::Rng& rng) const;

  const LatencyModelOptions& options() const { return options_; }

 private:
  struct Shock {
    core::LinkId link;
    core::SimTime start;
    core::SimTime end;
    double extra = 0.0;
  };

  const Topology& topology_;
  LatencyModelOptions options_;
  std::vector<Shock> shocks_;
};

}  // namespace sisyphus::netsim
