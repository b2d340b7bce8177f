// P2 — causal-engine microbenchmarks: d-separation (linear-time
// reachability vs exponential path enumeration), identification, and the
// synthetic-control estimators at Table 1 panel sizes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "causal/dseparation.h"
#include "causal/identification.h"
#include "causal/placebo.h"
#include "causal/robust_synthetic_control.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"

namespace {

using namespace sisyphus;
using causal::Dag;
using causal::NodeId;
using causal::NodeSet;

Dag RandomDag(std::size_t nodes, double edge_probability,
              std::uint64_t seed) {
  core::Rng rng(seed);
  Dag dag;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < nodes; ++i) {
    ids.push_back(dag.AddNode("V" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = i + 1; j < nodes; ++j) {
      if (rng.Bernoulli(edge_probability)) {
        (void)dag.AddEdge(ids[i], ids[j]);
      }
    }
  }
  return dag;
}

void BM_DSeparationReachability(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Dag dag = RandomDag(n, 4.0 / static_cast<double>(n), 42);
  const NodeId x{0}, y{static_cast<NodeId::underlying_type>(n - 1)};
  NodeSet z{NodeId{static_cast<NodeId::underlying_type>(n / 2)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::IsDSeparated(dag, x, y, z));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DSeparationReachability)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

void BM_PathEnumerationOracle(benchmark::State& state) {
  // The explanation-oriented oracle is exponential; only small graphs.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Dag dag = RandomDag(n, 0.35, 43);
  const NodeId x{0}, y{static_cast<NodeId::underlying_type>(n - 1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::EnumeratePaths(dag, x, y));
  }
}
BENCHMARK(BM_PathEnumerationOracle)->DenseRange(6, 14, 2);

void BM_Identify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Dag dag = RandomDag(n, 3.0 / static_cast<double>(n), 44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::Identify(
        dag, NodeId{0}, NodeId{static_cast<NodeId::underlying_type>(n - 1)}));
  }
}
BENCHMARK(BM_Identify)->DenseRange(8, 24, 4);

causal::SyntheticControlInput PanelInput(std::size_t periods,
                                         std::size_t donors) {
  core::Rng rng(45);
  causal::SyntheticControlInput input;
  input.pre_periods = periods / 2;
  input.donors = stats::Matrix(periods, donors);
  for (std::size_t t = 0; t < periods; ++t)
    for (std::size_t j = 0; j < donors; ++j)
      input.donors(t, j) = 20.0 + rng.Gaussian();
  input.treated.resize(periods);
  for (std::size_t t = 0; t < periods; ++t)
    input.treated[t] = 20.0 + rng.Gaussian();
  return input;
}

void BM_ClassicalSyntheticControl(benchmark::State& state) {
  const auto input = PanelInput(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::FitSyntheticControl(input));
  }
}
BENCHMARK(BM_ClassicalSyntheticControl)->Args({224, 30})->Args({224, 60});

void BM_RobustSyntheticControl(benchmark::State& state) {
  const auto input = PanelInput(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::FitRobustSyntheticControl(input));
  }
}
BENCHMARK(BM_RobustSyntheticControl)->Args({224, 30})->Args({224, 60});

void BM_FullPlaceboAnalysis(benchmark::State& state) {
  const auto input = PanelInput(224, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::RunPlaceboAnalysis(input));
  }
}
BENCHMARK(BM_FullPlaceboAnalysis)->Arg(15)->Arg(30);

// The tentpole scaling number: the donor placebo fan-out at the Table 1
// panel shape, swept over pool sizes. Results are byte-identical at every
// thread count (deterministic parallelism, DESIGN.md §7); only wall-clock
// should move. BENCH_causal.json carries the sweep for before/after
// comparisons in CI.
void BM_PlaceboFanOutThreads(benchmark::State& state) {
  core::ThreadPool::SetGlobalThreadCount(
      static_cast<std::size_t>(state.range(0)));
  const auto input = PanelInput(224, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::RunPlaceboAnalysis(input));
  }
  core::ThreadPool::SetGlobalThreadCount(0);  // back to the default
}
BENCHMARK(BM_PlaceboFanOutThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// A synthetic campaign batch shaped like the Table 1 stream: 64 ⟨ASN,
// city⟩ units hashing across the 16 store shards, timestamps spread over
// the 56-day horizon, values inside the default validation window.
std::vector<measure::PendingRecord> SynthesizeStream(std::size_t count) {
  core::Rng rng(46);
  const auto horizon_minutes =
      static_cast<std::int64_t>(core::SimTime::FromDays(56).minutes());
  std::vector<measure::PendingRecord> batch(count);
  for (std::size_t i = 0; i < count; ++i) {
    measure::SpeedTestRecord& r = batch[i].record;
    r.id = core::MeasurementId(i + 1);
    r.time = core::SimTime(static_cast<std::int64_t>(i) % horizon_minutes);
    r.asn = core::Asn(3741 + static_cast<std::uint32_t>(i % 8));
    r.city = "City" + std::to_string(i % 8);
    r.vantage_pop = static_cast<netsim::PopIndex>(i % 64);
    r.rtt_ms = 20.0 + 5.0 * rng.Gaussian();
    if (r.rtt_ms < 1.0) r.rtt_ms = 1.0;
    r.loss_rate = 0.01;
    r.throughput_mbps = 50.0;
    r.intent = (i % 4 == 0) ? measure::Intent::kUserInitiated
                            : measure::Intent::kBaseline;
  }
  return batch;
}

// Streaming-ingest throughput: sharded columnar append + incremental
// panel maintenance, fanned across the pool in per-step-sized chunks.
// items/s is records ingested. Panel finalize is excluded (it amortizes
// to one pass per campaign, not per batch).
void BM_StreamingIngest(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<measure::PendingRecord> stream = SynthesizeStream(count);
  measure::StreamingOptions options;
  options.panel.bucket = core::SimTime::FromHours(6);
  options.panel.periods = 224;  // 56 days / 6h
  constexpr std::size_t kChunk = 8192;
  for (auto _ : state) {
    measure::StreamingCampaign campaign({}, options);
    for (std::size_t begin = 0; begin < stream.size(); begin += kChunk) {
      const std::size_t end = std::min(stream.size(), begin + kChunk);
      campaign.IngestBatch(std::vector<measure::PendingRecord>(
          stream.begin() + static_cast<std::ptrdiff_t>(begin),
          stream.begin() + static_cast<std::ptrdiff_t>(end)));
    }
    benchmark::DoNotOptimize(campaign.store().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_StreamingIngest)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Probe generation at the Table 1 campaign shape: the ZA scenario with
// its 8 treated and 30 donor vantages at scale 16 (160 baseline + 64 user
// tests per vantage and day), 336 hourly Platform::GenerateStep calls (the
// first 14 days, before the treatment). Each step resolves every
// vantage's probe path once and samples its tests from it; items/s is
// records generated. Scenario set-up is outside the timed region.
void BM_GenerateStep(benchmark::State& state) {
  constexpr double kScale = 16.0;
  const core::SimTime until = core::SimTime::FromDays(14);
  std::int64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    netsim::ScenarioZa scenario = netsim::BuildScenarioZa();
    measure::PlatformOptions options;
    options.server = scenario.content_jnb;
    measure::Platform platform(*scenario.simulator, options);
    measure::VantageConfig vantage;
    vantage.baseline_tests_per_day = 10.0 * kScale;
    vantage.user_tests_per_day = 4.0 * kScale;
    for (const auto& unit : scenario.treated) {
      vantage.pop = unit.access_pop;
      platform.AddVantage(vantage);
    }
    for (netsim::PopIndex donor : scenario.donors) {
      vantage.pop = donor;
      platform.AddVantage(vantage);
    }
    core::Rng rng(scenario.options.seed);
    state.ResumeTiming();
    while (platform.Now() < until) {
      const measure::StepOutput step = platform.GenerateStep(until, rng);
      records += static_cast<std::int64_t>(step.records.size());
    }
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_GenerateStep)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Console output for humans plus BENCH_causal.json (google-benchmark JSON
// schema) in the working directory for CI artifact upload and diffing.
// An explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_causal.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::printf("wrote BENCH_causal.json\n");
  return 0;
}
