// End-to-end benchmark of the ZA Table-1 pipeline.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--smoke] [--scale X]
//
// --smoke shrinks every workload to seconds of work for the benchmark's
// own test; --scale overrides a workload's scale for the README's
// reference figures. Benchmark runs use neither.
//
// One process runs one workload on kLanes pool lanes. It builds the
// scenario several times (set-up), then repeats whole rounds of the
// workload's pipeline until S seconds have passed, checks the outputs with
// the oracle, and prints one JSON object as its last line of stdout: the
// end-to-end metrics (--trace 0), or the per-layer metrics of a traced
// round (--trace 1). Inputs are made from --seed: the rounds of za_stream,
// za_obs and za_durable repeat one another exactly, and calibration draws
// fresh seeds for each round.
#include <sys/inotify.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "audit/reader.h"
#include "audit/writer.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "durable/service.h"
#include "obs/lineage.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "oracle.h"
#include "pipeline.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace core = sisyphus::core;
namespace measure = sisyphus::measure;
namespace obs = sisyphus::obs;
namespace audit = sisyphus::audit;
namespace durable = sisyphus::durable;
namespace fs = std::filesystem;

/// The fixed make-up of each workload (README "Inputs").
struct Workload {
  std::string name;
  double scale = 1.0;
  /// Analyses of the finished panel per round: one inside the pipeline,
  /// the rest repeat it for analysis_s and the bit-identity check.
  int analyses = 3;
  bool obs = false;
  bool durable = false;
  std::uint64_t stop_step = 0;  ///< durable Run stops here; Resume finishes
  std::size_t seeds = 0;        ///< calibration seeds per round (K)
  /// In-process set-ups behind setup_s: this many before the first round
  /// and a quarter as many after each round, so the sample spans the run.
  int setup_builds = 40;
};

std::optional<Workload> LookupWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "za_stream") {
    w.scale = smoke ? 1.0 : 64.0;
  } else if (name == "za_obs") {
    w.scale = smoke ? 1.0 : 16.0;
    w.obs = true;
  } else if (name == "za_durable") {
    w.scale = smoke ? 0.5 : 4.0;
    w.durable = true;
    w.stop_step = 700;
  } else if (name == "calibration") {
    w.scale = 1.0;
    w.seeds = smoke ? 2 : 8;
    w.analyses = 1;
  } else {
    return std::nullopt;
  }
  if (smoke) w.setup_builds = 4;
  return w;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

using Metrics = std::map<std::string, double>;

/// Everything a run accumulates over its rounds.
struct RunLog {
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> cpu_s;
  std::vector<double> lane_cpu_s;
  std::vector<double> records_per_cpu_s;
  std::vector<double> analysis_cpu_s;
  std::vector<double> wall_s;
  std::vector<double> records_per_s;
  std::vector<double> analysis_s;
  std::vector<double> written_mb;
  std::vector<double> artifacts_s;
  std::vector<double> resume_s;
  std::vector<double> seeds_per_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Verdict verdict;
  std::optional<std::uint64_t> first_digest;
  int rounds = 0;
  /// Peak resident set once the first round's pipeline is done, before the
  /// oracle runs: later rounds only repeat it.
  double peak_rss_mb = 0.0;
  std::size_t placebo_tests = 0;       ///< calibration: zero-effect tests
  std::size_t placebo_rejections = 0;  ///< ... with p <= kAlpha
};

/// Level of the calibration workload's placebo tests.
constexpr double kAlpha = 0.10;

void RecordBuild(const Setup& setup, RunLog& log) {
  log.build_ms.push_back(setup.build_s * 1e3);
}

/// Counts an operation; a failed one is also reported.
void CountOp(RunLog& log, bool ok, const std::string& what) {
  ++log.attempted;
  if (!ok) {
    ++log.failed;
    std::printf("operation failed: %s\n", what.c_str());
  }
}

void CountAnalyses(RunLog& log, const std::vector<UnitEstimate>& estimates) {
  for (const UnitEstimate& e : estimates) {
    CountOp(log, e.ok, "analysis of '" + e.unit + "': " + e.error);
  }
}

/// Turns on the full observability set as table1 --obs-out does, reset so
/// the artifacts cover exactly this round.
void EnableObservability(const std::string& tool) {
  obs::Registry::Enable(true);
  obs::Registry::Global().ResetAll();
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable(true);
  obs::Lineage::Enable(true);
  obs::Lineage::Global().Reset();
  obs::Lineage::Global().BeginRun(tool);
  obs::PoolStats::Enable(true);
  obs::PoolStats::Global().Reset();
  obs::Timeline::Enable(true);
  obs::Timeline::Global().Reset();
}

/// Turns the observability set off again after a round, so the set-ups
/// sampled between rounds all run in the same state.
void DisableObservability() {
  obs::Registry::Enable(false);
  obs::Tracer::Global().Enable(false);
  obs::Lineage::Enable(false);
  obs::PoolStats::Enable(false);
  obs::Timeline::Enable(false);
}

double FileMb(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / 1e6;
}

/// Counts the snapshot files (snap-<seq>.bin) renamed into place in a
/// directory, from the kernel's inotify events for it.
class SnapshotCounter {
 public:
  explicit SnapshotCounter(const fs::path& dir)
      : fd_(inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    if (fd_ >= 0) inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO);
  }
  ~SnapshotCounter() {
    if (fd_ >= 0) close(fd_);
  }
  SnapshotCounter(const SnapshotCounter&) = delete;
  SnapshotCounter& operator=(const SnapshotCounter&) = delete;

  /// Snapshots renamed into place since construction.
  std::uint64_t Count() {
    alignas(inotify_event) char buffer[4096];
    ssize_t n = 0;
    while (fd_ >= 0 && (n = read(fd_, buffer, sizeof(buffer))) > 0) {
      for (const char* p = buffer; p < buffer + n;) {
        const auto* event = reinterpret_cast<const inotify_event*>(p);
        if (event->len > 0 && std::string_view(event->name).starts_with("snap-")) {
          ++count_;
        }
        p += sizeof(inotify_event) + event->len;
      }
    }
    return count_;
  }

 private:
  int fd_;
  std::uint64_t count_ = 0;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Per-layer metrics read from the metrics registry after a traced round.
void ReadRegistry(Metrics& layer) {
  const obs::Registry& registry = obs::Registry::Global();
  const auto count = [&](const char* name) {
    return static_cast<double>(registry.CounterValue(name));
  };
  layer["core.pool.tasks"] = count("core.parallel.tasks");
  layer["core.pool.regions"] = count("core.parallel.regions");
  for (const char* name :
       {"netsim.bgp.tables_computed", "netsim.bgp.route_cache_hits",
        "netsim.bgp.route_cache_misses", "netsim.bgp.invalidated_destinations",
        "netsim.bgp.frontier_pops", "netsim.events.applied",
        "measure.store.archived", "measure.store.quarantined",
        "measure.probes.attempted", "measure.probes.failed",
        "measure.probes.retried", "causal.placebo.runs",
        "causal.rsc.fits_attempted", "causal.rsc.fits_succeeded"}) {
    layer[name] = count(name);
  }
  const double lookups =
      layer["netsim.bgp.route_cache_hits"] + layer["netsim.bgp.route_cache_misses"];
  layer["netsim.bgp.cache_hit_ratio"] =
      lookups > 0 ? layer["netsim.bgp.route_cache_hits"] / lookups : 0.0;
  layer["causal.fit_yield"] =
      layer["causal.rsc.fits_attempted"] > 0
          ? layer["causal.rsc.fits_succeeded"] / layer["causal.rsc.fits_attempted"]
          : 0.0;
}

void RecordEmitted(const StepCounts& counts, Metrics& layer) {
  layer["measure.records_emitted"] = static_cast<double>(counts.emitted);
  layer["measure.archive_yield"] =
      counts.emitted > 0
          ? layer["measure.store.archived"] / static_cast<double>(counts.emitted)
          : 0.0;
}

/// Per-layer metrics from a traced round's spans.
void ReadTrace(const Trace& trace, Metrics& layer) {
  const auto samples = [&](const char* name) -> const LayerSamples* {
    const auto it = trace.layers.find(name);
    return it == trace.layers.end() ? nullptr : &it->second;
  };
  const auto ms = [](const LayerSamples* s) {
    std::vector<double> out;
    if (s != nullptr) {
      for (double v : s->wall_s) out.push_back(v * 1e3);
    }
    return out;
  };
  const auto total = [](const LayerSamples* s) {
    return s != nullptr ? s->total_s() : 0.0;
  };
  const auto cpu = [](const LayerSamples* s) {
    return s != nullptr ? s->cpu_s : 0.0;
  };
  const LayerSamples* generate = samples("measure.generate");
  const LayerSamples* ingest = samples("measure.ingest");
  const LayerSamples* step = samples("measure.step");
  layer["measure.generate_s"] = total(generate);
  layer["measure.generate_cpu_s"] = cpu(generate);
  layer["measure.generate_ms_p50"] = Median(ms(generate));
  layer["measure.ingest_s"] = total(ingest);
  layer["measure.ingest_cpu_s"] = cpu(ingest);
  layer["measure.ingest_ms_p50"] = Median(ms(ingest));
  layer["measure.step_ms_p50"] = Median(ms(step));
  layer["measure.step_ms_p99"] = Percentile(ms(step), 0.99);
  layer["measure.telemetry_s"] = total(samples("measure.telemetry"));
  layer["measure.panel_s"] = total(samples("measure.panel"));
  layer["causal.analysis_cpu_s"] = cpu(samples("causal.analysis"));
}

/// The end of a pipeline shared by every workload: the analysis of the
/// finished panel and the result export.
std::vector<UnitEstimate> AnalyzeAndExport(const measure::Panel& panel, const Setup& setup,
                             const std::string& out_dir, Trace* trace,
                             int root, Metrics* layer, RunLog& log) {
  std::vector<UnitEstimate> estimates;
  {
    LayerScope scope(trace, "causal.analysis", root);
    const Stopwatch analysis;
    estimates = AnalyzeTreated(panel, setup, trace, scope.id());
    log.analysis_s.push_back(analysis.WallS());
    log.analysis_cpu_s.push_back(analysis.CpuS());
  }
  CountAnalyses(log, estimates);
  if (layer != nullptr) {
    std::vector<double> input_ms;
    std::vector<double> unit_ms;
    for (const UnitEstimate& e : estimates) {
      input_ms.push_back(e.input_s * 1e3);
      unit_ms.push_back(e.unit_s * 1e3);
    }
    (*layer)["causal.input_ms"] = Median(input_ms);
    (*layer)["causal.unit_ms_p50"] = Median(unit_ms);
  }
  LayerScope scope(trace, "bench.export", root);
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  CountOp(log, ExportResults(out_dir, panel, estimates), "export to " + out_dir);
  return estimates;
}

/// Repeats the analysis of the finished panel; each repeat must be bit
/// identical to the pipeline's own.
void RepeatAnalyses(const Workload& w, const measure::Panel& panel,
                    const Setup& setup, const std::vector<UnitEstimate>& estimates,
                    RunLog& log) {
  const std::uint64_t digest = Digest(estimates);
  for (int r = 1; r < w.analyses; ++r) {
    const Stopwatch analysis;
    const auto again = AnalyzeTreated(panel, setup, nullptr, SpanLog::kNoParent);
    log.analysis_s.push_back(analysis.WallS());
    log.analysis_cpu_s.push_back(analysis.CpuS());
    CountAnalyses(log, again);
    log.verdict.Expect(Digest(again) == digest,
                       "repeat analysis " + std::to_string(r) +
                           " is not bit-identical to the first");
  }
}

/// One round's end-to-end figures; `records` were committed in
/// `campaign_*` time.
void RecordRound(double wall_s, double cpu_s, double lane_cpu_s,
                 std::uint64_t written_before,
                 std::uint64_t records, double campaign_wall_s,
                 double campaign_cpu_s, RunLog& log) {
  log.wall_s.push_back(wall_s);
  log.cpu_s.push_back(cpu_s);
  log.lane_cpu_s.push_back(lane_cpu_s);
  log.written_mb.push_back(
      static_cast<double>(WrittenBytes() - written_before) / 1e6);
  log.records_per_s.push_back(static_cast<double>(records) / campaign_wall_s);
  log.records_per_cpu_s.push_back(static_cast<double>(records) / campaign_cpu_s);
}

void RecordPeakRss(RunLog& log) {
  if (log.rounds == 1) log.peak_rss_mb = PeakRssMb();
}

void CheckRound(std::uint64_t digest, RunLog& log) {
  if (!log.first_digest.has_value()) {
    log.first_digest = digest;
  } else {
    log.verdict.Expect(digest == *log.first_digest,
                       "round " + std::to_string(log.rounds) +
                           " outputs differ from round 1 on the same inputs");
  }
}

/// `copies` is the number of record copies offered for ingest.
void CheckOutputs(const measure::StreamingCampaign& campaign,
                  const measure::Panel& panel,
                  const std::vector<UnitEstimate>& estimates,
                  std::uint64_t copies, bool dirty, RunLog& log) {
  CheckPanel(campaign.store(), panel, log.verdict);
  CheckConservation(campaign.store(), copies, dirty, log.verdict);
  for (const UnitEstimate& e : estimates) CheckEstimate(panel, e, log.verdict);
}

/// The observability artifacts and audit queries of za_obs.
void WriteAndQueryArtifacts(const Setup& setup, const fs::path& dir,
                            std::uint64_t seed, Trace* trace, int root,
                            Metrics* layer, RunLog& log) {
  obs::RunManifest manifest;
  manifest.tool = "perfbench.za_obs";
  manifest.seed = seed;
  const obs::Timeline::Summary timeline = obs::Timeline::Global().GetSummary();
  manifest.timeline.enabled = true;
  manifest.timeline.steps = timeline.steps;
  manifest.timeline.first_step = timeline.first_step;
  manifest.timeline.last_step = timeline.last_step;
  manifest.timeline.series = timeline.series;
  manifest.timeline.samples = timeline.samples;
  manifest.timeline.events = timeline.events;
  manifest.timeline.level_shift_events = timeline.level_shift_events;
  manifest.timeline.churn_events = timeline.churn_events;
  const std::size_t trace_spans = obs::Tracer::Global().events().size();
  std::error_code ec;
  fs::create_directories(dir, ec);

  double write_json_s = 0.0;
  double audit_s = 0.0;
  double timeline_s = 0.0;
  {
    LayerScope scope(trace, "obs.write_json", root);
    const Clock::time_point start = Clock::now();
    const auto status =
        obs::WriteRunArtifacts(dir.string(), manifest, obs::Registry::Global(),
                               obs::Tracer::Global(), obs::Lineage::Global());
    write_json_s = Seconds(start, Clock::now());
    CountOp(log, status.ok(), "obs::WriteRunArtifacts");
  }
  {
    LayerScope scope(trace, "audit.write", root);
    const Clock::time_point start = Clock::now();
    const auto status =
        audit::WriteAuditArtifact(dir.string(), obs::Lineage::Global());
    audit_s = Seconds(start, Clock::now());
    CountOp(log, status.ok(), "audit::WriteAuditArtifact");
  }
  {
    LayerScope scope(trace, "obs.timeline_write", root);
    const Clock::time_point start = Clock::now();
    const bool ok = obs::WriteTimelineArtifact(dir.string());
    timeline_s = Seconds(start, Clock::now());
    CountOp(log, ok, "obs::WriteTimelineArtifact");
  }
  log.artifacts_s.push_back(write_json_s + audit_s + timeline_s);

  // The fixed query set: waterfall, one treated unit, one estimate,
  // rankings.
  audit::AuditReader reader;
  std::vector<double> query_ms;
  Clock::time_point start = Clock::now();
  const auto opened = reader.Open((dir / "audit.bin").string());
  const double open_ms = Seconds(start, Clock::now()) * 1e3;
  CountOp(log, opened.ok() && reader.run_count() == 1, "audit.bin open");
  if (opened.ok() && reader.run_count() == 1) {
    const auto timed = [&](const std::function<bool()>& query) {
      LayerScope scope(trace, "audit.query", root);
      const Clock::time_point begin = Clock::now();
      const bool ok = query();
      query_ms.push_back(Seconds(begin, Clock::now()) * 1e3);
      return ok;
    };
    const std::string& unit = setup.scenario.treated.front().name;
    log.verdict.Expect(timed([&] { return reader.run(0).waterfall.emitted > 0; }),
                       "audit query: empty waterfall");
    log.verdict.Expect(timed([&] {
                         auto info = reader.FindUnit(0, unit);
                         return info.ok() && info.value().found &&
                                !info.value().cells.empty();
                       }),
                       "audit query: treated unit '" + unit + "' not found");
    log.verdict.Expect(timed([&] {
                         auto info = reader.FindEstimate(0, "table1.robust.unit0");
                         return info.ok() && info.value().found &&
                                info.value().treated == unit;
                       }),
                       "audit query: estimate table1.robust.unit0 not found");
    log.verdict.Expect(timed([&] {
                         auto ranked = reader.Ranked(0);
                         return ranked.ok() && !ranked.value().units.empty();
                       }),
                       "audit query: empty rankings");
  }
  if (layer != nullptr) {
    (*layer)["obs.write_json_s"] = write_json_s;
    (*layer)["obs.lineage_json_mb"] = FileMb(dir / "lineage.json");
    (*layer)["obs.trace_json_mb"] = FileMb(dir / "trace.json");
    (*layer)["obs.trace_spans"] = static_cast<double>(trace_spans);
    (*layer)["obs.timeline_write_s"] = timeline_s;
    (*layer)["obs.timeline_kb"] = FileMb(dir / "timeline.bin") * 1e3;
    (*layer)["obs.lineage_records"] =
        static_cast<double>(obs::Lineage::Global().Totals().emitted);
    (*layer)["audit.write_s"] = audit_s;
    (*layer)["audit.mb"] = FileMb(dir / "audit.bin");
    (*layer)["audit.open_ms"] = open_ms;
    (*layer)["audit.query_ms_p50"] = Median(query_ms);
  }
}

/// audit.bin and lineage.json agree on the waterfall, and the timeline
/// holds the treatment's one churn event.
void CheckArtifacts(const Setup& setup, const fs::path& dir, RunLog& log) {
  audit::AuditReader reader;
  if (!reader.Open((dir / "audit.bin").string()).ok() || reader.run_count() != 1) {
    log.verdict.Expect(false, "audit.bin does not open with one run");
    return;
  }
  CheckStageCounts(reader.run(0).waterfall, ReadFile(dir / "lineage.json"),
                   log.verdict);
  obs::TimelineReader timeline;
  std::string error;
  if (!timeline.OpenFile((dir / "timeline.bin").string(), &error)) {
    log.verdict.Expect(false, "timeline.bin: " + error);
    return;
  }
  const std::int64_t step_minutes = setup.platform->options().step.minutes();
  CheckChurnEvent(timeline,
                  static_cast<std::uint64_t>(
                      setup.scenario.options.treatment_time.minutes() / step_minutes),
                  log.verdict);
}

/// One round of za_stream or za_obs: set-up, campaign, panel, analyses,
/// export (and for za_obs the artifacts and audit queries).
void StreamRound(const Workload& w, std::uint64_t seed, const fs::path& work,
                 Trace* trace, Metrics* layer, RunLog& log) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.scale = w.scale;
  // Observability is on before the scenario is built, as in table1.
  if (w.obs) EnableObservability("perfbench." + w.name);
  if (trace != nullptr && !w.obs) {
    obs::Registry::Enable(true);
    obs::Registry::Global().ResetAll();
  }
  auto setup = MakeSetup(spec);
  RecordBuild(*setup, log);
  const int root = trace != nullptr ? trace->spans.Begin("round", SpanLog::kNoParent)
                                    : SpanLog::kNoParent;
  const std::uint64_t written_before = WrittenBytes();
  const Stopwatch round;
  const LaneWatch lanes;
  auto campaign = MakeCampaign(*setup);
  core::Rng rng(setup->rng_seed);
  StepCounts counts;
  {
    LayerScope scope(trace, "measure.campaign", root);
    if (trace != nullptr) {
      counts = RunSteps(*setup, rng, *campaign, trace, scope.id());
    } else {
      setup->platform->RunStreaming(setup->horizon, rng, *campaign);
      counts.copies = campaign->ingested();  // clean plan: one copy each
    }
  }
  const double campaign_s = round.WallS();
  const double campaign_cpu_s = round.CpuS();
  measure::Panel panel;
  {
    LayerScope scope(trace, "measure.panel", root);
    panel = campaign->FinalizePanel();
  }
  const std::vector<UnitEstimate> estimates =
      AnalyzeAndExport(panel, *setup, (work / "out").string(), trace, root, layer, log);
  if (w.obs) WriteAndQueryArtifacts(*setup, work / "obs", seed, trace, root, layer, log);
  RecordRound(round.WallS(), round.CpuS(), lanes.BusiestS(), written_before,
              campaign->ingested(), campaign_s, campaign_cpu_s, log);
  if (trace != nullptr) trace->spans.End(root);
  log.attempted += campaign->batches();  // committed steps
  if (layer != nullptr) {
    ReadRegistry(*layer);
    RecordEmitted(counts, *layer);
  }

  RecordPeakRss(log);
  RepeatAnalyses(w, panel, *setup, estimates, log);
  CheckRound(Digest(panel, estimates), log);
  if (log.rounds == 1) {
    CheckOutputs(*campaign, panel, estimates, counts.copies, false, log);
    if (w.obs) CheckArtifacts(*setup, work / "obs", log);
  }
}

/// The same seed and plan without interruption: the reference a resumed
/// run must reproduce, driven through the step API so the benchmark counts
/// the copies offered for ingest itself. Traced, it is also the step-API
/// breakdown of the faulted campaign and the base of durable.overhead_s.
std::uint64_t UninterruptedDigest(const ScenarioSpec& spec, Trace* trace,
                                  double* campaign_s, StepCounts* counts) {
  auto setup = MakeSetup(spec);
  auto campaign = MakeCampaign(*setup);
  core::Rng rng(setup->rng_seed);
  const Clock::time_point start = Clock::now();
  {
    LayerScope scope(trace, "measure.campaign", SpanLog::kNoParent);
    *counts = RunSteps(*setup, rng, *campaign, trace, scope.id());
  }
  *campaign_s = Seconds(start, Clock::now());
  const measure::Panel panel = campaign->FinalizePanel();
  return Digest(panel, AnalyzeTreated(panel, *setup, nullptr, SpanLog::kNoParent));
}

/// One round of za_durable: durable Run to the stop step (no final
/// snapshot, as after a crash), a fresh set-up as a restarted process
/// would make, Resume to the horizon, then the analyses and export.
void DurableRound(const Workload& w, std::uint64_t seed, const fs::path& work,
                  Trace* trace, Metrics* layer, RunLog& log) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.scale = w.scale;
  spec.dirty_collector = true;
  const fs::path dir = work / "durable";
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (trace != nullptr) {
    obs::Registry::Enable(true);
    obs::Registry::Global().ResetAll();
  }
  auto setup = MakeSetup(spec);
  RecordBuild(*setup, log);
  const int root = trace != nullptr ? trace->spans.Begin("round", SpanLog::kNoParent)
                                    : SpanLog::kNoParent;
  const std::uint64_t written_before = WrittenBytes();
  const Stopwatch round;
  const LaneWatch lanes;

  durable::DurableOptions options;
  options.dir = dir.string();
  options.stop_after_steps = w.stop_step;
  // Traced: count the snapshots the service renames into place, which its
  // pruning (keep_snapshots) would otherwise hide.
  std::optional<SnapshotCounter> snapshots;
  if (layer != nullptr) snapshots.emplace(dir);
  auto campaign = MakeCampaign(*setup);
  core::Rng rng(setup->rng_seed);
  core::Result<durable::RunStats> run = durable::RunStats{};
  {
    LayerScope scope(trace, "durable.run", root);
    durable::DurableStreamingService service(*setup->platform, *campaign, options);
    run = service.Run(setup->horizon, rng);
  }
  const double run_s = round.WallS();
  const double run_cpu_s = round.CpuS();
  CountOp(log, run.ok() && run.value().outcome == durable::RunOutcome::kStopped,
          "durable Run: " + (run.ok() ? std::string("did not stop") : run.error().ToText()));

  auto restarted = MakeSetup(spec);
  RecordBuild(*restarted, log);
  auto resumed_campaign = MakeCampaign(*restarted);
  core::Rng resumed_rng(restarted->rng_seed);
  options.stop_after_steps = 0;
  const Stopwatch resume_watch;
  core::Result<durable::RunStats> resume = durable::RunStats{};
  {
    LayerScope scope(trace, "durable.resume", root);
    durable::DurableStreamingService service(*restarted->platform,
                                             *resumed_campaign, options);
    resume = service.Resume(restarted->horizon, resumed_rng);
  }
  const double resume_s = resume_watch.WallS();
  const double resume_cpu_s = resume_watch.CpuS();
  const std::uint64_t durable_bytes = WrittenBytes() - written_before;
  CountOp(log, resume.ok() && resume.value().resumed &&
                   resume.value().outcome == durable::RunOutcome::kCompleted,
          "durable Resume: " + (resume.ok() ? std::string("did not complete")
                                            : resume.error().ToText()));
  log.resume_s.push_back(resume_s);

  measure::Panel panel;
  {
    LayerScope scope(trace, "measure.panel", root);
    panel = resumed_campaign->FinalizePanel();
  }
  const std::vector<UnitEstimate> estimates = AnalyzeAndExport(
      panel, *restarted, (work / "out").string(), trace, root, layer, log);
  RecordRound(round.WallS(), round.CpuS(), lanes.BusiestS(), written_before,
              resumed_campaign->ingested(), run_s + resume_s, run_cpu_s + resume_cpu_s,
              log);
  if (trace != nullptr) trace->spans.End(root);
  log.attempted += resumed_campaign->batches();  // committed steps
  if (layer != nullptr) ReadRegistry(*layer);

  RecordPeakRss(log);
  RepeatAnalyses(w, panel, *restarted, estimates, log);
  const std::uint64_t digest = Digest(panel, estimates);
  CheckRound(digest, log);
  if (log.rounds == 1 || layer != nullptr) {
    double reference_s = 0.0;
    StepCounts counts;
    const std::uint64_t reference = UninterruptedDigest(spec, trace, &reference_s, &counts);
    log.verdict.Expect(reference == digest,
                       "resumed panel and estimates differ from the uninterrupted run");
    if (log.rounds == 1) {
      CheckOutputs(*resumed_campaign, panel, estimates, counts.copies, true, log);
    }
    if (layer != nullptr && run.ok() && resume.ok()) {
      const double journal_mb = FileMb(dir / "journal.bin");
      const double snapshot_mb = static_cast<double>(durable_bytes) / 1e6 - journal_mb;
      (*layer)["durable.run_s"] = run_s;
      (*layer)["durable.run_cpu_s"] = run_cpu_s;
      (*layer)["durable.resume_s"] = resume_s;
      (*layer)["durable.overhead_s"] = run_s + resume_s - reference_s;
      (*layer)["durable.journal_mb"] = journal_mb;
      (*layer)["durable.snapshot_mb"] = snapshot_mb;
      (*layer)["durable.snapshot_bytes_per_record"] =
          snapshot_mb * 1e6 / static_cast<double>(resumed_campaign->ingested());
      (*layer)["durable.snapshots_written"] = static_cast<double>(snapshots->Count());
      (*layer)["durable.journal_frames"] = static_cast<double>(
          run.value().journal_entries + resume.value().journal_entries);
      (*layer)["durable.replayed_steps"] =
          static_cast<double>(resume.value().replayed_steps);
      RecordEmitted(counts, *layer);
    }
  }
  fs::remove_all(dir, ec);
}

/// One round of calibration: K fresh seeds of a scale-1 campaign with the
/// treatment suppressed, each analysed at the day-28 pseudo-treatment.
/// Every round draws new seeds, so the test-size check grows with the run.
void CalibrationRound(const Workload& w, std::uint64_t seed, const fs::path& work,
                      Trace* trace, Metrics* layer, RunLog& log) {
  if (trace != nullptr) {
    obs::Registry::Enable(true);
    obs::Registry::Global().ResetAll();
  }
  const std::uint64_t written_before = WrittenBytes();
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double lane_cpu_s = 0.0;
  double campaign_s = 0.0;
  double campaign_cpu_s = 0.0;
  std::uint64_t records = 0;
  StepCounts counts;
  std::vector<double> unit_ms;
  std::vector<double> input_ms;
  for (std::size_t k = 0; k < w.seeds; ++k) {
    ScenarioSpec spec;
    spec.seed = SplitMix64(seed + (static_cast<std::uint64_t>(log.rounds) - 1) * w.seeds + k);
    spec.scale = w.scale;
    spec.suppress_treatment = true;
    auto setup = MakeSetup(spec);
    RecordBuild(*setup, log);
    const int root = trace != nullptr ? trace->spans.Begin("seed", SpanLog::kNoParent)
                                      : SpanLog::kNoParent;
    const Stopwatch seed_watch;
    const LaneWatch lanes;
    auto campaign = MakeCampaign(*setup);
    core::Rng rng(setup->rng_seed);
    std::uint64_t copies = 0;
    {
      LayerScope scope(trace, "measure.campaign", root);
      if (trace != nullptr) {
        const StepCounts seed_counts = RunSteps(*setup, rng, *campaign, trace, scope.id());
        counts.emitted += seed_counts.emitted;
        copies = seed_counts.copies;
      } else {
        setup->platform->RunStreaming(setup->horizon, rng, *campaign);
        copies = campaign->ingested();  // clean plan: one copy each
      }
    }
    campaign_s += seed_watch.WallS();
    campaign_cpu_s += seed_watch.CpuS();
    records += campaign->ingested();
    measure::Panel panel;
    {
      LayerScope scope(trace, "measure.panel", root);
      panel = campaign->FinalizePanel();
    }
    const std::vector<UnitEstimate> estimates =
        AnalyzeAndExport(panel, *setup, (work / ("seed" + std::to_string(k))).string(),
                         trace, root, nullptr, log);
    wall_s += seed_watch.WallS();
    cpu_s += seed_watch.CpuS();
    lane_cpu_s += lanes.BusiestS();
    if (trace != nullptr) trace->spans.End(root);
    for (const UnitEstimate& e : estimates) {
      unit_ms.push_back(e.unit_s * 1e3);
      input_ms.push_back(e.input_s * 1e3);
      if (!e.ok) continue;
      ++log.placebo_tests;
      if (e.result.p_value <= kAlpha) ++log.placebo_rejections;
    }
    log.attempted += 1 + campaign->batches();  // the seed and its steps
    // Peak RSS of round 1 is read after its first seed's pipeline, before
    // any oracle check has run.
    if (k == 0) RecordPeakRss(log);
    CheckOutputs(*campaign, panel, estimates, copies, false, log);
  }
  RecordRound(wall_s, cpu_s, lane_cpu_s, written_before, records, campaign_s,
              campaign_cpu_s, log);
  log.seeds_per_s.push_back(static_cast<double>(w.seeds) / wall_s);
  if (layer != nullptr) {
    ReadRegistry(*layer);
    (*layer)["causal.input_ms"] = Median(input_ms);
    (*layer)["causal.unit_ms_p50"] = Median(unit_ms);
    RecordEmitted(counts, *layer);
  }
}

void Round(const Workload& w, std::uint64_t seed, const fs::path& work,
           Trace* trace, Metrics* layer, RunLog& log) {
  ++log.rounds;
  if (w.durable) {
    DurableRound(w, seed, work, trace, layer, log);
  } else if (w.seeds > 0) {
    CalibrationRound(w, seed, work, trace, layer, log);
  } else {
    StreamRound(w, seed, work, trace, layer, log);
  }
  DisableObservability();
  if (trace != nullptr && layer != nullptr) ReadTrace(*trace, *layer);
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in BENCHMARK.json order. A layer the workload
/// does not exercise reports 0.
constexpr MetricSpec kLayerMetrics[] = {
    {"core.pool.tasks", "count"},
    {"core.pool.regions", "count"},
    {"netsim.build_ms", "ms"},
    {"netsim.bgp.tables_computed", "count"},
    {"netsim.bgp.route_cache_hits", "count"},
    {"netsim.bgp.route_cache_misses", "count"},
    {"netsim.bgp.cache_hit_ratio", "ratio"},
    {"netsim.bgp.invalidated_destinations", "count"},
    {"netsim.bgp.frontier_pops", "count"},
    {"netsim.events.applied", "count"},
    {"measure.generate_s", "s"},
    {"measure.generate_cpu_s", "s"},
    {"measure.generate_ms_p50", "ms"},
    {"measure.ingest_s", "s"},
    {"measure.ingest_cpu_s", "s"},
    {"measure.ingest_ms_p50", "ms"},
    {"measure.step_ms_p50", "ms"},
    {"measure.step_ms_p99", "ms"},
    {"measure.telemetry_s", "s"},
    {"measure.panel_s", "s"},
    {"measure.records_emitted", "count"},
    {"measure.store.archived", "count"},
    {"measure.store.quarantined", "count"},
    {"measure.probes.attempted", "count"},
    {"measure.probes.failed", "count"},
    {"measure.probes.retried", "count"},
    {"measure.archive_yield", "ratio"},
    {"causal.input_ms", "ms"},
    {"causal.unit_ms_p50", "ms"},
    {"causal.analysis_cpu_s", "s"},
    {"causal.placebo.runs", "count"},
    {"causal.rsc.fits_attempted", "count"},
    {"causal.rsc.fits_succeeded", "count"},
    {"causal.fit_yield", "ratio"},
    {"obs.write_json_s", "s"},
    {"obs.lineage_json_mb", "MB"},
    {"obs.trace_json_mb", "MB"},
    {"obs.trace_spans", "count"},
    {"obs.timeline_write_s", "s"},
    {"obs.timeline_kb", "KB"},
    {"obs.lineage_records", "count"},
    {"audit.write_s", "s"},
    {"audit.mb", "MB"},
    {"audit.open_ms", "ms"},
    {"audit.query_ms_p50", "ms"},
    {"durable.run_s", "s"},
    {"durable.run_cpu_s", "s"},
    {"durable.overhead_s", "s"},
    {"durable.resume_s", "s"},
    {"durable.journal_mb", "MB"},
    {"durable.snapshot_mb", "MB"},
    {"durable.snapshot_bytes_per_record", "B"},
    {"durable.snapshots_written", "count"},
    {"durable.journal_frames", "count"},
    {"durable.replayed_steps", "count"},
};

void AppendMetric(std::string& json, const char* name, double value,
                  const char* unit) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name, value, unit);
  json += buffer;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  double scale = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      traced = std::string(argv[++i]) == "1";
    } else if (arg == "--scale" && has_value) {
      scale = std::stod(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  std::optional<Workload> workload = LookupWorkload(workload_name, smoke);
  if (!workload.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  if (seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds S (S > 0) is required\n");
    return 2;
  }
  if (scale > 0.0) workload->scale = scale;
  const Workload& w = *workload;
  core::ThreadPool::SetGlobalThreadCount(kLanes);
  core::SetLogLevel(core::LogLevel::kWarn);
  // Run from the checkout's root, as run.py does.
  const fs::path work = fs::path(".bench_build/work") / w.name;
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work, ec);
  const std::uint64_t input_seed = SplitMix64(seed);

  std::printf("perfbench %s: seed %llu, scale %g, %zu lanes, %s%s\n", w.name.c_str(),
              static_cast<unsigned long long>(seed), w.scale, kLanes,
              traced ? "traced" : "untraced", smoke ? ", smoke" : "");
  RunLog log;
  // Set-up CPU time moves with the host's load from one second to the
  // next, so its samples are spread over the whole run.
  const auto sample_setups = [&](int count) {
    ScenarioSpec spec;
    spec.seed = input_seed;
    spec.scale = w.scale;
    spec.dirty_collector = w.durable;
    spec.suppress_treatment = w.seeds > 0;
    for (int b = 0; b < count; ++b) {
      const auto setup = MakeSetup(spec);
      log.setup_s.push_back(setup->setup_cpu_s);
      RecordBuild(*setup, log);
    }
  };
  sample_setups(w.setup_builds);

  const Clock::time_point start = Clock::now();
  std::vector<Metrics> layers;
  if (traced) {
    Round(w, input_seed, work, nullptr, nullptr, log);
    const double untraced_wall = log.wall_s.back();
    const double untraced_cpu = log.cpu_s.back();
    std::vector<double> traced_walls;
    std::vector<double> traced_cpus;
    do {
      Trace trace;
      Metrics layer;
      Round(w, input_seed, work, &trace, &layer, log);
      layer["netsim.build_ms"] = Median(log.build_ms);
      traced_walls.push_back(log.wall_s.back());
      traced_cpus.push_back(log.cpu_s.back());
      layers.push_back(std::move(layer));
      std::ofstream(work.parent_path() / ("trace-" + w.name + ".json"))
          << trace.spans.ChromeTraceJson();
    } while (Seconds(start, Clock::now()) < seconds);
    const double traced_wall = Median(traced_walls);
    const double traced_cpu = Median(traced_cpus);
    std::printf("tracing overhead: wall %+.3f s (traced %.3f s - untraced %.3f s), "
                "cpu %+.3f s (traced %.3f s - untraced %.3f s)\n",
                traced_wall - untraced_wall, traced_wall, untraced_wall,
                traced_cpu - untraced_cpu, traced_cpu, untraced_cpu);
    std::printf("chrome trace: %s\n",
                (work.parent_path() / ("trace-" + w.name + ".json")).string().c_str());
  } else {
    do {
      Round(w, input_seed, work, nullptr, nullptr, log);
      sample_setups(w.setup_builds / 4);
    } while (Seconds(start, Clock::now()) < seconds);
  }
  if (w.seeds > 0) {
    std::printf("calibration: %zu/%zu placebo rejections at alpha %.2f\n",
                log.placebo_rejections, log.placebo_tests, kAlpha);
    CheckTestSize(log.placebo_rejections, log.placebo_tests, kAlpha, log.verdict);
  }
  fs::remove_all(work, ec);

  std::printf("rounds %d, setups %zu, operations %llu attempted, %llu failed\n",
              log.rounds, log.setup_s.size(),
              static_cast<unsigned long long>(log.attempted),
              static_cast<unsigned long long>(log.failed));
  std::string metrics;
  if (traced) {
    std::printf("%-38s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const MetricSpec& spec : kLayerMetrics) {
      std::vector<double> values;
      for (const Metrics& layer : layers) {
        const auto it = layer.find(spec.name);
        values.push_back(it == layer.end() ? 0.0 : it->second);
      }
      const double value = Median(values);
      std::printf("%-38s %14.6g  %s\n", spec.name, value, spec.unit);
      AppendMetric(metrics, spec.name, value, spec.unit);
    }
  } else {
    const std::vector<std::pair<MetricSpec, double>> e2e = {
        {{"setup_s", "s"}, Median(log.setup_s)},
        {{"cpu_s", "s"}, Median(log.cpu_s)},
        {{"lane_cpu_s", "s"}, Median(log.lane_cpu_s)},
        {{"records_per_cpu_s", "1/s"}, Median(log.records_per_cpu_s)},
        {{"analysis_cpu_s", "s"}, Median(log.analysis_cpu_s)},
        {{"written_mb", "MB"}, Median(log.written_mb)},
        {{"peak_rss_mb", "MB"}, log.peak_rss_mb},
    };
    for (const auto& [spec, value] : e2e) {
      std::printf("%-18s %14.6g %s\n", spec.name, value, spec.unit);
      AppendMetric(metrics, spec.name, value, spec.unit);
    }
    // Wall-clock and workload-specific figures, reported beside the
    // contract metrics (README "End-to-end metrics").
    std::printf("%-18s %14.6g s\n", "wall_s", Median(log.wall_s));
    std::printf("%-18s %14.6g 1/s\n", "records_per_s", Median(log.records_per_s));
    std::printf("%-18s %14.6g s\n", "analysis_s", Median(log.analysis_s));
    if (!log.artifacts_s.empty()) {
      std::printf("%-18s %14.6g s\n", "artifacts_s", Median(log.artifacts_s));
    }
    if (!log.resume_s.empty()) {
      std::printf("%-18s %14.6g s\n", "resume_s", Median(log.resume_s));
    }
    if (!log.seeds_per_s.empty()) {
      std::printf("%-18s %14.6g 1/s\n", "seeds_per_s", Median(log.seeds_per_s));
    }
  }
  for (const std::string& failure : log.verdict.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              log.verdict.ok() ? "true" : "false",
              static_cast<unsigned long long>(log.attempted),
              static_cast<unsigned long long>(log.failed), metrics.c_str());
  std::fflush(stdout);
  return log.verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
