// Shared helpers for the experiment benches: fixed-width table printing,
// the standard header block every bench emits, the --threads flag, and the
// --obs-out wiring (metrics + tracing + run-manifest artifacts).
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "audit/writer.h"
#include "core/parallel.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace sisyphus::bench {

/// Consumes `--threads N` from argv (mutating argc/argv so later parsers
/// never see it) and sizes the global thread pool accordingly. Without the
/// flag the pool obeys SISYPHUS_THREADS, else hardware concurrency; output
/// is byte-identical at any setting (DESIGN.md §7), only wall-clock moves.
/// A missing or non-positive-integer N exits 2 naming the argument, so a
/// typo never runs at a lane count nobody asked for. Every bench binary
/// calls this first thing in main().
inline void ApplyThreadsFlag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") != 0) continue;
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed =
        std::isdigit(static_cast<unsigned char>(text[0]))
            ? std::strtoull(text, &end, 10)
            : 0;
    if (end == nullptr || *end != '\0' || errno != 0 || parsed == 0) {
      std::fprintf(stderr, "--threads must be a positive integer, got '%s'\n",
                   text);
      std::exit(2);
    }
    core::ThreadPool::SetGlobalThreadCount(static_cast<std::size_t>(parsed));
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return;
  }
}

/// Prints "== <experiment id>: <title> ==" plus a paper reference line.
inline void PrintHeader(const std::string& id, const std::string& title,
                        const std::string& paper_artifact) {
  std::printf("\n== %s: %s ==\n", id.c_str(), title.c_str());
  std::printf("   reproduces: %s\n\n", paper_artifact.c_str());
}

/// Minimal fixed-width table writer.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::pair<std::string, int>> columns)
      : columns_(std::move(columns)) {
    for (const auto& [name, width] : columns_) {
      std::printf("%-*s  ", width, name.c_str());
    }
    std::printf("\n");
    for (const auto& [name, width] : columns_) {
      std::printf("%s  ", std::string(static_cast<std::size_t>(width), '-').c_str());
    }
    std::printf("\n");
  }

  void Cell(const std::string& text) {
    std::printf("%-*s  ", columns_[cursor_].second, text.c_str());
    Advance();
  }
  void Cell(double value, const char* format = "%.2f") {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, value);
    Cell(std::string(buffer));
  }

 private:
  void Advance() {
    if (++cursor_ == columns_.size()) {
      std::printf("\n");
      cursor_ = 0;
    }
  }

  std::vector<std::pair<std::string, int>> columns_;
  std::size_t cursor_ = 0;
};

/// Prints the lineage waterfall summary: one row per terminal stage with
/// record counts and % of emitted, plus the probe/panel headline. A no-op
/// when the ledger is empty (lineage disabled or compiled out).
inline void PrintWaterfallSummary() {
  const obs::LineageWaterfall totals = obs::Lineage::Global().Totals();
  if (totals.emitted == 0 && totals.probes_failed == 0) return;
  std::printf("\n-- measurement lineage waterfall --\n");
  std::printf("probes attempted %llu  failed %llu  emitted %llu"
              "  delivered copies %llu\n",
              static_cast<unsigned long long>(totals.probes_attempted),
              static_cast<unsigned long long>(totals.probes_failed),
              static_cast<unsigned long long>(totals.emitted),
              static_cast<unsigned long long>(totals.delivered));
  TableWriter table({{"terminal stage", 18}, {"records", 10}, {"% emitted", 10}});
  for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
    const std::uint64_t count = totals.terminal[s];
    if (count == 0) continue;
    table.Cell(obs::ToString(static_cast<obs::LineageStage>(s)));
    table.Cell(std::to_string(count));
    table.Cell(totals.emitted > 0
                   ? 100.0 * static_cast<double>(count) /
                         static_cast<double>(totals.emitted)
                   : 0.0,
               "%.1f");
  }
  std::printf("panel: units kept %llu  dropped %llu  empty %llu"
              "  cells observed %llu  masked %llu\n",
              static_cast<unsigned long long>(totals.units_kept),
              static_cast<unsigned long long>(totals.units_dropped),
              static_cast<unsigned long long>(totals.units_empty),
              static_cast<unsigned long long>(totals.cells_observed),
              static_cast<unsigned long long>(totals.cells_masked));
}

/// Shared `--obs-out <dir>` wiring. When a directory is given, enables the
/// metrics registry (reset to zero so artifacts cover exactly this run),
/// the tracer, the lineage ledger, and the pool stats; Finish() writes the
/// manifest.json / metrics.json / trace.json / lineage.json quartet. When
/// the directory is empty everything stays in the disabled fast path and
/// Finish() is a no-op.
class ObsRun {
 public:
  ObsRun(std::string tool, std::string obs_dir, std::uint64_t seed)
      : obs_dir_(std::move(obs_dir)) {
    manifest_.tool = std::move(tool);
    manifest_.seed = seed;
    if (!active()) return;
    obs::Registry::Enable(true);
    obs::Registry::Global().ResetAll();
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().Enable(true);
    obs::Lineage::Enable(true);
    obs::Lineage::Global().Reset();
    // Open the first run ledger under the tool's name; a bench that runs
    // several campaigns relabels it with its first BeginRun.
    obs::Lineage::Global().BeginRun(manifest_.tool);
    obs::PoolStats::Enable(true);
    obs::PoolStats::Global().Reset();
    obs::Timeline::Enable(true);
    obs::Timeline::Global().Reset();
  }

  bool active() const { return !obs_dir_.empty(); }
  obs::RunManifest& manifest() { return manifest_; }

  /// Writes the artifact quartet; returns 0 on success (and when inactive).
  int Finish() {
    if (!active()) return 0;
    PrintWaterfallSummary();
    // Fold the timeline rollup into the manifest BEFORE the JSON quartet
    // is rendered, so manifest.json and timeline.bin agree on counts.
    const obs::Timeline::Summary timeline = obs::Timeline::Global().GetSummary();
    manifest_.timeline.enabled = true;
    manifest_.timeline.steps = timeline.steps;
    manifest_.timeline.first_step = timeline.first_step;
    manifest_.timeline.last_step = timeline.last_step;
    manifest_.timeline.series = timeline.series;
    manifest_.timeline.samples = timeline.samples;
    manifest_.timeline.events = timeline.events;
    manifest_.timeline.level_shift_events = timeline.level_shift_events;
    manifest_.timeline.churn_events = timeline.churn_events;
    std::error_code ec;
    std::filesystem::create_directories(obs_dir_, ec);
    const auto status = obs::WriteRunArtifacts(
        obs_dir_, manifest_, obs::Registry::Global(), obs::Tracer::Global(),
        obs::Lineage::Global());
    if (!status.ok()) {
      std::printf("obs artifacts failed: %s\n",
                  status.error().ToText().c_str());
      return 1;
    }
    // The indexed binary companion to lineage.json (DESIGN.md §12). It is
    // a pure function of the final ledger, so it inherits the thread-count
    // and kill/resume byte-identity the JSON quartet already guarantees.
    const auto audit_status =
        audit::WriteAuditArtifact(obs_dir_, obs::Lineage::Global());
    if (!audit_status.ok()) {
      std::printf("obs artifacts failed: %s\n",
                  audit_status.error().ToText().c_str());
      return 1;
    }
    // The per-step timeline (DESIGN.md §15): like audit.bin, a pure
    // function of committed state, byte-identical across thread counts
    // and kill/resume.
    if (!obs::WriteTimelineArtifact(obs_dir_)) {
      std::printf("obs artifacts failed: timeline.bin write error\n");
      return 1;
    }
    std::printf(
        "wrote %s/{manifest,metrics,trace,lineage}.json + audit.bin + "
        "timeline.bin\n",
        obs_dir_.c_str());
    return 0;
  }

 private:
  std::string obs_dir_;
  obs::RunManifest manifest_;
};

}  // namespace sisyphus::bench
