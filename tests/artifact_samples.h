// Small hand-built inputs for the sectioned artifacts: a lineage ledger
// and a timeline that touch every audit.bin and timeline.bin section kind
// without running the simulator. Shared by the golden-bytes test and the
// reader fuzz test (as its seed corpus).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "audit/writer.h"
#include "obs/lineage.h"
#include "obs/timeline.h"

namespace sisyphus::samples {

/// False under SISYPHUS_OBS=OFF, where the ledger and timeline are compiled
/// out and the samples below come out empty; tests that need their
/// content skip then, as the artifact fixtures in tests/CMakeLists.txt do.
#if defined(SISYPHUS_OBS_DISABLED)
inline constexpr bool kAvailable = false;
#else
inline constexpr bool kAvailable = true;
#endif

using obs::IdRunSet;
using obs::Lineage;
using obs::LineageRecordInfo;
using obs::Timeline;

/// Builds a two-run ledger touching every section kind: records with mixed
/// intents/faults/copies, probe failures, out-of-panel and shed records,
/// kept/dropped/empty units, cells, fit marks, and estimates (one with a
/// NaN p-value, two sharing a label).
inline void BuildLedger(Lineage& lineage) {
  lineage.Reset();
  lineage.BeginRun("golden-a");
  for (std::uint64_t id = 1; id <= 24; ++id) {
    LineageRecordInfo info;
    info.id = id;
    info.vantage = static_cast<std::uint32_t>(id % 3);
    info.intent = static_cast<std::uint8_t>(id % 2);
    info.attempts = static_cast<std::uint8_t>(1 + id % 3);
    info.fault_mask = static_cast<std::uint8_t>(id % 5 == 0 ? 0x3 : 0);
    info.copies = static_cast<std::uint8_t>(id % 7 == 0 ? 2 : 1);
    info.archived = id % 11 != 0;
    if (id == 23) {
      lineage.RecordShed(info);
    } else {
      lineage.RecordEmitted(info);
    }
  }
  lineage.RecordProbeFailure("timeout", 3);
  lineage.RecordProbeFailure("unreachable");
  lineage.RecordOutOfPanel(24);
  lineage.PanelUnitEmpty("unit-empty");
  lineage.PanelUnitKept("unit-b", 0.25, 3, 1);
  lineage.PanelCell("unit-b", 0, IdRunSet::FromSorted({1, 2, 3}));
  lineage.PanelCell("unit-b", 2, IdRunSet::FromSorted({4, 5, 9, 10}));
  lineage.PanelUnitKept("unit-a", 0.0, 2, 0);
  lineage.PanelCell("unit-a", 0, IdRunSet::FromSorted({6, 7, 8}));
  lineage.PanelCell("unit-a", 1, IdRunSet::FromSorted({12, 13, 14, 15}));
  lineage.PanelUnitDropped("unit-c", 0.8, 1, 4,
                           IdRunSet::FromSorted({16, 17, 19}));
  lineage.MarkTreated("unit-a");
  lineage.MarkDonor("unit-b");
  lineage.AddEstimate("unit-a", "unit-a", {"unit-b", "unit-c"}, -4.5, 0.125);
  lineage.AddEstimate("placebo", "unit-b", {"unit-a"}, 1.0, std::nan(""));
  lineage.AddEstimate("placebo", "unit-a", {"unit-b"}, 2.0, 0.5);

  lineage.BeginRun("golden-b");
  for (std::uint64_t id = 1; id <= 5; ++id) {
    LineageRecordInfo info;
    info.id = id;
    info.vantage = 7;
    info.archived = true;
    lineage.RecordEmitted(info);
  }
  lineage.PanelUnitKept("solo", 0.5, 1, 1);
  lineage.PanelCell("solo", 1, IdRunSet::FromSorted({1, 2, 3, 4, 5}));
}

/// Builds a timeline with one series of each kind, a churn firing, a
/// level-shift firing, a late-declared series, and a dense-filled step.
inline void BuildTimeline(Timeline& timeline) {
  obs::ChurnConfig churn;
  churn.min_delta = 3;
  obs::LevelShiftConfig shift;
  shift.ewma_alpha = 0.05;
  shift.drift = 0.5;
  shift.threshold = 8.0;
  shift.min_samples = 4;
  const std::uint32_t counter = timeline.DeclareCounter("g.counter", &churn);
  const std::uint32_t gauge = timeline.DeclareGauge("g.gauge", &shift);
  std::uint32_t mean = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  for (std::uint64_t step = 1; step <= 30; ++step) {
    if (step != 9) {
      timeline.SampleCounter(step, counter, step * step / 4);
      timeline.SampleGauge(step, gauge, step <= 20 ? 10.0 : 16.0);
    }
    if (step == 5) mean = timeline.DeclareRunningMean("g.mean", &shift);
    if (step >= 5) {
      count += 2;
      sum += step <= 18 ? 40.0 : 62.0;
      timeline.SampleRunningMean(step, mean, count, sum);
    }
    timeline.CommitStep(step);
  }
}

/// audit.bin of BuildLedger's ledger (leaves the global ledger off).
inline std::string AuditArtifact() {
  Lineage::Enable(true);
  BuildLedger(Lineage::Global());
  std::string bytes = audit::BuildAuditArtifact(Lineage::Global());
  Lineage::Global().Reset();
  Lineage::Enable(false);
  return bytes;
}

/// timeline.bin of BuildTimeline's timeline.
inline std::string TimelineArtifact() {
  Timeline::Enable(true);
  Timeline timeline;
  BuildTimeline(timeline);
  std::string bytes = timeline.BuildArtifact();
  Timeline::Enable(false);
  return bytes;
}

}  // namespace sisyphus::samples
