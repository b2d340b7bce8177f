// obscheck — schema validator for the --obs-out artifact set.
//
//   obscheck <dir>            validates <dir>/{manifest,metrics,trace}.json
//                             plus lineage.json, the indexed audit.bin,
//                             and the telemetry timeline timeline.bin
//   obscheck --manifest FILE  validates a single artifact by role
//   obscheck --metrics FILE
//   obscheck --trace FILE
//   obscheck --lineage FILE
//   obscheck --audit FILE
//   obscheck --timeline FILE
//
// Checks that each file parses as JSON (core::json::Parse, no third-party
// dependency) and conforms to its schema: sisyphus.run_manifest/1 for the
// manifest (tool, seed, options, phases, headline metric rollup, optional
// thread-pool stats), sisyphus.metrics/1 for the metric snapshot
// (counters / gauges / histograms with consistent bucket shapes), Chrome
// trace format for trace.json, and sisyphus.lineage/1 for the lineage
// ledger (per-run waterfall whose terminal stages partition the emitted
// records — deep reconciliation against metrics.json lives in lineageq
// --check). The binary audit index (sisyphus.audit/1, audit.bin) is
// opened with the mmap reader, every section checksum is verified, and
// its run headers are cross-checked against lineage.json — the index
// must describe the same campaign as the JSON it summarizes. The
// telemetry timeline (sisyphus.timeline/1, timeline.bin, DESIGN.md §15)
// is fully re-parsed — section checksums, monotone event steps, series
// density, event/series cross-references all live in the reader — and
// its step/series/event counts are cross-checked against manifest.json's
// "timeline" summary block. Exit 0 = all good; 1 = any violation (each
// printed with its JSON path). CI runs this after the table1 --obs-out
// smoke run, and a tier-1 ctest runs it against a real campaign's
// artifacts.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "artifact_io.h"
#include "audit/reader.h"
#include "core/json.h"
#include "obs/timeline.h"

namespace {

using sisyphus::core::json::Value;

int g_errors = 0;

void Fail(const std::string& where, const std::string& what) {
  std::printf("FAIL %s: %s\n", where.c_str(), what.c_str());
  ++g_errors;
}

/// Fetches `key` from `parent` (path `where`), requiring `kind`; nullptr
/// (and one recorded failure) when missing or mistyped.
const Value* Require(const Value& parent, const std::string& where,
                     const std::string& key, Value::Kind kind) {
  const Value* found = parent.Find(key);
  if (found == nullptr) {
    Fail(where + "." + key, "missing");
    return nullptr;
  }
  if (found->kind != kind) {
    Fail(where + "." + key, "wrong type");
    return nullptr;
  }
  return found;
}

void CheckMetricsObject(const Value& metrics, const std::string& where) {
  if (const Value* schema =
          Require(metrics, where, "schema", Value::Kind::kString);
      schema != nullptr && schema->string != "sisyphus.metrics/1") {
    Fail(where + ".schema", "expected sisyphus.metrics/1, got '" +
                                schema->string + "'");
  }
}

void CheckManifest(const Value& root) {
  const std::string where = "manifest";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  if (const Value* schema =
          Require(root, where, "schema", Value::Kind::kString);
      schema != nullptr && schema->string != "sisyphus.run_manifest/1") {
    Fail(where + ".schema", "expected sisyphus.run_manifest/1, got '" +
                                schema->string + "'");
  }
  if (const Value* tool = Require(root, where, "tool", Value::Kind::kString);
      tool != nullptr && tool->string.empty()) {
    Fail(where + ".tool", "empty");
  }
  (void)Require(root, where, "seed", Value::Kind::kNumber);
  (void)Require(root, where, "options", Value::Kind::kObject);
  if (const Value* phases =
          Require(root, where, "phases", Value::Kind::kArray);
      phases != nullptr) {
    for (std::size_t i = 0; i < phases->array.size(); ++i) {
      const std::string phase_where =
          where + ".phases[" + std::to_string(i) + "]";
      const Value& phase = phases->array[i];
      if (!phase.is_object()) {
        Fail(phase_where, "not an object");
        continue;
      }
      (void)Require(phase, phase_where, "name", Value::Kind::kString);
      (void)Require(phase, phase_where, "wall_ms", Value::Kind::kNumber);
    }
  }
  if (const Value* metrics =
          Require(root, where, "metrics", Value::Kind::kObject);
      metrics != nullptr) {
    CheckMetricsObject(*metrics, where + ".metrics");
    // The headline counts the acceptance criteria name explicitly.
    for (const char* key :
         {"measure.probes.attempted", "measure.store.quarantined",
          "measure.panel.cells_masked", "causal.placebo.runs"}) {
      (void)Require(*metrics, where + ".metrics", key,
                    Value::Kind::kNumber);
    }
  }
  // Thread-pool stats are optional (absent from pre-lineage manifests and
  // compiled-out builds) but must be well-formed when present.
  if (const Value* pool = root.Find("pool"); pool != nullptr) {
    const std::string pool_where = where + ".pool";
    if (!pool->is_object()) {
      Fail(pool_where, "not an object");
    } else {
      (void)Require(*pool, pool_where, "regions", Value::Kind::kNumber);
      (void)Require(*pool, pool_where, "tasks", Value::Kind::kNumber);
      (void)Require(*pool, pool_where, "max_lanes_engaged",
                    Value::Kind::kNumber);
      for (const char* accum : {"queue_wait_us", "task_us", "region_span_us",
                                "lane_utilization"}) {
        const Value* stats =
            Require(*pool, pool_where, accum, Value::Kind::kObject);
        if (stats == nullptr) continue;
        for (const char* key : {"count", "mean", "min", "max"}) {
          (void)Require(*stats, pool_where + "." + accum, key,
                        Value::Kind::kNumber);
        }
      }
    }
  }

  // Durable checkpoint/journal metadata is optional (only campaigns run
  // under the DurableStreamingService write it), but when present it must
  // be internally consistent: the journal high-water mark can never trail
  // the snapshot it is supposed to cover (the service flushes the journal
  // before every snapshot write).
  if (const Value* durable = root.Find("durable"); durable != nullptr) {
    const std::string durable_where = where + ".durable";
    if (!durable->is_object()) {
      Fail(durable_where, "not an object");
    } else {
      for (const char* key : {"resumed", "partial"}) {
        (void)Require(*durable, durable_where, key, Value::Kind::kBool);
      }
      const Value* snapshot_seq = Require(*durable, durable_where,
                                          "snapshot_seq", Value::Kind::kNumber);
      const Value* high_water = Require(
          *durable, durable_where, "journal_high_water", Value::Kind::kNumber);
      (void)Require(*durable, durable_where, "journal_entries",
                    Value::Kind::kNumber);
      (void)Require(*durable, durable_where, "shed_records",
                    Value::Kind::kNumber);
      if (snapshot_seq != nullptr && high_water != nullptr &&
          high_water->number < snapshot_seq->number) {
        Fail(durable_where,
             "journal_high_water " +
                 std::to_string(
                     static_cast<std::uint64_t>(high_water->number)) +
                 " behind snapshot_seq " +
                 std::to_string(
                     static_cast<std::uint64_t>(snapshot_seq->number)));
      }
    }
  }
}

void CheckMetrics(const Value& root) {
  const std::string where = "metrics";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  CheckMetricsObject(root, where);
  const Value* counters =
      Require(root, where, "counters", Value::Kind::kObject);
  if (counters != nullptr) {
    if (counters->object.empty()) {
      // A snapshot with zero counters means the registry was never enabled
      // (or the write was truncated mid-document) — validating the empty
      // shell would pass trivially and defeat the smoke check.
      Fail(where + ".counters",
           "empty — registry disabled in the producing run, or truncated "
           "artifact");
    }
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number()) Fail(where + ".counters." + name, "not a number");
    }
  }
  (void)Require(root, where, "gauges", Value::Kind::kObject);
  const Value* histograms =
      Require(root, where, "histograms", Value::Kind::kObject);
  if (histograms != nullptr) {
    for (const auto& [name, histogram] : histograms->object) {
      const std::string h_where = where + ".histograms." + name;
      if (!histogram.is_object()) {
        Fail(h_where, "not an object");
        continue;
      }
      (void)Require(histogram, h_where, "count", Value::Kind::kNumber);
      (void)Require(histogram, h_where, "sum", Value::Kind::kNumber);
      const Value* bounds =
          Require(histogram, h_where, "upper_bounds", Value::Kind::kArray);
      const Value* buckets =
          Require(histogram, h_where, "bucket_counts", Value::Kind::kArray);
      if (bounds != nullptr && buckets != nullptr &&
          buckets->array.size() != bounds->array.size() + 1) {
        Fail(h_where, "bucket_counts must have upper_bounds + 1 entries");
      }
    }
  }
}

void CheckTrace(const Value& root) {
  const std::string where = "trace";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  const Value* events =
      Require(root, where, "traceEvents", Value::Kind::kArray);
  if (events == nullptr) return;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const std::string event_where =
        where + ".traceEvents[" + std::to_string(i) + "]";
    const Value& event = events->array[i];
    if (!event.is_object()) {
      Fail(event_where, "not an object");
      continue;
    }
    (void)Require(event, event_where, "name", Value::Kind::kString);
    if (const Value* ph =
            Require(event, event_where, "ph", Value::Kind::kString);
        ph != nullptr && ph->string != "X") {
      Fail(event_where + ".ph", "expected complete event 'X'");
    }
    (void)Require(event, event_where, "ts", Value::Kind::kNumber);
    (void)Require(event, event_where, "dur", Value::Kind::kNumber);
    (void)Require(event, event_where, "tid", Value::Kind::kNumber);
  }
}

void CheckLineage(const Value& root) {
  const std::string where = "lineage";
  if (!root.is_object()) {
    Fail(where, "root is not an object");
    return;
  }
  if (const Value* schema =
          Require(root, where, "schema", Value::Kind::kString);
      schema != nullptr && schema->string != "sisyphus.lineage/1") {
    Fail(where + ".schema", "expected sisyphus.lineage/1, got '" +
                                schema->string + "'");
  }
  const Value* stages = Require(root, where, "stages", Value::Kind::kArray);
  const std::size_t stage_count =
      stages != nullptr ? stages->array.size() : 0;
  (void)Require(root, where, "fault_bits", Value::Kind::kArray);
  const Value* runs = Require(root, where, "runs", Value::Kind::kArray);
  if (runs == nullptr) return;
  if (runs->array.empty()) {
    Fail(where + ".runs",
         "no runs recorded — artifact truncated, or the producing binary "
         "ran with lineage disabled");
    return;
  }
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const std::string run_where = where + ".runs[" + std::to_string(i) + "]";
    const Value& run = runs->array[i];
    if (!run.is_object()) {
      Fail(run_where, "not an object");
      continue;
    }
    (void)Require(run, run_where, "label", Value::Kind::kString);
    const Value* waterfall =
        Require(run, run_where, "waterfall", Value::Kind::kObject);
    double emitted = 0.0;
    if (waterfall != nullptr) {
      for (const char* key :
           {"probes_attempted", "probes_failed", "emitted", "delivered",
            "quarantined_copies", "archived_copies", "untracked"}) {
        (void)Require(*waterfall, run_where + ".waterfall", key,
                      Value::Kind::kNumber);
      }
      if (const Value* e = waterfall->Find("emitted");
          e != nullptr && e->is_number()) {
        emitted = e->number;
      }
      // The JSON stores probes_attempted beside its parts (audit.bin
      // derives it), so only here can it drift from emitted + failed.
      const Value* attempted = waterfall->Find("probes_attempted");
      const Value* failed = waterfall->Find("probes_failed");
      if (attempted != nullptr && attempted->is_number() &&
          failed != nullptr && failed->is_number() &&
          attempted->number != emitted + failed->number) {
        Fail(run_where + ".waterfall.probes_attempted",
             "!= emitted + probes_failed");
      }
      // Terminal stages must cover the legend and partition the emitted
      // records: every record ends in exactly one stage.
      if (const Value* terminal = Require(*waterfall, run_where + ".waterfall",
                                          "terminal", Value::Kind::kObject);
          terminal != nullptr) {
        if (stage_count != 0 && terminal->object.size() != stage_count) {
          Fail(run_where + ".waterfall.terminal",
               "expected one entry per legend stage");
        }
        double sum = 0.0;
        for (const auto& [_, count] : terminal->object) sum += count.number;
        if (sum != emitted) {
          Fail(run_where + ".waterfall.terminal",
               "stage counts do not sum to emitted");
        }
      }
      (void)Require(*waterfall, run_where + ".waterfall", "panel",
                    Value::Kind::kObject);
    }
    if (const Value* records =
            Require(run, run_where, "records", Value::Kind::kObject);
        records != nullptr) {
      const Value* count =
          Require(*records, run_where + ".records", "count",
                  Value::Kind::kNumber);
      if (count != nullptr && count->number != emitted) {
        Fail(run_where + ".records.count", "!= waterfall.emitted");
      }
      for (const char* column :
           {"vantage", "intent", "attempts", "fault_mask", "copies",
            "stage"}) {
        const Value* array = Require(*records, run_where + ".records", column,
                                     Value::Kind::kArray);
        if (array != nullptr && count != nullptr &&
            array->array.size() != static_cast<std::size_t>(count->number)) {
          Fail(run_where + ".records." + column, "wrong length");
        }
        if (array != nullptr && std::strcmp(column, "stage") == 0 &&
            stage_count != 0) {
          for (const Value& stage : array->array) {
            if (!stage.is_number() || stage.number < 0 ||
                stage.number >= static_cast<double>(stage_count)) {
              Fail(run_where + ".records.stage", "stage code out of range");
              break;
            }
          }
        }
      }
    }
    (void)Require(run, run_where, "panel_units", Value::Kind::kObject);
    (void)Require(run, run_where, "estimates", Value::Kind::kArray);
  }
}

/// Validates the binary audit index: structural integrity (every section
/// checksum) plus agreement with the lineage JSON when available — run
/// count, labels, and emitted totals must match, or the index was
/// written from a different campaign than the JSON sitting next to it.
void CheckAuditFile(const std::string& path, const Value* lineage_root) {
  sisyphus::audit::AuditReader reader;
  if (const auto status = reader.Open(path); !status.ok()) {
    Fail(path, status.error().message());
    return;
  }
  std::printf("check %s\n", path.c_str());
  const std::string where = "audit";
  if (const auto status = reader.VerifyAll(); !status.ok()) {
    Fail(path, status.error().message());
    return;
  }
  if (reader.run_count() == 0) {
    Fail(where + ".runs",
         "no runs recorded — artifact truncated, or the producing binary "
         "ran with lineage disabled");
    return;
  }
  for (std::size_t i = 0; i < reader.run_count(); ++i) {
    const sisyphus::audit::RunSummary& run = reader.run(i);
    const std::string run_where = where + ".runs[" + std::to_string(i) + "]";
    std::uint64_t terminal_sum = 0;
    for (std::uint64_t count : run.waterfall.terminal) terminal_sum += count;
    if (terminal_sum != run.waterfall.emitted) {
      Fail(run_where + ".terminal", "stage counts do not sum to emitted");
    }
    if (run.record_rows != run.waterfall.emitted) {
      Fail(run_where + ".records", "row count != waterfall.emitted");
    }
  }
  if (lineage_root == nullptr) return;
  const Value* runs = lineage_root->Find("runs");
  if (runs == nullptr || !runs->is_array()) return;  // reported by CheckLineage
  if (runs->array.size() != reader.run_count()) {
    Fail(where + ".runs",
         "index has " + std::to_string(reader.run_count()) +
             " run(s), lineage.json has " + std::to_string(runs->array.size()));
    return;
  }
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const std::string run_where = where + ".runs[" + std::to_string(i) + "]";
    const Value& json_run = runs->array[i];
    if (const Value* label = json_run.Find("label");
        label != nullptr && label->is_string() &&
        label->string != reader.run(i).label) {
      Fail(run_where + ".label", "index says '" + reader.run(i).label +
                                     "', lineage.json says '" + label->string +
                                     "'");
    }
    const Value* waterfall = json_run.Find("waterfall");
    const Value* emitted =
        waterfall != nullptr ? waterfall->Find("emitted") : nullptr;
    if (emitted != nullptr && emitted->is_number() &&
        static_cast<std::uint64_t>(emitted->number) !=
            reader.run(i).waterfall.emitted) {
      Fail(run_where + ".emitted",
           "index says " + std::to_string(reader.run(i).waterfall.emitted) +
               ", lineage.json says " +
               std::to_string(static_cast<std::uint64_t>(emitted->number)));
    }
  }
}

/// Validates the telemetry timeline: the reader's Parse() already
/// verifies framing (magic, version, every section checksum, table
/// closure), series density, event step-ordering, and event/series
/// cross-references, so structural failure is a single loud error here.
/// On top of that the summary block the manifest carries (written from
/// the in-memory Timeline before the artifact) must agree with the
/// artifact's own counts — a mismatch means manifest.json and
/// timeline.bin came from different runs.
void CheckTimelineFile(const std::string& path, const Value* manifest_root) {
  sisyphus::obs::TimelineReader reader;
  std::string error;
  if (!reader.OpenFile(path, &error)) {
    Fail(path, error);
    return;
  }
  std::printf("check %s\n", path.c_str());
  const std::string where = "timeline";
  std::uint64_t samples = 0;
  for (const sisyphus::obs::TimelineSeriesView& series : reader.series()) {
    samples += series.sample_count;
  }
  std::uint64_t level_shift = 0;
  std::uint64_t churn = 0;
  for (std::size_t i = 0; i < reader.events().size(); ++i) {
    const sisyphus::obs::DetectionEvent& event = reader.events()[i];
    switch (reader.series()[event.series].detector) {
      case sisyphus::obs::DetectorKind::kLevelShift:
        ++level_shift;
        break;
      case sisyphus::obs::DetectorKind::kChurn:
        ++churn;
        break;
      case sisyphus::obs::DetectorKind::kNone:
        Fail(where + ".events[" + std::to_string(i) + "]",
             "event on a series with no detector");
        break;
    }
  }
  if (manifest_root == nullptr) return;
  const Value* timeline = manifest_root->Find("timeline");
  if (timeline == nullptr || !timeline->is_object()) {
    Fail("manifest.timeline",
         "missing — manifest written without a timeline summary, or from "
         "a different run than timeline.bin");
    return;
  }
  const auto cross_check = [&](const char* key, std::uint64_t artifact) {
    const Value* json =
        Require(*timeline, "manifest.timeline", key, Value::Kind::kNumber);
    if (json != nullptr &&
        static_cast<std::uint64_t>(json->number) != artifact) {
      Fail(std::string("manifest.timeline.") + key,
           "manifest says " +
               std::to_string(static_cast<std::uint64_t>(json->number)) +
               ", timeline.bin says " + std::to_string(artifact));
    }
  };
  cross_check("steps", reader.steps());
  cross_check("first_step", reader.first_step());
  cross_check("last_step", reader.last_step());
  cross_check("series", reader.series().size());
  cross_check("samples", samples);
  cross_check("events", reader.events().size());
  cross_check("level_shift_events", level_shift);
  cross_check("churn_events", churn);
}

/// Loads one JSON artifact (shared loader, exact legacy diagnostics),
/// prints the "check <path>" breadcrumb, and runs its schema check.
/// `keep` (optional) receives the parsed root for cross-file checks.
bool LoadAndCheck(const std::string& path, void (*check)(const Value&),
                  Value* keep = nullptr) {
  Value local;
  Value& root = keep != nullptr ? *keep : local;
  if (!sisyphus::tools::LoadJsonArtifact(path, root, /*required=*/true,
                                         Fail)) {
    return false;
  }
  std::printf("check %s\n", path.c_str());
  check(root);
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: obscheck <obs-out-dir>\n"
      "       obscheck --manifest FILE | --metrics FILE | --trace FILE |"
      " --lineage FILE | --audit FILE | --timeline FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  if (std::strcmp(argv[1], "--manifest") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckManifest);
  } else if (std::strcmp(argv[1], "--metrics") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckMetrics);
  } else if (std::strcmp(argv[1], "--trace") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckTrace);
  } else if (std::strcmp(argv[1], "--lineage") == 0 && argc > 2) {
    LoadAndCheck(argv[2], CheckLineage);
  } else if (std::strcmp(argv[1], "--audit") == 0 && argc > 2) {
    CheckAuditFile(argv[2], nullptr);
  } else if (std::strcmp(argv[1], "--timeline") == 0 && argc > 2) {
    CheckTimelineFile(argv[2], nullptr);
  } else if (argv[1][0] == '-') {
    PrintUsage();
    return 1;
  } else {
    const std::string dir = argv[1];
    Value manifest_root;
    const bool have_manifest =
        LoadAndCheck(dir + "/manifest.json", CheckManifest, &manifest_root);
    LoadAndCheck(dir + "/metrics.json", CheckMetrics);
    LoadAndCheck(dir + "/trace.json", CheckTrace);
    // The writer emits the full artifact set, so a missing lineage.json,
    // audit.bin, or timeline.bin means the run died mid-write or the dir
    // predates the schema — either way "skip silently" would let a
    // broken producer pass CI. Use --lineage / --audit / --timeline on a
    // single file to validate legacy dirs piecemeal.
    Value lineage_root;
    const bool have_lineage =
        LoadAndCheck(dir + "/lineage.json", CheckLineage, &lineage_root);
    CheckAuditFile(dir + "/" + sisyphus::audit::kAuditFileName,
                   have_lineage ? &lineage_root : nullptr);
    CheckTimelineFile(dir + "/timeline.bin",
                      have_manifest ? &manifest_root : nullptr);
  }
  if (g_errors > 0) {
    std::printf("obscheck: %d violation(s)\n", g_errors);
    return 1;
  }
  std::printf("obscheck: OK\n");
  return 0;
}
