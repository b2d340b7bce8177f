// lineageq — audit CLI over a run's indexed lineage artifact (audit.bin).
//
//   lineageq <obs-dir> [--run LABEL]          waterfall totals per stage
//   lineageq <obs-dir> --unit "ASN / City"    records behind a unit's series
//   lineageq <obs-dir> --estimate LABEL       treated vs donor composition
//   lineageq <obs-dir> --terminal STAGE       posting list for one terminal
//   lineageq <obs-dir> --intent               records by measurement intent
//   lineageq <obs-dir> --vantage              records by vantage PoP
//   lineageq <obs-dir> --top-k N              units/vantages by records
//   lineageq <obs-dir> --check                conservation audit
//   lineageq <obs-dir> --serve                REPL/batch query loop (stdin)
//
// Every mode answers from audit.bin through the memory-mapped AuditReader
// (DESIGN.md §12): opening is O(index) and a query touches only the
// sections it needs. A missing or invalid audit.bin is a loud error. The
// run's lineage.json holds the same ledger as text for other readers;
// lineageq never parses it.
//
// `--check` verifies per-run conservation (terminal stages partition the
// emitted records, copies sum to delivered, the posting lists agree with
// the columnar stages) and then reconciles the summed waterfall against
// the probe / store / panel counters in the sibling metrics.json — any
// mismatch means a record was double-counted or lost between layers, and
// the tool exits 1.
#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "artifact_io.h"
#include "audit/reader.h"
#include "core/json.h"
#include "obs/lineage.h"

namespace {

using sisyphus::audit::AuditReader;
using sisyphus::audit::FacetCounts;
using sisyphus::core::json::Value;
using sisyphus::obs::kLineageStageCount;
using sisyphus::obs::LineageStage;
using sisyphus::obs::LineageWaterfall;

int g_errors = 0;
/// The open audit.bin; reader errors are reported against it.
std::string g_audit_path;

void Fail(const std::string& where, const std::string& what) {
  std::printf("FAIL %s: %s\n", where.c_str(), what.c_str());
  ++g_errors;
}

/// The result's value, or nullptr after reporting its error.
template <typename T>
const T* Answer(const sisyphus::core::Result<T>& result) {
  if (result.ok()) return &result.value();
  Fail(g_audit_path, result.error().message());
  return nullptr;
}

const char* StageName(std::size_t stage) {
  return sisyphus::obs::ToString(static_cast<LineageStage>(stage));
}

std::string DigestHex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buffer);
}

/// Parses a positive decimal count; false on a sign, trailing junk, zero
/// or overflow.
bool ParseCount(const std::string& text, std::size_t& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value == 0) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

/// Prints `count` padded plus its share of `total` ("  1234   3.2%").
void PrintShare(std::uint64_t count, std::uint64_t total) {
  const double pct =
      total > 0 ? 100.0 * static_cast<double>(count) / static_cast<double>(total)
                : 0.0;
  std::printf("%10llu  %5.1f%%\n", static_cast<unsigned long long>(count), pct);
}

// ---------------------------------------------------------------------------
// Printers, one per query mode, over the reader's own result types.

void PrintWaterfall(const LineageWaterfall& w) {
  std::printf("probes attempted %llu  failed %llu  emitted %llu  "
              "delivered copies %llu\n",
              static_cast<unsigned long long>(w.probes_attempted),
              static_cast<unsigned long long>(w.probes_failed),
              static_cast<unsigned long long>(w.emitted),
              static_cast<unsigned long long>(w.delivered));
  for (const auto& [reason, count] : w.failure_reasons) {
    std::printf("  failure %-24s %10llu\n", reason.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("  %-18s %10s  %6s\n", "terminal stage", "records", "share");
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    if (w.terminal[s] == 0) continue;
    std::printf("  %-18s ", StageName(s));
    PrintShare(w.terminal[s], w.emitted);
  }
  std::printf("panel: units kept %llu  dropped %llu  empty %llu  "
              "cells observed %llu  masked %llu\n",
              static_cast<unsigned long long>(w.units_kept),
              static_cast<unsigned long long>(w.units_dropped),
              static_cast<unsigned long long>(w.units_empty),
              static_cast<unsigned long long>(w.cells_observed),
              static_cast<unsigned long long>(w.cells_masked));
}

void PrintUnit(const std::string& unit,
               const sisyphus::audit::UnitInfo& info) {
  std::printf("unit '%s': %s  missing_fraction %.3f  observed cells %llu  "
              "masked %llu\n",
              unit.c_str(), info.dropped ? "DROPPED (sparsity)" : "kept",
              info.missing_fraction,
              static_cast<unsigned long long>(info.observed_cells),
              static_cast<unsigned long long>(info.masked_cells));
  std::printf("used as: treated=%s donor=%s\n",
              info.used_treated ? "yes" : "no",
              info.used_donor ? "yes" : "no");
  std::uint64_t records = 0;
  for (const sisyphus::audit::CellInfo& cell : info.cells) {
    records += cell.count;
  }
  std::printf("%llu records across %zu non-empty cells\n",
              static_cast<unsigned long long>(records), info.cells.size());
  std::printf("  %-8s %8s  %s\n", "period", "records", "digest");
  for (const sisyphus::audit::CellInfo& cell : info.cells) {
    std::printf("  %-8llu %8llu  %s\n",
                static_cast<unsigned long long>(cell.period),
                static_cast<unsigned long long>(cell.count),
                DigestHex(cell.digest).c_str());
  }
}

/// One "    intents:  a=1  b=2" facet line, capped at 8 entries.
void PrintFacetLine(const char* facet,
                    const std::map<std::string, std::uint64_t>& counts) {
  if (counts.empty()) return;
  std::printf("    %s:", facet);
  std::size_t shown = 0;
  for (const auto& [name, count] : counts) {
    if (++shown > 8) {
      std::printf("  ... (%zu more)", counts.size() - 8);
      break;
    }
    std::printf("  %s=%llu", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
}

void PrintFacets(const FacetCounts& facets) {
  PrintFacetLine("intents", facets.intents);
  PrintFacetLine("faults", facets.faults);
  PrintFacetLine("vantages", facets.vantages);
}

void PrintComposition(const char* prefix,
                      const sisyphus::audit::CompositionInfo& comp) {
  std::printf("  %-7s pool: %llu records in %llu cells  digest %s\n", prefix,
              static_cast<unsigned long long>(comp.records),
              static_cast<unsigned long long>(comp.cells),
              DigestHex(comp.digest).c_str());
  PrintFacets(comp.facets);
}

void PrintEstimate(const std::string& label,
                   const sisyphus::audit::EstimateInfo& info) {
  std::printf("estimate '%s': treated '%s'  effect %.4f", label.c_str(),
              info.treated.c_str(), info.effect);
  if (!std::isnan(info.p_value)) std::printf("  p=%.4f", info.p_value);
  std::printf("  donors %zu\n", info.donors.size());
  PrintComposition("treated", info.treated_comp);
  PrintComposition("donor", info.donor_comp);
}

/// Whole-run intent or vantage counts. Every record resolves to exactly
/// one terminal stage, so the nine per-stage facet maps partition the run:
/// summing them answers from the index without touching the columnar
/// arrays (O(facets), not O(records)).
void PrintFacetSummary(const AuditReader& audit, std::size_t run,
                       bool intents) {
  std::map<std::string, std::uint64_t> counts;
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    const auto slice = audit.Terminal(run, static_cast<LineageStage>(s));
    if (Answer(slice) == nullptr) return;
    const FacetCounts& facets = slice.value().facets;
    for (const auto& [name, count] :
         intents ? facets.intents : facets.vantages) {
      counts[name] += count;
    }
  }
  const std::uint64_t rows = audit.run(run).record_rows;
  std::printf("%llu records across %zu %s:\n",
              static_cast<unsigned long long>(rows), counts.size(),
              intents ? "intents" : "vantages");
  for (const auto& [name, count] : counts) {
    std::printf("  %-18s ", name.c_str());
    PrintShare(count, rows);
  }
}

void PrintTopK(const sisyphus::audit::Rankings& ranked, std::size_t k) {
  const std::size_t unit_count = std::min(k, ranked.units.size());
  std::printf("top %zu of %zu units by contributing records:\n", unit_count,
              ranked.units.size());
  for (std::size_t i = 0; i < unit_count; ++i) {
    const sisyphus::audit::UnitRank& unit = ranked.units[i];
    std::printf("  %10llu  %s%s\n",
                static_cast<unsigned long long>(unit.records),
                unit.name.c_str(), unit.dropped ? "  (dropped)" : "");
  }
  const std::size_t vantage_count = std::min(k, ranked.vantages.size());
  std::printf("top %zu of %zu vantages by records:\n", vantage_count,
              ranked.vantages.size());
  for (std::size_t i = 0; i < vantage_count; ++i) {
    const sisyphus::audit::VantageRank& vantage = ranked.vantages[i];
    std::printf("  %10llu  vantage %u\n",
                static_cast<unsigned long long>(vantage.records),
                static_cast<unsigned>(vantage.vantage));
  }
}

// ---------------------------------------------------------------------------
// --check

/// Summed-across-runs waterfall, reconciled against metrics.json at the end.
struct CheckTotals {
  std::uint64_t attempted = 0, failed = 0, emitted = 0;
  std::uint64_t archived = 0, quarantined = 0;
  std::uint64_t shed = 0;
  std::uint64_t units_kept = 0, units_dropped = 0, units_empty = 0;
  std::uint64_t cells_observed = 0, cells_masked = 0;
};

/// Audits one run's conservation and adds its waterfall to `sums`. The
/// index stores no probes_attempted of its own — the reader derives it as
/// emitted + probes_failed — so that identity holds by construction and
/// the attempted count is checked against metrics.json in Reconcile.
void CheckRun(const AuditReader& audit, std::size_t run, CheckTotals& sums) {
  const sisyphus::audit::RunSummary& summary = audit.run(run);
  const LineageWaterfall& w = summary.waterfall;
  const std::string& where = summary.label;

  std::uint64_t reason_sum = 0;
  for (const auto& [_, count] : w.failure_reasons) reason_sum += count;
  if (reason_sum != w.probes_failed) {
    Fail(where, "failure_reasons do not sum to probes_failed");
  }
  if (w.untracked != 0) {
    Fail(where, std::to_string(w.untracked) +
                    " record(s) never reached a terminal state");
  }
  std::uint64_t terminal_sum = 0;
  for (std::uint64_t count : w.terminal) terminal_sum += count;
  if (terminal_sum != w.emitted) {
    Fail(where, "terminal stages sum to " + std::to_string(terminal_sum) +
                    ", emitted is " + std::to_string(w.emitted));
  }
  if (w.archived_copies + w.quarantined_copies != w.delivered) {
    Fail(where, "archived + quarantined copies != delivered");
  }
  if (summary.record_rows != w.emitted) {
    Fail(where + ".records",
         "count " + std::to_string(summary.record_rows) +
             " != waterfall.emitted " + std::to_string(w.emitted));
  }

  // Recompute the stage histogram and copy total from the columnar
  // section, then cross-check the terminal posting lists against it —
  // the index must agree with the raw columns it claims to summarize.
  const auto records = audit.Records(run);
  const sisyphus::audit::RecordColumns* columns = Answer(records);
  if (columns == nullptr) return;
  std::array<std::uint64_t, kLineageStageCount> histogram{};
  std::uint64_t copy_sum = 0;
  for (std::uint64_t i = 0; i < columns->count; ++i) {
    const std::uint8_t stage = columns->stage[i];
    if (stage < kLineageStageCount) ++histogram[stage];
    copy_sum += columns->copies[i];
  }
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    const std::string name = StageName(s);
    if (w.terminal[s] != histogram[s]) {
      Fail(where + ".terminal." + name,
           "rollup says " + std::to_string(w.terminal[s]) +
               ", per-record stages say " + std::to_string(histogram[s]));
    }
    const auto slice = audit.Terminal(run, static_cast<LineageStage>(s));
    if (Answer(slice) != nullptr && slice.value().count != histogram[s]) {
      Fail(where + ".terminal_index." + name,
           "posting list has " + std::to_string(slice.value().count) +
               " id(s), per-record stages say " +
               std::to_string(histogram[s]));
    }
  }
  if (copy_sum != w.delivered) {
    Fail(where + ".records.copies",
         "sum " + std::to_string(copy_sum) + " != waterfall.delivered " +
             std::to_string(w.delivered));
  }

  sums.attempted += w.probes_attempted;
  sums.failed += w.probes_failed;
  sums.emitted += w.emitted;
  sums.archived += w.archived_copies;
  sums.quarantined += w.quarantined_copies;
  // Records dropped by the streaming overload-shed policy terminate in
  // shed_overload with zero delivered copies, so they count toward
  // emitted but not toward archived/quarantined — reconciled against the
  // measure.stream.shed_overload counter below.
  sums.shed +=
      w.terminal[static_cast<std::size_t>(LineageStage::kShedOverload)];
  sums.units_kept += w.units_kept;
  sums.units_dropped += w.units_dropped;
  sums.units_empty += w.units_empty;
  sums.cells_observed += w.cells_observed;
  sums.cells_masked += w.cells_masked;
}

void Reconcile(const CheckTotals& sums, const Value& metrics) {
  const Value* counters = metrics.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    Fail("metrics.counters", "missing");
    return;
  }
  const auto expect = [&](const char* counter, std::uint64_t lineage_total) {
    // An absent counter reads 0: compiled-out builds have nothing to
    // reconcile.
    const Value* found = counters->Find(counter);
    const std::uint64_t metric =
        found != nullptr && found->is_number()
            ? static_cast<std::uint64_t>(found->number)
            : 0;
    if (metric != lineage_total) {
      Fail(std::string("reconcile.") + counter,
           "metrics.json says " + std::to_string(metric) +
               ", lineage waterfall sums to " + std::to_string(lineage_total));
    }
  };
  expect("measure.probes.attempted", sums.attempted);
  expect("measure.probes.failed", sums.failed);
  expect("measure.probes.succeeded", sums.emitted);
  expect("measure.store.archived", sums.archived);
  expect("measure.store.quarantined", sums.quarantined);
  expect("measure.stream.shed_overload", sums.shed);
  expect("measure.panel.units_kept", sums.units_kept);
  expect("measure.panel.units_dropped", sums.units_dropped);
  expect("measure.panel.units_empty", sums.units_empty);
  expect("measure.panel.cells_observed", sums.cells_observed);
  expect("measure.panel.cells_masked", sums.cells_masked);
}

/// --check always audits every run: the metrics counters accumulate
/// across the whole process, so reconciliation needs the full sum.
int RunCheck(const AuditReader& audit, const std::string& dir) {
  CheckTotals sums;
  if (const auto status = audit.VerifyAll(); !status.ok()) {
    Fail(g_audit_path, status.error().message());
  } else {
    for (std::size_t i = 0; i < audit.run_count(); ++i) {
      CheckRun(audit, i, sums);
    }
  }
  if (sums.emitted == 0) {
    Fail("check", "zero emitted records across all runs — nothing was "
                  "measured, so the audit is vacuous");
  }
  Value metrics;
  if (sisyphus::tools::LoadJsonArtifact(dir + "/metrics.json", metrics,
                                        /*required=*/true, Fail)) {
    Reconcile(sums, metrics);
  }
  if (g_errors > 0) {
    std::printf("lineageq --check: %d violation(s)\n", g_errors);
    return 1;
  }
  std::printf("lineageq --check: OK — %llu emitted record(s) across %zu "
              "run(s) all reconcile\n",
              static_cast<unsigned long long>(sums.emitted),
              audit.run_count());
  return 0;
}

// ---------------------------------------------------------------------------
// Mode dispatch (shared between one-shot CLI and --serve)

enum class Mode {
  kWaterfall,
  kUnit,
  kEstimate,
  kTerminal,
  kIntent,
  kVantage,
  kTopK,
};

struct Query {
  Mode mode = Mode::kWaterfall;
  std::string arg;           ///< unit name / estimate label / stage name
  std::string run_filter;
  std::size_t top_k = 5;
};

/// Resolves a terminal stage name from the legend; records a Fail and
/// returns false for unknown names.
bool ResolveStage(const std::string& name, LineageStage& out) {
  std::string known;
  for (std::size_t s = 0; s < kLineageStageCount; ++s) {
    if (name == StageName(s)) {
      out = static_cast<LineageStage>(s);
      return true;
    }
    if (!known.empty()) known += ", ";
    known += StageName(s);
  }
  Fail("--terminal", "unknown stage '" + name + "' (known: " + known + ")");
  return false;
}

/// Answers `query` for one run.
void AnswerRun(const AuditReader& audit, std::size_t run, const Query& query,
               LineageStage stage) {
  switch (query.mode) {
    case Mode::kWaterfall:
      PrintWaterfall(audit.run(run).waterfall);
      break;
    case Mode::kUnit: {
      const auto unit = audit.FindUnit(run, query.arg);
      const auto* info = Answer(unit);
      if (info == nullptr) break;
      if (!info->found) {
        Fail("--unit",
             "'" + query.arg + "' is not in this run's panel ledger");
      } else {
        PrintUnit(query.arg, *info);
      }
      break;
    }
    case Mode::kEstimate: {
      if (audit.run(run).estimate_count == 0) {
        Fail("--estimate", "this run recorded no estimates");
        break;
      }
      const auto estimate = audit.FindEstimate(run, query.arg);
      const auto* info = Answer(estimate);
      if (info == nullptr) break;
      if (!info->found) {
        Fail("--estimate", "'" + query.arg + "' not found in this run");
      } else {
        PrintEstimate(query.arg, *info);
      }
      break;
    }
    case Mode::kTerminal: {
      const auto slice = audit.Terminal(run, stage);
      if (const auto* info = Answer(slice)) {
        std::printf("terminal '%s': ", query.arg.c_str());
        PrintShare(info->count, audit.run(run).waterfall.emitted);
        PrintFacets(info->facets);
      }
      break;
    }
    case Mode::kIntent:
    case Mode::kVantage:
      PrintFacetSummary(audit, run, query.mode == Mode::kIntent);
      break;
    case Mode::kTopK: {
      const auto ranked = audit.Ranked(run);
      if (const auto* info = Answer(ranked)) PrintTopK(*info, query.top_k);
      break;
    }
  }
}

int RunQuery(const AuditReader& audit, const Query& query) {
  LineageStage stage = LineageStage::kEmitted;
  if (query.mode == Mode::kTerminal && !ResolveStage(query.arg, stage)) {
    return 1;
  }
  bool matched_run = query.run_filter.empty();
  for (std::size_t i = 0; i < audit.run_count(); ++i) {
    const std::string& label = audit.run(i).label;
    if (!query.run_filter.empty() && label != query.run_filter) continue;
    matched_run = true;
    std::printf("== run: %s ==\n", label.c_str());
    AnswerRun(audit, i, query, stage);
    std::printf("\n");
  }
  if (!matched_run) {
    std::printf("no run labeled '%s' (have %zu run(s))\n",
                query.run_filter.c_str(), audit.run_count());
    return 1;
  }
  return g_errors > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --serve: REPL/batch loop. One command per line on stdin, answers on
// stdout (identical bytes to the one-shot modes; the banner and prompts
// go to stderr so piped output can be diffed against one-shot runs).
// Errors within a command are reported but do not end the session.

int Serve(const AuditReader& audit, const std::string& dir) {
  std::fprintf(stderr,
               "lineageq: serving %zu run(s); commands: waterfall [RUN] | "
               "unit NAME | estimate LABEL | terminal STAGE | intent | "
               "vantage | topk [N] | check | quit\n",
               audit.run_count());
  std::string line;
  while (std::getline(std::cin, line)) {
    // Tokenize: first word is the command, the rest is the argument.
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    const std::size_t split = line.find_first_of(" \t", start);
    const std::string command = line.substr(
        start, split == std::string::npos ? std::string::npos : split - start);
    std::string arg;
    if (split != std::string::npos) {
      const std::size_t arg_start = line.find_first_not_of(" \t", split);
      if (arg_start != std::string::npos) {
        arg = line.substr(arg_start,
                          line.find_last_not_of(" \t") - arg_start + 1);
      }
    }
    if (command == "quit" || command == "exit") break;
    g_errors = 0;
    Query query;
    if (command == "waterfall") {
      query.mode = Mode::kWaterfall;
      query.run_filter = arg;
    } else if (command == "unit") {
      query.mode = Mode::kUnit;
      query.arg = arg;
    } else if (command == "estimate") {
      query.mode = Mode::kEstimate;
      query.arg = arg;
    } else if (command == "terminal") {
      query.mode = Mode::kTerminal;
      query.arg = arg;
    } else if (command == "intent") {
      query.mode = Mode::kIntent;
    } else if (command == "vantage") {
      query.mode = Mode::kVantage;
    } else if (command == "topk") {
      query.mode = Mode::kTopK;
      if (!arg.empty() && !ParseCount(arg, query.top_k)) {
        std::printf("FAIL topk: '%s' is not a positive count\n\n",
                    arg.c_str());
        std::fflush(stdout);
        continue;
      }
    } else if (command == "check") {
      (void)RunCheck(audit, dir);
      std::printf("\n");
      std::fflush(stdout);
      continue;
    } else {
      std::printf("FAIL serve: unknown command '%s'\n\n", command.c_str());
      std::fflush(stdout);
      continue;
    }
    (void)RunQuery(audit, query);
    std::fflush(stdout);
  }
  return 0;
}

void PrintUsage() {
  std::printf(
      "usage: lineageq <obs-out-dir> [--run LABEL] [--unit \"ASN / City\"]\n"
      "                [--estimate LABEL] [--terminal STAGE] [--intent]\n"
      "                [--vantage] [--top-k N] [--check] [--serve]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    PrintUsage();
    return 1;
  }
  const std::string dir = argv[1];
  Query query;
  std::string unit, estimate, terminal;
  bool intent = false, vantage = false, top_k = false;
  bool check = false, serve = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      query.run_filter = argv[++i];
    } else if (std::strcmp(argv[i], "--unit") == 0 && i + 1 < argc) {
      unit = argv[++i];
    } else if (std::strcmp(argv[i], "--estimate") == 0 && i + 1 < argc) {
      estimate = argv[++i];
    } else if (std::strcmp(argv[i], "--terminal") == 0 && i + 1 < argc) {
      terminal = argv[++i];
    } else if (std::strcmp(argv[i], "--intent") == 0) {
      intent = true;
    } else if (std::strcmp(argv[i], "--vantage") == 0) {
      vantage = true;
    } else if (std::strcmp(argv[i], "--top-k") == 0 && i + 1 < argc &&
               ParseCount(argv[i + 1], query.top_k)) {
      ++i;
      top_k = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else {
      PrintUsage();
      return 1;
    }
  }

  AuditReader audit;
  g_audit_path = dir + "/" + sisyphus::audit::kAuditFileName;
  if (const auto status = audit.Open(g_audit_path); !status.ok()) {
    Fail(g_audit_path, status.error().message());
    return 1;
  }
  if (audit.run_count() == 0) {
    Fail("audit.runs",
         "no runs recorded — artifact truncated, or the producing binary "
         "ran with lineage disabled");
    return 1;
  }

  if (serve) return Serve(audit, dir);
  if (check) return RunCheck(audit, dir);
  if (!unit.empty()) {
    query.mode = Mode::kUnit;
    query.arg = unit;
  } else if (!estimate.empty()) {
    query.mode = Mode::kEstimate;
    query.arg = estimate;
  } else if (!terminal.empty()) {
    query.mode = Mode::kTerminal;
    query.arg = terminal;
  } else if (intent) {
    query.mode = Mode::kIntent;
  } else if (vantage) {
    query.mode = Mode::kVantage;
  } else if (top_k) {
    query.mode = Mode::kTopK;
  }
  return RunQuery(audit, query);
}
