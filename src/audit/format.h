// On-disk layout of the indexed audit artifact (audit.bin, schema
// sisyphus.audit/1 — DESIGN.md §12).
//
// The file is a pure function of the final lineage ledger, so every
// determinism guarantee the ledger already carries (byte-identical at any
// SISYPHUS_THREADS via TaskObserver capture/replay, byte-identical across
// a durable kill/resume, which rebuilds it by re-ingesting the journal)
// transfers to audit.bin with no extra machinery.
//
// The file is a core/sectioned_file container (layout: DESIGN.md §12);
// this header adds only the audit schema: magic, version, and section
// kinds. Sections are 8-byte aligned so the mmap'd columnar arrays can be
// read through typed pointers without misaligned loads (UBSan-clean).
#pragma once

#include <cstdint>

#include "core/sectioned_file.h"

namespace sisyphus::audit {

inline constexpr core::sectioned::Format kAuditFormat{"SISYAUD1", 1};
inline constexpr const char* kAuditSchema = "sisyphus.audit/1";
inline constexpr const char* kAuditFileName = "audit.bin";

/// `run` value marking a file-global section.
inline constexpr std::uint64_t kAuditGlobalRun = core::sectioned::kGlobalRun;

/// Section kinds. Per run the writer emits one of each run-scoped kind;
/// kMeta is global. Unknown kinds are skipped by readers (forward
/// compatibility within version 1).
enum class SectionKind : std::uint64_t {
  /// Global: schema string, run count, stage names, fault-bit names.
  kMeta = 1,
  /// Per run: label + waterfall rollup (the conservation surface) +
  /// record/unit/estimate counts.
  kRunHeader = 2,
  /// Per run: columnar per-record arrays (index = id - 1), stages
  /// RESOLVED (fit marks folded in): u64 n, then 8-byte-aligned arrays
  /// vantage u32[n], intent u8[n], attempts u8[n], fault_mask u8[n],
  /// copies u8[n], stage u8[n], seen u8[n].
  kRecords = 3,
  /// Per run: for each of the 9 terminal stages, the record-id posting
  /// list (IdRunSet encoding) plus intent/fault/vantage facet counts.
  kTerminalIndex = 4,
  /// Per run: sorted fixed-stride unit directory (binary-searchable by
  /// name) with per-unit payloads: panel verdict, cell digests/id-runs.
  kUnitIndex = 5,
  /// Per run: sorted fixed-stride estimate directory (by label) with
  /// effect/p-value and precomputed treated/donor compositions.
  kEstimateIndex = 6,
  /// Per run: units and vantages ranked by contributing records (the
  /// --top-k surface), precomputed at write time.
  kRankings = 7,
};

}  // namespace sisyphus::audit
