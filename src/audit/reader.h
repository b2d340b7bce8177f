// Zero-copy memory-mapped reader for audit.bin (format.h, DESIGN.md §12).
//
// Open() maps the file and validates the container header and section
// table (core/sectioned_file.h) plus the small meta and run-header
// sections — no other payload is touched, so opening a multi-gigabyte
// artifact is instant. Section payload checksums are verified lazily,
// once, on first access (VerifyAll() forces every section for --check /
// obscheck). Accessors return decoded views; the columnar record arrays
// are handed out as typed pointers straight into the mapping (sections
// are 8-byte aligned by the writer). Every count read from the file is
// bounded by the bytes that back it before it is used, so a forged file
// yields an error, never a crash.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "audit/format.h"
#include "core/result.h"
#include "core/sectioned_file.h"
#include "obs/lineage.h"

namespace sisyphus::audit {

/// Zero-copy view of one run's columnar record arrays (index = id - 1).
/// `stage` is the RESOLVED terminal stage (fit marks folded in).
struct RecordColumns {
  std::uint64_t count = 0;
  const std::uint32_t* vantage = nullptr;
  const std::uint8_t* intent = nullptr;
  const std::uint8_t* attempts = nullptr;
  const std::uint8_t* fault_mask = nullptr;
  const std::uint8_t* copies = nullptr;
  const std::uint8_t* stage = nullptr;
  const std::uint8_t* seen = nullptr;
};

/// Intent/fault/vantage breakdowns keyed exactly as the lineage JSON
/// renders them (intent names, fault-bit names, decimal vantage ids).
struct FacetCounts {
  std::map<std::string, std::uint64_t> intents;
  std::map<std::string, std::uint64_t> faults;
  std::map<std::string, std::uint64_t> vantages;
};

/// Posting list for one terminal stage of one run.
struct TerminalSlice {
  std::uint64_t count = 0;
  /// IdRunSet [gap, len, ...] encoding of the record ids.
  std::vector<std::uint64_t> id_runs;
  FacetCounts facets;
};

struct CellInfo {
  std::uint32_t period = 0;
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> runs;
};

struct UnitInfo {
  bool found = false;
  bool dropped = false;
  double missing_fraction = 0.0;
  std::uint64_t observed_cells = 0;
  std::uint64_t masked_cells = 0;
  bool used_treated = false;
  bool used_donor = false;
  std::vector<std::uint64_t> dropped_id_runs;
  std::vector<CellInfo> cells;
  std::uint64_t record_total = 0;
};

struct CompositionInfo {
  std::uint64_t records = 0;
  std::uint64_t cells = 0;
  std::uint64_t digest = 0;
  FacetCounts facets;
};

struct EstimateInfo {
  bool found = false;
  std::string treated;
  std::vector<std::string> donors;
  double effect = 0.0;
  double p_value = 0.0;  ///< NaN = not applicable
  CompositionInfo treated_comp;
  CompositionInfo donor_comp;
};

struct UnitRank {
  std::string name;
  std::uint64_t records = 0;
  bool dropped = false;
};

struct VantageRank {
  std::uint32_t vantage = 0;
  std::uint64_t records = 0;
};

struct Rankings {
  std::vector<UnitRank> units;
  std::vector<VantageRank> vantages;
};

/// Per-run rollup decoded from the run-header section at Open() time.
struct RunSummary {
  std::string label;
  obs::LineageWaterfall waterfall;
  std::uint64_t record_rows = 0;  ///< columnar rows (= emitted + untracked)
  std::uint64_t unit_count = 0;
  std::uint64_t estimate_count = 0;
};

class AuditReader {
 public:
  AuditReader() = default;
  ~AuditReader();
  AuditReader(const AuditReader&) = delete;
  AuditReader& operator=(const AuditReader&) = delete;

  /// Maps and validates header + section table + meta/run headers.
  /// On failure the reader stays closed.
  core::Status Open(const std::string& path);
  bool is_open() const { return map_ != nullptr; }

  std::size_t run_count() const { return runs_.size(); }
  const RunSummary& run(std::size_t index) const { return runs_[index]; }

  /// Zero-copy columnar record view (verifies the section on first use).
  core::Result<RecordColumns> Records(std::size_t run) const;
  /// Posting list + facets for one terminal stage.
  core::Result<TerminalSlice> Terminal(std::size_t run,
                                       obs::LineageStage stage) const;
  /// Binary search in the unit directory; .found is false when absent.
  core::Result<UnitInfo> FindUnit(std::size_t run,
                                  std::string_view name) const;
  /// Binary search in the estimate directory (first insertion wins among
  /// duplicate labels, matching the JSON scan).
  core::Result<EstimateInfo> FindEstimate(std::size_t run,
                                          std::string_view label) const;
  /// Units/vantages ranked by contributing records (write-time order).
  core::Result<Rankings> Ranked(std::size_t run) const;

  /// Forces checksum verification of every section.
  core::Status VerifyAll() const;

 private:
  /// Returns the section's payload bytes, verifying its checksum once.
  core::Result<std::string_view> Section(SectionKind kind,
                                         std::uint64_t run) const;
  /// "audit: <path>: <what>" parse error.
  core::Error Malformed(const std::string& what) const;
  /// Validates the container and decodes meta + run headers.
  core::Status LoadIndex();
  void Close();

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  std::string path_;
  core::sectioned::Reader file_;
  std::vector<RunSummary> runs_;
};

}  // namespace sisyphus::audit
