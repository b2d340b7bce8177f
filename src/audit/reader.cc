#include "audit/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <optional>
#include <utility>

#include "core/binio.h"

namespace sisyphus::audit {
namespace {

using core::Error;
using core::ErrorCode;
using core::Result;
using core::Status;

std::map<std::string, std::uint64_t> GetCountMap(core::binio::Reader& r) {
  std::map<std::string, std::uint64_t> out;
  const std::uint64_t n = r.GetU64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.GetString();
    const std::uint64_t count = r.GetU64();
    if (r.ok()) out.emplace(std::move(key), count);
  }
  return out;
}

FacetCounts GetFacets(core::binio::Reader& r) {
  FacetCounts facets;
  facets.intents = GetCountMap(r);
  facets.faults = GetCountMap(r);
  facets.vantages = GetCountMap(r);
  return facets;
}

CompositionInfo GetComposition(core::binio::Reader& r) {
  CompositionInfo comp;
  comp.records = r.GetU64();
  comp.cells = r.GetU64();
  comp.digest = r.GetU64();
  comp.facets = GetFacets(r);
  return comp;
}

/// Binary-searches a directory section for `name`; returns the payload
/// bytes, or an empty view when absent, or an error when malformed.
/// Layout: u64 count, then count slots of {name_off, name_len,
/// payload_off, payload_len} (section-relative), then names and payloads.
Result<std::string_view> DirectoryLookup(std::string_view section,
                                         std::string_view name) {
  core::binio::Reader header(section);
  const std::uint64_t count = header.GetU64();
  if (!header.ok()) return Error(ErrorCode::kParseError, "directory too small");
  if (count > (section.size() - 8) / 32) {
    return Error(ErrorCode::kParseError, "directory slot table out of bounds");
  }
  // Name and payload of slot i, or nullopt when either overruns.
  struct Slot {
    std::string_view name;
    std::string_view payload;
  };
  const auto slot_at = [&](std::uint64_t i) -> std::optional<Slot> {
    core::binio::Reader r(section.substr(8 + i * 32, 32));
    const std::uint64_t name_off = r.GetU64();
    const std::uint64_t name_len = r.GetU64();
    const std::uint64_t payload_off = r.GetU64();
    const std::uint64_t payload_len = r.GetU64();
    if (!core::sectioned::Fits(name_off, name_len, section.size()) ||
        !core::sectioned::Fits(payload_off, payload_len, section.size())) {
      return std::nullopt;
    }
    return Slot{section.substr(name_off, name_len),
                section.substr(payload_off, payload_len)};
  };
  const auto out_of_bounds = [] {
    return Error(ErrorCode::kParseError, "directory entry out of bounds");
  };
  std::uint64_t lo = 0, hi = count;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::optional<Slot> slot = slot_at(mid);
    if (!slot) return out_of_bounds();
    if (slot->name < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= count) return std::string_view();
  const std::optional<Slot> slot = slot_at(lo);
  if (!slot) return out_of_bounds();
  if (slot->name != name) return std::string_view();
  return slot->payload;  // non-null: it points into the section
}

}  // namespace

AuditReader::~AuditReader() { Close(); }

void AuditReader::Close() {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
  file_ = core::sectioned::Reader();
  runs_.clear();
}

Error AuditReader::Malformed(const std::string& what) const {
  return Error(ErrorCode::kParseError, "audit: " + path_ + ": " + what);
}

Status AuditReader::Open(const std::string& path) {
  Close();
  path_ = path;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Error(ErrorCode::kNotFound, "audit: cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Malformed("cannot stat");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      return Malformed("mmap failed");
    }
    map_ = map;
    map_size_ = size;
  }
  ::close(fd);
  const Status status = LoadIndex();
  if (!status.ok()) Close();
  return status;
}

Status AuditReader::LoadIndex() {
  const Status container = file_.Open(
      std::string_view(static_cast<const char*>(map_), map_size_),
      kAuditFormat);
  if (!container.ok()) return Malformed(container.error().message());

  // -- meta + run headers (small; decoded eagerly so run_count()/run()
  //    need no error paths) --
  const Result<std::string_view> meta =
      Section(SectionKind::kMeta, kAuditGlobalRun);
  if (!meta.ok()) return meta.error();
  core::binio::Reader mr(meta.value());
  const std::string schema = mr.GetString();
  if (!mr.ok() || schema != kAuditSchema) {
    return Malformed("schema mismatch (want sisyphus.audit/1)");
  }
  const std::uint64_t run_count = mr.GetU64();
  // Every run owns sections of its own, so the table bounds the count.
  if (!mr.ok() || run_count > file_.sections().size()) {
    return Malformed("run count exceeds the section table");
  }
  runs_.reserve(static_cast<std::size_t>(run_count));
  for (std::uint64_t r = 0; r < run_count; ++r) {
    const Result<std::string_view> header =
        Section(SectionKind::kRunHeader, r);
    if (!header.ok()) return header.error();
    core::binio::Reader hr(header.value());
    RunSummary summary;
    summary.label = hr.GetString();
    summary.waterfall.emitted = hr.GetU64();
    summary.waterfall.untracked = hr.GetU64();
    summary.waterfall.delivered = hr.GetU64();
    summary.waterfall.quarantined_copies = hr.GetU64();
    summary.waterfall.archived_copies = hr.GetU64();
    summary.waterfall.probes_failed = hr.GetU64();
    summary.waterfall.failure_reasons = GetCountMap(hr);
    for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
      summary.waterfall.terminal[s] = hr.GetU64();
    }
    summary.waterfall.units_kept = hr.GetU64();
    summary.waterfall.units_dropped = hr.GetU64();
    summary.waterfall.units_empty = hr.GetU64();
    summary.waterfall.cells_observed = hr.GetU64();
    summary.waterfall.cells_masked = hr.GetU64();
    summary.record_rows = hr.GetU64();
    summary.unit_count = hr.GetU64();
    summary.estimate_count = hr.GetU64();
    if (!hr.ok()) return Malformed("run header decode failed");
    summary.waterfall.probes_attempted =
        summary.waterfall.emitted + summary.waterfall.probes_failed;
    runs_.push_back(std::move(summary));
  }
  return Status::Ok();
}

Result<std::string_view> AuditReader::Section(SectionKind kind,
                                              std::uint64_t run) const {
  const Result<std::string_view> payload =
      file_.Find(static_cast<std::uint64_t>(kind), run);
  if (!payload.ok()) return Malformed(payload.error().message());
  return payload;
}

Status AuditReader::VerifyAll() const {
  const Status status = file_.VerifyAll();
  if (!status.ok()) return Malformed(status.error().message());
  return status;
}

Result<RecordColumns> AuditReader::Records(std::size_t run) const {
  const Result<std::string_view> section =
      Section(SectionKind::kRecords, run);
  if (!section.ok()) return section.error();
  const std::string_view bytes = section.value();
  core::binio::Reader header(bytes);
  RecordColumns columns;
  columns.count = header.GetU64();
  if (!header.ok()) return Malformed("records section too small");
  // Each row takes 10 column bytes; bounding n by that first keeps the
  // size arithmetic below from wrapping.
  const std::uint64_t n = columns.count;
  const auto pad8 = [](std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; };
  std::uint64_t need = 8 + pad8(n * 4);
  for (int i = 0; i < 6; ++i) need += pad8(n);
  if (n > bytes.size() / 10 || need > bytes.size()) {
    return Malformed("records section truncated");
  }
  const char* p = bytes.data();
  std::uint64_t off = 8;
  columns.vantage = reinterpret_cast<const std::uint32_t*>(p + off);
  off += pad8(n * 4);
  const auto u8_column = [&]() {
    const std::uint8_t* column =
        reinterpret_cast<const std::uint8_t*>(p + off);
    off += pad8(n);
    return column;
  };
  columns.intent = u8_column();
  columns.attempts = u8_column();
  columns.fault_mask = u8_column();
  columns.copies = u8_column();
  columns.stage = u8_column();
  columns.seen = u8_column();
  return columns;
}

Result<TerminalSlice> AuditReader::Terminal(std::size_t run,
                                            obs::LineageStage stage) const {
  const Result<std::string_view> section =
      Section(SectionKind::kTerminalIndex, run);
  if (!section.ok()) return section.error();
  core::binio::Reader r(section.value());
  for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
    TerminalSlice slice;
    slice.count = r.GetU64();
    slice.id_runs = core::binio::GetU64Vector(r);
    slice.facets = GetFacets(r);
    if (!r.ok()) return Malformed("terminal index decode failed");
    if (static_cast<obs::LineageStage>(s) == stage) return slice;
  }
  return Malformed("terminal stage out of range");
}

Result<UnitInfo> AuditReader::FindUnit(std::size_t run,
                                       std::string_view name) const {
  const Result<std::string_view> section =
      Section(SectionKind::kUnitIndex, run);
  if (!section.ok()) return section.error();
  const Result<std::string_view> payload =
      DirectoryLookup(section.value(), name);
  if (!payload.ok()) return Malformed(payload.error().message());
  UnitInfo info;
  if (payload.value().data() == nullptr) return info;  // not found
  core::binio::Reader r(payload.value());
  info.found = true;
  info.dropped = r.GetBool();
  info.missing_fraction = r.GetDouble();
  info.observed_cells = r.GetU64();
  info.masked_cells = r.GetU64();
  info.used_treated = r.GetBool();
  info.used_donor = r.GetBool();
  info.dropped_id_runs = core::binio::GetU64Vector(r);
  const std::uint64_t cell_count = r.GetU64();
  for (std::uint64_t i = 0; i < cell_count && r.ok(); ++i) {
    CellInfo cell;
    cell.period = r.GetU32();
    cell.count = r.GetU64();
    cell.digest = r.GetU64();
    cell.runs = core::binio::GetU64Vector(r);
    info.cells.push_back(std::move(cell));
  }
  info.record_total = r.GetU64();
  if (!r.ok()) return Malformed("unit payload decode failed");
  return info;
}

Result<EstimateInfo> AuditReader::FindEstimate(std::size_t run,
                                               std::string_view label) const {
  const Result<std::string_view> section =
      Section(SectionKind::kEstimateIndex, run);
  if (!section.ok()) return section.error();
  const Result<std::string_view> payload =
      DirectoryLookup(section.value(), label);
  if (!payload.ok()) return Malformed(payload.error().message());
  EstimateInfo info;
  if (payload.value().data() == nullptr) return info;  // not found
  core::binio::Reader r(payload.value());
  info.found = true;
  info.treated = r.GetString();
  const std::uint64_t donor_count = r.GetU64();
  for (std::uint64_t i = 0; i < donor_count && r.ok(); ++i) {
    info.donors.push_back(r.GetString());
  }
  info.effect = r.GetDouble();
  info.p_value = r.GetDouble();
  info.treated_comp = GetComposition(r);
  info.donor_comp = GetComposition(r);
  if (!r.ok()) return Malformed("estimate payload decode failed");
  return info;
}

Result<Rankings> AuditReader::Ranked(std::size_t run) const {
  const Result<std::string_view> section =
      Section(SectionKind::kRankings, run);
  if (!section.ok()) return section.error();
  core::binio::Reader r(section.value());
  Rankings rankings;
  const std::uint64_t unit_count = r.GetU64();
  for (std::uint64_t i = 0; i < unit_count && r.ok(); ++i) {
    UnitRank unit;
    unit.name = r.GetString();
    unit.records = r.GetU64();
    unit.dropped = r.GetBool();
    rankings.units.push_back(std::move(unit));
  }
  const std::uint64_t vantage_count = r.GetU64();
  for (std::uint64_t i = 0; i < vantage_count && r.ok(); ++i) {
    VantageRank vantage;
    vantage.vantage = r.GetU32();
    vantage.records = r.GetU64();
    rankings.vantages.push_back(vantage);
  }
  if (!r.ok()) return Malformed("rankings decode failed");
  return rankings;
}

}  // namespace sisyphus::audit
