// Forgery helpers for the sectioned artifacts (audit.bin, timeline.bin):
// each takes a valid artifact, rewrites one field, and recomputes every
// checksum that covers it, so the forged file passes the checksums and
// reaches the bounds checks behind them. Shared by the reader fuzz test
// and the forge_artifact tool that feeds the tool-level ctest fixtures.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "audit/format.h"
#include "core/binio.h"
#include "core/hash.h"
#include "core/sectioned_file.h"
#include "obs/timeline.h"

namespace sisyphus::forge {

using core::sectioned::Format;
using core::sectioned::Section;

inline std::uint64_t LoadU64(std::string_view bytes, std::uint64_t offset) {
  return core::binio::Reader(bytes.substr(offset, 8)).GetU64();
}

inline void StoreU64(std::string& bytes, std::uint64_t offset,
                     std::uint64_t v) {
  std::string encoded;
  core::binio::AppendLittleEndian(encoded, v, 8);
  bytes.replace(offset, 8, encoded);
}

/// Recomputes the header checksum over bytes [0, 40).
inline void ResealHeader(std::string& bytes) {
  StoreU64(bytes, 40, core::Fnv1a64(std::string_view(bytes).substr(0, 40)));
}

/// Recomputes the table checksum from the header's section count and
/// table offset.
inline void ResealTable(std::string& bytes) {
  const std::uint64_t count = LoadU64(bytes, 16);
  const std::uint64_t table_offset = LoadU64(bytes, 24);
  const std::uint64_t table_bytes = count * core::sectioned::kEntrySize;
  StoreU64(bytes, table_offset + table_bytes,
           core::Fnv1a64(std::string_view(bytes).substr(table_offset,
                                                        table_bytes)));
}

/// Re-encodes a valid container section by section through the writer,
/// letting `edit` rewrite any payload first; checksums come out right.
inline std::string Rebuild(
    std::string_view bytes, Format format,
    const std::function<void(const Section&, std::string&)>& edit) {
  core::sectioned::Reader reader;
  if (!reader.Open(bytes, format).ok()) {
    throw std::invalid_argument("forge: input is not a valid container");
  }
  core::sectioned::Writer writer(format);
  for (std::size_t i = 0; i < reader.sections().size(); ++i) {
    const Section& section = reader.sections()[i];
    std::string payload(reader.Payload(i).value());
    edit(section, payload);
    writer.Add(section.kind, section.run, payload);
  }
  return std::move(writer).Finish();
}

/// (a) header section_count raised by `delta`.
inline std::string SectionCount(std::string bytes, std::uint64_t delta) {
  StoreU64(bytes, 16, LoadU64(bytes, 16) + delta);
  ResealHeader(bytes);
  return bytes;
}

/// (b) the offset of table entry `index` set so offset + size wraps to 0.
inline std::string SectionOffsetWrap(std::string bytes, std::size_t index) {
  const std::uint64_t entry =
      LoadU64(bytes, 24) + index * core::sectioned::kEntrySize;
  const std::uint64_t size = LoadU64(bytes, entry + 24);
  StoreU64(bytes, entry + 16, ~std::uint64_t{0} - size + 1);
  ResealTable(bytes);
  return bytes;
}

/// Adds `delta` to the u64 at `offset` inside every section of `kind`.
inline std::string PayloadU64(std::string_view bytes, Format format,
                              std::uint64_t kind, std::uint64_t offset,
                              std::uint64_t delta) {
  return Rebuild(bytes, format,
                 [&](const Section& section, std::string& payload) {
                   if (section.kind != kind) return;
                   StoreU64(payload, offset, LoadU64(payload, offset) + delta);
                 });
}

/// (c) every audit.bin unit-directory count raised by `delta`.
inline std::string UnitDirectoryCount(std::string_view bytes,
                                      std::uint64_t delta) {
  return PayloadU64(
      bytes, audit::kAuditFormat,
      static_cast<std::uint64_t>(audit::SectionKind::kUnitIndex), 0, delta);
}

/// (e) run 0's probes_attempted raised by `delta`. audit.bin stores no
/// attempted count — the reader derives it as emitted + probes_failed —
/// so the run header's probes_failed and a "forged" failure reason both
/// grow by `delta`: the run still conserves on its own, and only the
/// reconcile against metrics.json can tell.
inline std::string ProbesAttempted(std::string_view bytes,
                                   std::uint64_t delta) {
  return Rebuild(
      bytes, audit::kAuditFormat,
      [&](const Section& section, std::string& payload) {
        if (section.kind !=
                static_cast<std::uint64_t>(audit::SectionKind::kRunHeader) ||
            section.run != 0) {
          return;
        }
        core::binio::Reader in(payload);
        core::binio::Writer out;
        out.PutString(in.GetString());  // label
        // emitted, untracked, delivered, quarantined, archived
        for (int i = 0; i < 5; ++i) out.PutU64(in.GetU64());
        out.PutU64(in.GetU64() + delta);  // probes_failed
        const std::uint64_t reasons = in.GetU64();
        out.PutU64(reasons + 1);
        for (std::uint64_t i = 0; i < reasons && in.ok(); ++i) {
          out.PutString(in.GetString());
          out.PutU64(in.GetU64());
        }
        out.PutString("forged");
        out.PutU64(delta);
        if (!in.ok()) {
          throw std::invalid_argument("forge: unexpected audit run header");
        }
        const std::size_t rest = in.remaining();
        payload = std::move(out).Take() + payload.substr(payload.size() - rest);
      });
}

/// (d) timeline.bin meta: steps, last_step, and every series'
/// sample_count raised by `delta` (so the step-range and density checks
/// still hold).
inline std::string SampleCounts(std::string_view bytes, std::uint64_t delta) {
  return Rebuild(
      bytes, obs::kTimelineFormat,
      [&](const Section& section, std::string& payload) {
        if (section.kind !=
            static_cast<std::uint64_t>(obs::TimelineSectionKind::kMeta)) {
          return;
        }
        core::binio::Reader in(payload);
        core::binio::Writer out;
        out.PutString(in.GetString());
        out.PutU64(in.GetU64() + delta);  // steps
        out.PutU64(in.GetU64());          // first_step
        out.PutU64(in.GetU64() + delta);  // last_step
        const std::uint64_t series = in.GetU64();
        out.PutU64(series);
        out.PutU64(in.GetU64());  // event count
        for (std::uint64_t i = 0; i < series && in.ok(); ++i) {
          out.PutString(in.GetString());
          out.PutU8(in.GetU8());  // kind
          const std::uint8_t detector = in.GetU8();
          out.PutU8(detector);
          out.PutU64(in.GetU64());          // fingerprint
          out.PutU64(in.GetU64());          // first_step
          out.PutU64(in.GetU64() + delta);  // sample_count
          const auto kind = static_cast<obs::DetectorKind>(detector);
          const int params = kind == obs::DetectorKind::kLevelShift ? 4
                             : kind == obs::DetectorKind::kChurn    ? 1
                                                                    : 0;
          for (int p = 0; p < params; ++p) out.PutU64(in.GetU64());
        }
        if (!in.ok() || in.remaining() != 0) {
          throw std::invalid_argument("forge: unexpected timeline meta");
        }
        payload = std::move(out).Take();
      });
}

}  // namespace sisyphus::forge
