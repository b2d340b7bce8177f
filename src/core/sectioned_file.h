// The sectioned binary container behind audit.bin and timeline.bin: a
// checksummed header, 8-byte-aligned sections, and a checksummed section
// table that closes the file. DESIGN.md §12 documents the byte layout. A
// format built on the container supplies only its magic, version, section
// kinds, and payload codecs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"

namespace sisyphus::core::sectioned {

inline constexpr std::uint64_t kHeaderSize = 48;
inline constexpr std::uint64_t kEntrySize = 40;
/// `run` value marking a file-global section.
inline constexpr std::uint64_t kGlobalRun = ~std::uint64_t{0};

/// Identifies a format: an 8-byte magic and a version number.
struct Format {
  std::string_view magic;
  std::uint32_t version = 0;
};

/// One section-table entry.
struct Section {
  std::uint64_t kind = 0;
  std::uint64_t run = kGlobalRun;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// True when [offset, offset + length) lies inside [0, size), computed
/// without overflow.
constexpr bool Fits(std::uint64_t offset, std::uint64_t length,
                    std::uint64_t size) {
  return offset <= size && length <= size - offset;
}

/// Zero-pads `out` to a multiple of 8 bytes.
void PadTo8(std::string& out);

/// Builds a container in one growing buffer: sections are appended in
/// place as they are added; Finish() appends the table and fills in the
/// header. Equal inputs give equal bytes.
class Writer {
 public:
  explicit Writer(Format format);

  /// Appends `payload` as the next section, 8-byte aligned.
  void Add(std::uint64_t kind, std::uint64_t run, std::string_view payload);

  /// Appends the table and its checksum, writes the header, and returns
  /// the finished file.
  std::string Finish() &&;

 private:
  Format format_;
  std::string file_;
  std::vector<Section> table_;
};

/// Validating reader over caller-owned bytes (a mapping or a string that
/// must outlive the reader). Open() checks the header and the table only;
/// each section's checksum is verified once, on first access.
class Reader {
 public:
  /// Checks magic, version, header checksum, file size, that the table
  /// closes the file, its checksum, and that every section is 8-byte
  /// aligned and lies between the header and the table. Error messages
  /// carry no prefix; callers add their own.
  Status Open(std::string_view bytes, Format format);

  const std::vector<Section>& sections() const { return table_; }

  /// Payload of section `index` (< sections().size()), verified once.
  Result<std::string_view> Payload(std::size_t index) const;
  /// Payload of the first section with this kind and run.
  Result<std::string_view> Find(std::uint64_t kind, std::uint64_t run) const;
  /// Verifies every section's checksum.
  Status VerifyAll() const;

 private:
  std::string_view bytes_;
  std::vector<Section> table_;
  mutable std::vector<std::uint8_t> verified_;  ///< per table entry
};

/// Writes `bytes` to `<path>.tmp`, then renames it over `path`, so a reader
/// never sees a torn file.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

}  // namespace sisyphus::core::sectioned
