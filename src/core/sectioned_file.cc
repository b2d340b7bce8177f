#include "core/sectioned_file.h"

#include <cstdio>
#include <utility>

#include "core/binio.h"
#include "core/hash.h"

namespace sisyphus::core::sectioned {
namespace {

/// Header bytes covered by the header checksum.
constexpr std::uint64_t kHeaderChecksummed = 40;

Error Malformed(std::string what) {
  return Error(ErrorCode::kParseError, std::move(what));
}

std::string Describe(const Section& section) {
  return "kind " + std::to_string(section.kind) + ", run " +
         (section.run == kGlobalRun ? std::string("global")
                                    : std::to_string(section.run));
}

}  // namespace

void PadTo8(std::string& out) {
  out.resize((out.size() + 7) & ~std::size_t{7}, '\0');
}

Writer::Writer(Format format)
    : format_(format), file_(kHeaderSize, '\0') {
  SISYPHUS_REQUIRE(format.magic.size() == 8,
                   "sectioned::Writer: magic must be 8 bytes");
}

void Writer::Add(std::uint64_t kind, std::uint64_t run,
                 std::string_view payload) {
  PadTo8(file_);
  table_.push_back(
      {kind, run, file_.size(), payload.size(), Fnv1a64(payload)});
  file_.append(payload);
}

std::string Writer::Finish() && {
  PadTo8(file_);
  const std::uint64_t table_offset = file_.size();
  for (const Section& section : table_) {
    for (std::uint64_t field : {section.kind, section.run, section.offset,
                                section.size, section.checksum}) {
      binio::AppendLittleEndian(file_, field, 8);
    }
  }
  const std::uint64_t table_checksum =
      Fnv1a64(std::string_view(file_).substr(table_offset));
  binio::AppendLittleEndian(file_, table_checksum, 8);

  binio::Writer header;
  for (char c : format_.magic) header.PutU8(static_cast<std::uint8_t>(c));
  header.PutU32(format_.version);
  header.PutU32(0);  // flags
  header.PutU64(table_.size());
  header.PutU64(table_offset);
  header.PutU64(file_.size());
  header.PutU64(Fnv1a64(header.buffer()));
  file_.replace(0, kHeaderSize, header.buffer());
  return std::move(file_);
}

Status Reader::Open(std::string_view bytes, Format format) {
  bytes_ = std::string_view();
  table_.clear();
  verified_.clear();
  const std::uint64_t size = bytes.size();
  if (size < kHeaderSize + 8) {
    return Malformed("truncated (file smaller than " +
                     std::to_string(kHeaderSize + 8) + " bytes)");
  }
  if (bytes.substr(0, 8) != format.magic) return Malformed("bad magic");
  binio::Reader header(bytes.substr(8, kHeaderSize - 8));
  const std::uint32_t version = header.GetU32();
  header.GetU32();  // flags
  const std::uint64_t section_count = header.GetU64();
  const std::uint64_t table_offset = header.GetU64();
  const std::uint64_t file_size = header.GetU64();
  const std::uint64_t header_checksum = header.GetU64();
  if (version != format.version) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (Fnv1a64(bytes.substr(0, kHeaderChecksummed)) != header_checksum) {
    return Malformed("header checksum mismatch");
  }
  if (file_size != size) {
    return Malformed("file size mismatch (truncated or appended)");
  }
  // Cap the count by what the file can hold before multiplying or
  // allocating anything.
  if (section_count > (size - kHeaderSize - 8) / kEntrySize) {
    return Malformed("section count " + std::to_string(section_count) +
                     " exceeds the file");
  }
  const std::uint64_t table_bytes = section_count * kEntrySize;
  if (table_offset != size - 8 - table_bytes) {
    return Malformed("section table does not close the file");
  }
  const std::string_view table = bytes.substr(table_offset, table_bytes);
  binio::Reader trailer(bytes.substr(table_offset + table_bytes));
  if (Fnv1a64(table) != trailer.GetU64()) {
    return Malformed("section table checksum mismatch");
  }

  std::vector<Section> sections;
  sections.reserve(section_count);
  binio::Reader entries(table);
  for (std::uint64_t i = 0; i < section_count; ++i) {
    Section section;
    section.kind = entries.GetU64();
    section.run = entries.GetU64();
    section.offset = entries.GetU64();
    section.size = entries.GetU64();
    section.checksum = entries.GetU64();
    if (section.offset < kHeaderSize || section.offset % 8 != 0 ||
        !Fits(section.offset, section.size, table_offset)) {
      return Malformed("section " + std::to_string(i) + " (" +
                       Describe(section) + ") out of bounds");
    }
    sections.push_back(section);
  }
  bytes_ = bytes;
  table_ = std::move(sections);
  verified_.assign(table_.size(), 0);
  return Status::Ok();
}

Result<std::string_view> Reader::Payload(std::size_t index) const {
  const Section& section = table_[index];
  const std::string_view payload =
      bytes_.substr(section.offset, section.size);
  if (!verified_[index]) {
    if (Fnv1a64(payload) != section.checksum) {
      return Malformed("section checksum mismatch (" + Describe(section) +
                       ")");
    }
    verified_[index] = 1;
  }
  return payload;
}

Result<std::string_view> Reader::Find(std::uint64_t kind,
                                      std::uint64_t run) const {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    if (table_[i].kind == kind && table_[i].run == run) return Payload(i);
  }
  return Malformed("missing section (" + Describe({kind, run}) + ")");
}

Status Reader::VerifyAll() const {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    if (const auto payload = Payload(i); !payload.ok()) {
      return payload.error();
    }
  }
  return Status::Ok();
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "cannot open " + tmp + " for writing");
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return Error(ErrorCode::kCapacity, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error(ErrorCode::kCapacity, "cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace sisyphus::core::sectioned
