// Tests for the sectioned container shared by audit.bin and timeline.bin
// (core/sectioned_file, DESIGN.md §12): writer/reader round trip, lazy
// once-only checksum verification, and rejection of every framing
// violation the reader checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "artifact_forge.h"
#include "core/sectioned_file.h"

namespace sisyphus {
namespace {

using core::sectioned::Format;
using core::sectioned::kGlobalRun;
using core::sectioned::Reader;
using core::sectioned::Writer;

constexpr Format kFormat{"TESTFMT1", 3};

std::string ThreeSections() {
  Writer writer(kFormat);
  writer.Add(1, kGlobalRun, "meta");
  writer.Add(2, 0, "");
  writer.Add(2, 1, "payload of run one");
  return std::move(writer).Finish();
}

std::string MessageOf(const core::Status& status) {
  return status.ok() ? "" : status.error().message();
}

TEST(SectionedFileTest, RoundTripsSectionsInOrderAndAligned) {
  const std::string file = ThreeSections();
  Reader reader;
  ASSERT_TRUE(reader.Open(file, kFormat).ok());
  ASSERT_EQ(reader.sections().size(), 3u);
  for (const core::sectioned::Section& section : reader.sections()) {
    EXPECT_EQ(section.offset % 8, 0u);
    EXPECT_GE(section.offset, core::sectioned::kHeaderSize);
  }
  EXPECT_EQ(reader.Find(1, kGlobalRun).value(), "meta");
  EXPECT_EQ(reader.Find(2, 0).value(), "");
  EXPECT_EQ(reader.Find(2, 1).value(), "payload of run one");
  EXPECT_FALSE(reader.Find(2, 2).ok());
  EXPECT_TRUE(reader.VerifyAll().ok());
  // Header + 4 + pad + 0 + 18 + pad + three 40-byte entries + checksum.
  EXPECT_EQ(file.size(), 48u + 8 + 0 + 24 + 3 * 40 + 8);
}

TEST(SectionedFileTest, EmptyContainerIsValid) {
  const std::string file = Writer(kFormat).Finish();
  EXPECT_EQ(file.size(), core::sectioned::kHeaderSize + 8);
  Reader reader;
  ASSERT_TRUE(reader.Open(file, kFormat).ok());
  EXPECT_TRUE(reader.sections().empty());
}

TEST(SectionedFileTest, SectionChecksumsAreVerifiedLazily) {
  std::string file = ThreeSections();
  Reader probe;
  ASSERT_TRUE(probe.Open(file, kFormat).ok());
  const std::uint64_t meta_offset = probe.sections()[0].offset;
  file[meta_offset] ^= 0x20;  // "meta" -> "Meta"; checksums untouched
  Reader reader;
  ASSERT_TRUE(reader.Open(file, kFormat).ok());  // header + table only
  EXPECT_TRUE(reader.Find(2, 1).ok());
  const auto meta = reader.Find(1, kGlobalRun);
  ASSERT_FALSE(meta.ok());
  EXPECT_NE(meta.error().message().find("checksum"), std::string::npos);
  EXPECT_FALSE(reader.VerifyAll().ok());
}

TEST(SectionedFileTest, RejectsWrongFormatAndEverySizeChange) {
  const std::string file = ThreeSections();
  Reader reader;
  EXPECT_NE(MessageOf(reader.Open(file, Format{"OTHERFMT", 3})).find("magic"),
            std::string::npos);
  EXPECT_NE(MessageOf(reader.Open(file, Format{"TESTFMT1", 4})).find("version"),
            std::string::npos);
  for (std::size_t size = 0; size < file.size(); ++size) {
    EXPECT_FALSE(reader.Open(file.substr(0, size), kFormat).ok()) << size;
  }
  EXPECT_FALSE(reader.Open(file + std::string(8, '\0'), kFormat).ok());
}

TEST(SectionedFileTest, RejectsResealedFramingViolations) {
  const std::string file = ThreeSections();
  const std::uint64_t table = forge::LoadU64(file, 24);
  const auto rejects = [&](std::string bytes, const char* what) {
    Reader reader;
    const std::string message = MessageOf(reader.Open(bytes, kFormat));
    EXPECT_NE(message.find(what), std::string::npos)
        << "want '" << what << "', got '" << message << "'";
    EXPECT_TRUE(reader.sections().empty());
  };
  // Header fields, header checksum recomputed.
  for (const std::uint64_t count :
       {std::uint64_t{2}, std::uint64_t{4}, ~std::uint64_t{0},
        std::uint64_t{1} << 61}) {
    std::string bytes = file;
    forge::StoreU64(bytes, 16, count);
    forge::ResealHeader(bytes);
    rejects(bytes, count == 2 ? "does not close" : "exceeds the file");
  }
  {
    std::string bytes = file;
    forge::StoreU64(bytes, 24, table - 8);
    forge::ResealHeader(bytes);
    rejects(bytes, "does not close");
  }
  {
    std::string bytes = file;
    forge::StoreU64(bytes, 32, file.size() + 8);
    forge::ResealHeader(bytes);
    rejects(bytes, "file size");
  }
  // Table entries, table checksum recomputed.
  const auto entry = [&](std::uint64_t offset, std::uint64_t size) {
    std::string bytes = file;
    forge::StoreU64(bytes, table + 40 * 2 + 16, offset);
    forge::StoreU64(bytes, table + 40 * 2 + 24, size);
    forge::ResealTable(bytes);
    return bytes;
  };
  rejects(entry(40, 8), "out of bounds");        // inside the header
  rejects(entry(60, 8), "out of bounds");        // misaligned
  rejects(entry(table - 8, 16), "out of bounds");  // runs into the table
  rejects(entry(~std::uint64_t{0} - 7, 8), "out of bounds");  // wraps
  rejects(forge::SectionOffsetWrap(file, 2), "out of bounds");
  // A flipped table byte without resealing trips the table checksum.
  std::string bytes = file;
  bytes[table + 3] ^= 1;
  rejects(bytes, "table checksum");
  bytes = file;
  bytes[20] ^= 1;
  rejects(bytes, "header checksum");
}

TEST(SectionedFileTest, WriteFileAtomicallyReplacesTheTarget) {
  const std::string path =
      ::testing::TempDir() + "sectioned_file_test_atomic.bin";
  ASSERT_TRUE(core::sectioned::WriteFileAtomically(path, "first").ok());
  ASSERT_TRUE(core::sectioned::WriteFileAtomically(path, "second").ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[16] = {};
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  EXPECT_EQ(std::string(buffer, n), "second");
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
  EXPECT_FALSE(
      core::sectioned::WriteFileAtomically("/nonexistent-dir/x.bin", "x").ok());
}

}  // namespace
}  // namespace sisyphus
