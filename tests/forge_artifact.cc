// forge_artifact SRC_DIR OUT_DIR — writes four forged copies of a run's
// audit.bin / timeline.bin (artifact_forge.h) for the tool-level ctest
// fixtures, one per subdirectory of OUT_DIR:
//
//   section_count/audit.bin     header section_count + 2^61
//   table_offset/timeline.bin   meta table entry offset = 2^64 - size
//   unit_directory/audit.bin    unit-directory counts + 2^59
//   sample_count/timeline.bin   steps, last_step, sample counts + 2^61
//
// Each forged file carries valid checksums, so the tools must reject it
// on bounds, not on a checksum.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "artifact_forge.h"

namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::invalid_argument("cannot write " + (dir / name).string());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: forge_artifact SRC_DIR OUT_DIR\n");
    return 2;
  }
  namespace forge = sisyphus::forge;
  const fs::path src = argv[1];
  const fs::path out = argv[2];
  try {
    const std::string audit = ReadFile(src / "audit.bin");
    const std::string timeline = ReadFile(src / "timeline.bin");
    WriteFile(out / "section_count", "audit.bin",
              forge::SectionCount(audit, std::uint64_t{1} << 61));
    WriteFile(out / "table_offset", "timeline.bin",
              forge::SectionOffsetWrap(timeline, 0));
    WriteFile(out / "unit_directory", "audit.bin",
              forge::UnitDirectoryCount(audit, std::uint64_t{1} << 59));
    WriteFile(out / "sample_count", "timeline.bin",
              forge::SampleCounts(timeline, std::uint64_t{1} << 61));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forge_artifact: %s\n", e.what());
    return 1;
  }
  std::printf("forged 4 artifacts under %s\n", out.string().c_str());
  return 0;
}
