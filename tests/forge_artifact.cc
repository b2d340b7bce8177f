// forge_artifact SRC_DIR OUT_DIR — writes forged copies of a run's
// artifacts (artifact_forge.h) for the tool-level ctest fixtures, one
// case per subdirectory of OUT_DIR:
//
//   section_count/audit.bin     header section_count + 2^61
//   table_offset/timeline.bin   meta table entry offset = 2^64 - size
//   unit_directory/audit.bin    unit-directory counts + 2^59
//   sample_count/timeline.bin   steps, last_step, sample counts + 2^61
//   attempted/audit.bin         run 0's probes_attempted + 1 (with the
//                               source metrics.json beside it)
//   attempted/lineage.json      run 0's waterfall probes_attempted + 1
//   json_only/                  lineage.json + metrics.json, no audit.bin
//
// Each forged binary carries valid checksums, so the tools must reject it
// on bounds or on conservation, not on a checksum.
//
// forge_artifact --journal DURABLE_DIR OUT_DIR — copies a durable
// directory's snapshots into OUT_DIR and rewrites its journal with the
// first record of the first record-bearing frame given intent code 7,
// every frame re-checksummed. That frame lies below any snapshot, so a
// --resume from OUT_DIR must refuse it when it re-ingests the journal.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "artifact_forge.h"
#include "durable/journal.h"
#include "durable/service.h"
#include "durable/snapshot.h"

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

/// lineage.json with its first run's waterfall probes_attempted raised by
/// one.
std::string BumpJsonAttempted(std::string json) {
  const std::string key = "\"probes_attempted\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    throw std::invalid_argument("lineage.json has no probes_attempted");
  }
  const std::size_t begin = at + key.size();
  const std::size_t end = json.find_first_not_of("0123456789", begin);
  const std::uint64_t value = std::stoull(json.substr(begin, end - begin));
  json.replace(begin, end - begin, std::to_string(value + 1));
  return json;
}

/// The --journal mode: see the header comment.
void ForgeJournalIntent(const fs::path& src, const fs::path& out) {
  namespace durable = sisyphus::durable;
  const durable::JournalScan scan =
      durable::ScanJournal((src / "journal.bin").string());
  if (scan.corrupt || scan.frames.empty()) {
    throw std::invalid_argument("no clean journal in " + src.string());
  }
  fs::create_directories(out);
  for (const durable::SnapshotEntry& snap :
       durable::ListSnapshots(src.string())) {
    fs::copy_file(snap.path, out / fs::path(snap.path).filename(),
                  fs::copy_options::overwrite_existing);
  }
  durable::Journal journal;
  std::string error;
  if (!journal.Open((out / "journal.bin").string(), 0, 1024, &error)) {
    throw std::invalid_argument(error);
  }
  bool forged = false;
  for (const durable::JournalFrame& frame : scan.frames) {
    std::string payload(frame.payload);
    if (!forged) {
      auto decoded = durable::DecodeStep(payload);
      if (decoded.ok() && !decoded.value().step.records.empty()) {
        decoded.value().step.records[0].record.intent =
            static_cast<sisyphus::measure::Intent>(7);
        payload = durable::EncodeStep(decoded.value().step,
                                      decoded.value().next_record_id_after);
        forged = true;
      }
    }
    if (!journal.Append(frame.seq, payload)) {
      throw std::invalid_argument("cannot append to the forged journal");
    }
  }
  if (!forged) throw std::invalid_argument("journal holds no records");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--journal") {
    try {
      ForgeJournalIntent(argv[2], argv[3]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "forge_artifact: %s\n", e.what());
      return 1;
    }
    std::printf("forged a journal under %s\n", argv[3]);
    return 0;
  }
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: forge_artifact SRC_DIR OUT_DIR\n"
                 "       forge_artifact --journal DURABLE_DIR OUT_DIR\n");
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
    const std::string lineage = ReadFile(src / "lineage.json");
    const std::string metrics = ReadFile(src / "metrics.json");
    WriteFile(out / "attempted", "audit.bin",
              forge::ProbesAttempted(audit, 1));
    WriteFile(out / "attempted", "lineage.json", BumpJsonAttempted(lineage));
    WriteFile(out / "attempted", "metrics.json", metrics);
    WriteFile(out / "json_only", "lineage.json", lineage);
    WriteFile(out / "json_only", "metrics.json", metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forge_artifact: %s\n", e.what());
    return 1;
  }
  std::printf("forged 6 artifact sets under %s\n", out.string().c_str());
  return 0;
}
