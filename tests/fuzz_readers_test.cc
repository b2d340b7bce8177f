// Seeded mutation fuzzing of every reader of untrusted bytes (ROADMAP
// "correctness and robustness"): audit.bin (AuditReader), timeline.bin
// (TimelineReader), the durable journal and snapshot files, the journal's
// step frames (DecodeStep), JSON, the DAG DSL, and CSV. Each reader must answer a mutated input with an error or a
// value — never a crash, an exception, or (under ASan+UBSan) a memory or
// arithmetic fault.
//
// Mutations: byte flips, truncation, growth, chunk splices, and, for the
// two sectioned artifacts, container-aware rewrites of header fields,
// table entries, and payload words with every checksum recomputed through
// the container writer, so mutations reach the payload decoders behind
// the checksums. The seed and iteration counts are fixed; a failure names
// the target and iteration, which replays exactly.
//
// The first tests pin the four forgeries that once crashed the tools.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "artifact_forge.h"
#include "artifact_samples.h"
#include "audit/reader.h"
#include "causal/csv.h"
#include "causal/dag_parser.h"
#include "core/json.h"
#include "core/rng.h"
#include "durable/journal.h"
#include "durable/service.h"
#include "durable/snapshot.h"
#include "obs/lineage.h"
#include "obs/timeline.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 0x5151f0221e5ull;

/// Per-process scratch directory (ctest may run test binaries in
/// parallel), removed at exit.
const fs::path& ScratchDir() {
  static const fs::path dir = [] {
    fs::path path = fs::temp_directory_path() /
                    ("sisyphus_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(path);
    return path;
  }();
  static const struct Cleanup {
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup;
  return dir;
}

std::string WriteScratch(const std::string& name, const std::string& bytes) {
  const fs::path path = ScratchDir() / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path.string();
}

std::string ReadScratch(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool Contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Forgeries: valid checksums over out-of-range fields.

TEST(ForgedArtifactTest, AuditSectionCountBeyondTheFileIsRejected) {
  const std::string path = WriteScratch(
      "forged-count.bin",
      forge::SectionCount(samples::AuditArtifact(), std::uint64_t{1} << 61));
  audit::AuditReader reader;
  const core::Status status = reader.Open(path);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Contains(status.error().message(), "exceeds the file"))
      << status.error().message();
  EXPECT_FALSE(reader.is_open());
}

TEST(ForgedArtifactTest, WrappingSectionOffsetIsRejected) {
  if (!samples::kAvailable) GTEST_SKIP() << "lineage/timeline compiled out";
  for (std::size_t index = 0; index < 3; ++index) {
    obs::TimelineReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(
        forge::SectionOffsetWrap(samples::TimelineArtifact(), index), &error));
    EXPECT_TRUE(Contains(error, "out of bounds")) << error;
  }
  const std::string path = WriteScratch(
      "forged-offset.bin",
      forge::SectionOffsetWrap(samples::AuditArtifact(), 2));
  audit::AuditReader reader;
  const core::Status status = reader.Open(path);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Contains(status.error().message(), "out of bounds"))
      << status.error().message();
}

TEST(ForgedArtifactTest, AuditDirectoryCountIsRejectedOnLookup) {
  if (!samples::kAvailable) GTEST_SKIP() << "lineage/timeline compiled out";
  const std::string path = WriteScratch(
      "forged-dir.bin", forge::UnitDirectoryCount(samples::AuditArtifact(),
                                                  std::uint64_t{1} << 59));
  audit::AuditReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ASSERT_TRUE(reader.VerifyAll().ok());  // the checksums are valid
  for (const char* unit : {"unit-a", "unit-c", "zzz", ""}) {
    const auto found = reader.FindUnit(0, unit);
    ASSERT_FALSE(found.ok()) << unit;
    EXPECT_TRUE(Contains(found.error().message(),
                         "directory slot table out of bounds"))
        << found.error().message();
  }
}

TEST(ForgedArtifactTest, AuditRecordAndRunCountsAreBounded) {
  if (!samples::kAvailable) GTEST_SKIP() << "lineage/timeline compiled out";
  constexpr auto kRecords =
      static_cast<std::uint64_t>(audit::SectionKind::kRecords);
  constexpr auto kMeta = static_cast<std::uint64_t>(audit::SectionKind::kMeta);
  // Grown by 2^63, n * 4 and the six padded byte columns all wrap back to
  // the true section size.
  for (const std::uint64_t delta :
       {std::uint64_t{1} << 63, std::uint64_t{1} << 62, std::uint64_t{1}}) {
    const std::string path = WriteScratch(
        "forged-records.bin",
        forge::PayloadU64(samples::AuditArtifact(), audit::kAuditFormat,
                          kRecords, 0, delta));
    audit::AuditReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    const auto columns = reader.Records(0);
    ASSERT_FALSE(columns.ok()) << "delta " << delta;
    EXPECT_TRUE(Contains(columns.error().message(), "truncated"));
  }
  // The meta run count sits after the schema string (u64 length + 16).
  const std::string path = WriteScratch(
      "forged-runs.bin",
      forge::PayloadU64(samples::AuditArtifact(), audit::kAuditFormat, kMeta,
                        24, std::uint64_t{1} << 61));
  audit::AuditReader reader;
  const core::Status status = reader.Open(path);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Contains(status.error().message(), "run count"))
      << status.error().message();
}

TEST(ForgedArtifactTest, TimelineSampleCountsAreBoundedByPayload) {
  if (!samples::kAvailable) GTEST_SKIP() << "lineage/timeline compiled out";
  for (const std::uint64_t delta :
       {std::uint64_t{1} << 61, std::uint64_t{1} << 63, std::uint64_t{1}}) {
    obs::TimelineReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(
        forge::SampleCounts(samples::TimelineArtifact(), delta), &error))
        << "delta " << delta;
    EXPECT_TRUE(Contains(error, "payload size disagrees")) << error;
  }
}

// ---------------------------------------------------------------------------
// Mutation engine.

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t Below(std::uint64_t n) { return n == 0 ? 0 : rng_.Next() % n; }

  /// Boundary values that tend to break size arithmetic, plus small
  /// perturbations of the current value.
  std::uint64_t Interesting(std::uint64_t old) {
    static constexpr std::uint64_t kValues[] = {
        0,           1,           2,
        7,           8,           40,
        48,          0xff,        0xffff,
        0x7fffffff,  0xffffffff,  std::uint64_t{1} << 32,
        std::uint64_t{1} << 59, std::uint64_t{1} << 61,
        std::uint64_t{1} << 62, std::uint64_t{1} << 63,
        ~std::uint64_t{0},      ~std::uint64_t{0} - 7};
    switch (Below(4)) {
      case 0:
        return old + (Below(2) == 0 ? 1 : ~std::uint64_t{0});
      case 1:
        return old + kValues[12 + Below(4)];  // + 2^59 .. 2^63
      default:
        return kValues[Below(std::size(kValues))];
    }
  }

  /// One byte-level mutation.
  std::string Bytes(std::string data) {
    switch (Below(6)) {
      case 0: {  // flip 1-4 bytes
        const std::uint64_t flips = 1 + Below(4);
        for (std::uint64_t i = 0; i < flips && !data.empty(); ++i) {
          data[Below(data.size())] ^= static_cast<char>(1 + Below(255));
        }
        return data;
      }
      case 1:  // truncate
        data.resize(Below(data.size() + 1));
        return data;
      case 2: {  // grow
        const std::uint64_t extra = 1 + Below(16);
        for (std::uint64_t i = 0; i < extra; ++i) {
          data.push_back(static_cast<char>(Below(256)));
        }
        return data;
      }
      case 3: {  // delete a chunk
        const std::uint64_t at = Below(data.size() + 1);
        data.erase(at, Below(32));
        return data;
      }
      case 4: {  // duplicate a chunk
        const std::uint64_t at = Below(data.size() + 1);
        data.insert(at, data.substr(at, Below(32)));
        return data;
      }
      default: {  // overwrite a word with an interesting value
        if (data.size() < 8) return data;
        const std::uint64_t at = Below(data.size() - 7);
        forge::StoreU64(data, at, Interesting(forge::LoadU64(data, at)));
        return data;
      }
    }
  }

  /// One container-aware mutation of a valid sectioned file (header field,
  /// table entry field, or one section's payload), checksums recomputed.
  std::string Sectioned(const std::string& data,
                        core::sectioned::Format format) {
    const std::uint64_t count = forge::LoadU64(data, 16);
    switch (Below(5)) {
      case 0: {  // a header field
        std::string out = data;
        const std::uint64_t field = 16 + 8 * Below(3);
        forge::StoreU64(out, field, Interesting(forge::LoadU64(out, field)));
        forge::ResealHeader(out);
        return out;
      }
      case 1: {  // a table entry field
        std::string out = data;
        const std::uint64_t at = forge::LoadU64(out, 24) +
                                 Below(count) * core::sectioned::kEntrySize +
                                 8 * Below(4);
        forge::StoreU64(out, at, Interesting(forge::LoadU64(out, at)));
        forge::ResealTable(out);
        return out;
      }
      default: {  // one section's payload
        const std::uint64_t target = Below(count);
        std::uint64_t index = 0;
        return forge::Rebuild(
            data, format,
            [&](const core::sectioned::Section&, std::string& payload) {
              if (index++ != target) return;
              if (Below(3) == 0 || payload.size() < 8) {
                payload = Bytes(std::move(payload));
                return;
              }
              // Prefer the leading count and aligned words, where counts
              // and offsets live; strings leave later fields unaligned.
              const std::uint64_t words = payload.size() / 8;
              const std::uint64_t pick = Below(4);
              const std::uint64_t at = pick == 0   ? 0
                                       : pick == 1 ? 8 * Below(words)
                                                   : Below(payload.size() - 7);
              forge::StoreU64(payload, at,
                              Interesting(forge::LoadU64(payload, at)));
            });
      }
    }
  }

 private:
  core::Rng rng_;
};

/// Runs `exercise` on `iterations` mutants. A mutant the reader accepts
/// becomes the base of the next mutation (three times in four), so the
/// campaign drifts deeper into inputs that pass the early checks; a
/// rejected one sends it back to a seed. Any exception fails the test with
/// the iteration that raised it.
void Fuzz(const char* target, const std::vector<std::string>& seeds,
          int iterations,
          const std::function<std::string(Mutator&, const std::string&)>&
              mutate,
          const std::function<bool(const std::string&)>& exercise) {
  Mutator mutator(kSeed ^ core::Fnv1a64(target));
  std::string base = seeds[0];
  for (int i = 0; i < iterations; ++i) {
    std::string mutant = mutate(mutator, base);
    bool accepted = false;
    try {
      accepted = exercise(mutant);
    } catch (const std::exception& e) {
      ADD_FAILURE() << target << " iteration " << i << ": " << e.what();
      return;
    }
    if (accepted && mutator.Below(4) != 0) {
      base = std::move(mutant);
    } else {
      base = seeds[mutator.Below(seeds.size())];
    }
  }
}

/// Byte-level mutation, or a container-aware one while the input is still
/// a valid container.
std::function<std::string(Mutator&, const std::string&)> SectionedMutator(
    core::sectioned::Format format) {
  return [format](Mutator& m, const std::string& data) {
    core::sectioned::Reader probe;
    if (m.Below(3) != 0 && probe.Open(data, format).ok() &&
        probe.VerifyAll().ok()) {
      return m.Sectioned(data, format);
    }
    return m.Bytes(data);
  };
}

std::string ByteMutant(Mutator& m, const std::string& data) {
  return m.Bytes(data);
}

// ---------------------------------------------------------------------------
// Targets.

bool ExerciseAudit(const std::string& bytes) {
  const std::string path = WriteScratch("fuzz-audit.bin", bytes);
  audit::AuditReader reader;
  if (!reader.Open(path).ok()) return false;
  const bool verified = reader.VerifyAll().ok();
  for (std::size_t run = 0; run < reader.run_count(); ++run) {
    (void)reader.run(run).label.size();
    if (const auto columns = reader.Records(run); columns.ok()) {
      const audit::RecordColumns& c = columns.value();
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < c.count; ++i) {
        sum += c.vantage[i] + c.intent[i] + c.attempts[i] + c.fault_mask[i] +
               c.copies[i] + c.stage[i] + c.seen[i];
      }
      EXPECT_GE(sum, 0u);
    }
    for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
      (void)reader.Terminal(run, static_cast<obs::LineageStage>(s));
    }
    for (const char* name :
         {"unit-a", "unit-b", "unit-c", "unit-empty", "solo", "placebo", "",
          "zzzz"}) {
      (void)reader.FindUnit(run, name);
      (void)reader.FindEstimate(run, name);
    }
    (void)reader.Ranked(run);
  }
  return verified;
}

bool ExerciseTimeline(const std::string& bytes) {
  obs::TimelineReader reader;
  std::string error;
  if (!reader.Parse(bytes, &error)) return false;
  std::vector<double> values;
  for (const obs::TimelineSeriesView& view : reader.series()) {
    (void)reader.FindSeries(view.name);
    (void)reader.SeriesValues(view.id, &values, &error);
  }
  std::vector<std::pair<std::uint32_t, double>> at;
  for (const std::uint64_t step :
       {std::uint64_t{0}, reader.first_step(), reader.last_step(),
        reader.first_step() / 2 + reader.last_step() / 2,
        reader.last_step() + 1}) {
    (void)reader.ValuesAt(step, &at, &error);
  }
  return true;
}

bool ExerciseJournal(const std::string& bytes) {
  const durable::JournalScan scan =
      durable::ScanJournal(WriteScratch("fuzz-journal.bin", bytes));
  EXPECT_LE(scan.valid_bytes, bytes.size());
  return !scan.corrupt;
}

bool ExerciseSnapshot(const std::string& bytes) {
  return durable::ReadSnapshotFile(WriteScratch("fuzz-snap.bin", bytes)).ok;
}

bool ExerciseStepDecode(const std::string& bytes) {
  const auto decoded = durable::DecodeStep(bytes);
  if (!decoded.ok()) return false;
  // Every byte is a field decoded losslessly, so an accepted frame
  // re-encodes to itself.
  EXPECT_EQ(durable::EncodeStep(decoded.value().step,
                                decoded.value().next_record_id_after),
            bytes);
  return true;
}

bool ExerciseJson(const std::string& text) {
  return core::json::Parse(text).ok();
}

bool ExerciseDag(const std::string& text) {
  return causal::ParseDag(text).ok();
}

bool ExerciseCsv(const std::string& text) {
  const auto dataset = causal::ParseCsvDataset(text);
  if (!dataset.ok()) return false;
  const causal::Dataset& data = dataset.value();
  for (const std::string& name : data.ColumnNames()) {
    (void)data.Column(name);
  }
  (void)data.Head(3);
  if (data.cols() > 0) (void)data.FilterEquals(data.ColumnNames()[0], 1.0);
  return true;
}

// ---------------------------------------------------------------------------
// Campaigns. Iteration counts keep the binary at a few seconds in the
// default build.

TEST(FuzzReadersTest, AuditReader) {
  Fuzz("audit", {samples::AuditArtifact()}, 12000,
       SectionedMutator(audit::kAuditFormat), ExerciseAudit);
}

TEST(FuzzReadersTest, TimelineReader) {
  Fuzz("timeline", {samples::TimelineArtifact()}, 40000,
       SectionedMutator(obs::kTimelineFormat), ExerciseTimeline);
}

TEST(FuzzReadersTest, JournalScan) {
  const std::string path = (ScratchDir() / "seed-journal.bin").string();
  {
    durable::Journal journal;
    ASSERT_TRUE(journal.Open(path, 0, 1));
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(journal.Append(seq, std::string(seq * 7, 'a' + seq)));
    }
    journal.Close();
  }
  Fuzz("journal", {ReadScratch(path)}, 3000, ByteMutant, ExerciseJournal);
}

TEST(FuzzReadersTest, SnapshotRead) {
  const std::string path = (ScratchDir() / "seed-snap.bin").string();
  ASSERT_TRUE(durable::WriteSnapshotFile(path, std::string(300, 's')));
  Fuzz("snapshot", {ReadScratch(path)}, 3000, ByteMutant, ExerciseSnapshot);
}

TEST(FuzzReadersTest, JournalStepDecode) {
  measure::StepOutput step;
  step.step_end = core::SimTime(360);
  for (std::uint64_t id = 7; id < 12; ++id) {
    measure::PendingRecord pending;
    pending.record.id = core::MeasurementId(id);
    pending.record.time = core::SimTime(static_cast<std::int64_t>(300 + id));
    pending.record.asn = core::Asn(static_cast<std::uint32_t>(3741 + id % 2));
    pending.record.city = id % 2 == 0 ? "Durban" : "East London";
    pending.record.vantage_pop = static_cast<netsim::PopIndex>(id % 3);
    pending.record.rtt_ms = 10.0 + static_cast<double>(id);
    pending.record.loss_rate = 0.02;
    pending.record.throughput_mbps = 50.0;
    pending.record.intent = static_cast<measure::Intent>(id % 3);
    pending.record.attempts = static_cast<std::uint32_t>(1 + id % 3);
    pending.duplicate = id == 9;
    pending.fault_mask = static_cast<std::uint8_t>(id % 16);
    step.records.push_back(pending);
  }
  step.failures.push_back({core::SimTime(320), 2, measure::Intent::kBaseline,
                           measure::ProbeFault::kVantageOutage, 3});
  measure::StepOutput failures_only;
  failures_only.step_end = core::SimTime(420);
  failures_only.failures = step.failures;
  Fuzz("step",
       {durable::EncodeStep(step, 12), durable::EncodeStep(failures_only, 12),
        durable::EncodeStep(measure::StepOutput{}, 1)},
       20000, ByteMutant, ExerciseStepDecode);
}

TEST(FuzzReadersTest, JsonParse) {
  Fuzz("json",
       {R"({"schema":"sisyphus.manifest/1","n":-12.5e3,"ok":true,)"
        R"("none":null,"list":[1,2,[3,{"k":"v"}]],)"
        R"("text":"tab\t quote\" é 😀"})",
        "[0, -0.0, 1e308, 2.5E-7, \"\\\\\", {}, []]"},
       40000, ByteMutant, ExerciseJson);
}

TEST(FuzzReadersTest, DagParse) {
  Fuzz("dag",
       {"Congestion -> Route; Congestion -> Latency; Route -> Latency;"
        "Policy [latent]; Policy -> Route",
        "# routing example\nA -> B -> C # effect\nA <-> C\n"},
       40000, ByteMutant, ExerciseDag);
}

TEST(FuzzReadersTest, CsvParse) {
  Fuzz("csv",
       {"a,b,treated\n1,2,0\n3.5,-4e2,1\n7,8,1\n",
        "\"with,comma\",plain\r\n1,2\r\n\"3\",\"4\"\r\n"},
       40000, ByteMutant, ExerciseCsv);
}

}  // namespace
}  // namespace sisyphus
