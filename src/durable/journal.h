// Write-ahead batch journal for the durable streaming service.
//
// One frame per platform step, appended BEFORE the step's batch is applied
// to the campaign sink:
//
//   [u64 magic][u64 seq][u64 payload_len][payload bytes][u64 fnv]
//
// All integers little-endian; `fnv` is 64-bit FNV-1a over the 8 seq bytes
// followed by the payload bytes. Appends are buffered and fsynced every
// `fsync_every` frames (and on Flush), so a crash loses at most the
// un-synced tail — which recovery simply regenerates, because the journal
// is an integrity *witness*, not the source of truth: resumed steps are
// re-executed from the restored RNG/simulator state and the regenerated
// payload is compared byte-for-byte against the journaled frame
// (DESIGN.md §11).
//
// Scan semantics: a torn or checksum-bad frame at the TAIL of the file is
// benign (the valid prefix is kept, the tail truncated on reopen); a bad
// frame with more data after it is corruption and must fail the resume
// loudly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::durable {

inline constexpr std::uint64_t kJournalMagic = 0x4c4e524a59534953ull;  // "SISYJRNL"

/// FNV-1a over the frame's seq (8 LE bytes) + payload — the checksum
/// stored in the frame trailer.
std::uint64_t FrameChecksum(std::uint64_t seq, std::string_view payload);

struct JournalFrame {
  std::uint64_t seq = 0;
  std::string_view payload;  ///< into the owning JournalScan's `bytes`
};

/// Result of scanning a journal file front to back. The file is read once
/// into `bytes`, which the frames view; moving the scan keeps them valid,
/// and copying is deleted because a copy's frames would view the source.
struct JournalScan {
  JournalScan() = default;
  JournalScan(JournalScan&&) = default;
  JournalScan& operator=(JournalScan&&) = default;
  JournalScan(const JournalScan&) = delete;
  JournalScan& operator=(const JournalScan&) = delete;

  std::vector<char> bytes;           ///< the whole file
  std::vector<JournalFrame> frames;  ///< the valid prefix, seq-ascending
  std::uint64_t valid_bytes = 0;     ///< file offset where the prefix ends
  bool torn_tail = false;            ///< benign: incomplete/bad final frame
  bool corrupt = false;              ///< bad frame with data after it
  std::string diagnostic;            ///< human-readable cause when corrupt
};

/// Scans `path`. A missing file yields an empty, non-corrupt scan. Frames
/// must carry consecutive seq numbers starting at `first_seq`; a gap or
/// regression is corruption.
JournalScan ScanJournal(const std::string& path, std::uint64_t first_seq = 1);

/// Append-only journal writer. Opens the file for appending after
/// truncating it to `valid_bytes` (dropping any torn tail found by
/// ScanJournal). Frames are fsynced every `fsync_every` appends and on
/// Flush()/destruction.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False (with errno-derived diagnostic in `error`) when the file cannot
  /// be opened or truncated.
  bool Open(const std::string& path, std::uint64_t valid_bytes,
            std::uint64_t fsync_every, std::string* error = nullptr);

  bool is_open() const { return file_ != nullptr; }

  /// Appends one frame; fsyncs when the unsynced count reaches
  /// `fsync_every`. Returns false on write failure.
  bool Append(std::uint64_t seq, std::string_view payload);

  /// Flushes userspace buffers and fsyncs. Idempotent.
  bool Flush();

  /// Frames appended through this writer (not counting pre-existing ones).
  std::uint64_t appended() const { return appended_; }

  /// Writes `n` bytes of a frame header and dies-worth of partial payload
  /// WITHOUT the trailer — the chaos harness uses this to fake a crash
  /// mid-write. Flushes (so the torn bytes hit the disk) but does not
  /// fsync-count it.
  bool AppendTorn(std::uint64_t seq, std::string_view payload,
                  std::size_t keep_bytes);

  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t fsync_every_ = 8;
  std::uint64_t unsynced_ = 0;
  std::uint64_t appended_ = 0;
};

}  // namespace sisyphus::durable
