// Checksummed, atomically-replaced snapshot files for the durable
// streaming service.
//
// A snapshot file holds one framed payload:
//
//   [u64 magic][u64 payload_len][payload bytes][u64 fnv]
//
// written to `<path>.tmp`, fsynced, then renamed into place — so a crash
// mid-write leaves either the previous snapshot or a `.tmp` orphan, never
// a half-written `snap-*.bin`. A flipped byte anywhere in the file fails
// the FNV-1a check on read, and recovery falls back to the previous
// snapshot (DESIGN.md §11).
//
// Snapshots are named `snap-<seq, zero-padded>.bin` so a lexicographic
// directory listing is also seq-ordered.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::durable {

// "SISYSNP2": fixed-size state only (the journal rebuilds the rest). An
// older directory's "SISYSNAP" snapshots fail as bad magic.
inline constexpr std::uint64_t kSnapshotMagic = 0x32504e5359534953ull;

/// `<dir>/snap-00000000000000000042.bin`.
std::string SnapshotPath(const std::string& dir, std::uint64_t seq);

/// Frames `payload`, writes `<path>.tmp`, fsyncs, renames into place.
/// False (with diagnostic) on any I/O failure; the destination is left
/// untouched in that case.
bool WriteSnapshotFile(const std::string& path, std::string_view payload,
                       std::string* error = nullptr);

struct SnapshotRead {
  bool ok = false;
  std::string payload;
  std::string diagnostic;  ///< why the read failed (torn, checksum, I/O)
};

/// Reads and verifies one snapshot file.
SnapshotRead ReadSnapshotFile(const std::string& path);

struct SnapshotEntry {
  std::uint64_t seq = 0;
  std::string path;
};

/// Parses a non-empty run of decimal digits into `*out`. False — with
/// `*out` untouched — on any other character and on a value above
/// 2^64 - 1, which a digit-by-digit accumulation would silently wrap.
bool ParseDecimalU64(std::string_view text, std::uint64_t* out);

/// All `snap-<digits>.bin` files in `dir`, ascending by seq. Names whose
/// digits do not parse as a 64-bit seq are skipped. Missing directory
/// yields an empty list.
std::vector<SnapshotEntry> ListSnapshots(const std::string& dir);

/// Deletes all but the newest `keep` snapshots in `dir`.
void PruneSnapshots(const std::string& dir, std::size_t keep);

}  // namespace sisyphus::durable
