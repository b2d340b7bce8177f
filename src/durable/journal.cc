#include "durable/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/binio.h"
#include "core/hash.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SISYPHUS_HAVE_FSYNC 1
#endif

namespace sisyphus::durable {

namespace binio = core::binio;

std::uint64_t FrameChecksum(std::uint64_t seq, std::string_view payload) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  for (int shift = 0; shift < 64; shift += 8) {
    mix(static_cast<std::uint8_t>(seq >> shift));
  }
  for (char c : payload) mix(static_cast<std::uint8_t>(c));
  return hash;
}

namespace {

std::string EncodeFrame(std::uint64_t seq, std::string_view payload) {
  binio::Writer w;
  w.PutU64(kJournalMagic);
  w.PutU64(seq);
  w.PutString(payload);
  w.PutU64(FrameChecksum(seq, payload));
  return std::move(w).Take();
}

bool SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(SISYPHUS_HAVE_FSYNC)
  if (fsync(fileno(file)) != 0) return false;
#endif
  return true;
}

}  // namespace

JournalScan ScanJournal(const std::string& path, std::uint64_t first_seq) {
  JournalScan scan;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return scan;  // no journal yet: empty, valid
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  scan.bytes.resize(ec ? 0 : static_cast<std::size_t>(size));
  // A short read (the file shrank, or an I/O error) scans as a torn tail.
  scan.bytes.resize(
      std::fread(scan.bytes.data(), 1, scan.bytes.size(), file));
  std::fclose(file);
  const std::string_view bytes(scan.bytes.data(), scan.bytes.size());

  std::uint64_t expected_seq = first_seq;
  binio::Reader r(bytes);
  while (scan.valid_bytes < bytes.size()) {
    const std::size_t offset = static_cast<std::size_t>(scan.valid_bytes);
    const std::uint64_t magic = r.GetU64();
    const std::uint64_t seq = r.GetU64();
    const std::string_view payload = r.GetStringView();
    const std::uint64_t checksum = r.GetU64();

    std::string what;
    if (!r.ok()) {
      what = "incomplete frame";
    } else if (magic != kJournalMagic) {
      what = "bad frame magic";
    } else if (checksum != FrameChecksum(seq, payload)) {
      what = "frame checksum mismatch";
    } else if (seq != expected_seq) {
      what = "non-consecutive frame seq";
    }
    if (!what.empty()) {
      // A bad FINAL frame (its declared extent reaches end of file, or the
      // file simply ran out) is a torn tail from a crash mid-write —
      // benign. A bad frame with data beyond it means the middle of the
      // journal was damaged.
      if (!r.ok() || r.remaining() == 0) {
        scan.torn_tail = true;
      } else {
        scan.corrupt = true;
        scan.diagnostic = what + " at journal offset " +
                          std::to_string(offset) + " (seq " +
                          std::to_string(expected_seq) + " expected)";
      }
      break;
    }
    scan.valid_bytes = bytes.size() - r.remaining();
    scan.frames.push_back(JournalFrame{seq, payload});
    ++expected_seq;
  }
  return scan;
}

Journal::~Journal() { Close(); }

Journal::Journal(Journal&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      fsync_every_(other.fsync_every_),
      unsynced_(other.unsynced_),
      appended_(other.appended_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = std::exchange(other.file_, nullptr);
    fsync_every_ = other.fsync_every_;
    unsynced_ = other.unsynced_;
    appended_ = other.appended_;
  }
  return *this;
}

bool Journal::Open(const std::string& path, std::uint64_t valid_bytes,
                   std::uint64_t fsync_every, std::string* error) {
  Close();
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) {
      if (error != nullptr) {
        *error = "journal truncate failed: " + ec.message();
      }
      return false;
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    if (error != nullptr) {
      *error = std::string("journal open failed: ") + std::strerror(errno);
    }
    return false;
  }
  fsync_every_ = fsync_every == 0 ? 1 : fsync_every;
  unsynced_ = 0;
  appended_ = 0;
  return true;
}

bool Journal::Append(std::uint64_t seq, std::string_view payload) {
  if (file_ == nullptr) return false;
  const std::string frame = EncodeFrame(seq, payload);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return false;
  }
  ++appended_;
  if (++unsynced_ >= fsync_every_) return Flush();
  return true;
}

bool Journal::Flush() {
  if (file_ == nullptr) return true;
  unsynced_ = 0;
  return SyncFile(file_);
}

bool Journal::AppendTorn(std::uint64_t seq, std::string_view payload,
                         std::size_t keep_bytes) {
  if (file_ == nullptr) return false;
  const std::string frame = EncodeFrame(seq, payload);
  const std::size_t n = std::min(keep_bytes, frame.size() - 1);
  if (std::fwrite(frame.data(), 1, n, file_) != n) return false;
  return SyncFile(file_);
}

void Journal::Close() {
  if (file_ != nullptr) {
    Flush();
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace sisyphus::durable
