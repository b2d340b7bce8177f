#include "durable/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/binio.h"
#include "core/hash.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SISYPHUS_HAVE_FSYNC 1
#endif

namespace sisyphus::durable {

namespace binio = core::binio;
namespace fs = std::filesystem;

std::string SnapshotPath(const std::string& dir, std::uint64_t seq) {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%020llu.bin",
                static_cast<unsigned long long>(seq));
  return (fs::path(dir) / name).string();
}

bool WriteSnapshotFile(const std::string& path, std::string_view payload,
                       std::string* error) {
  binio::Writer w;
  w.PutU64(kSnapshotMagic);
  w.PutString(payload);
  w.PutU64(core::Fnv1a64(payload));
  const std::string framed = std::move(w).Take();

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "snapshot open failed: " + tmp + ": " + std::strerror(errno);
    }
    return false;
  }
  bool ok = std::fwrite(framed.data(), 1, framed.size(), file) ==
            framed.size();
  ok = std::fflush(file) == 0 && ok;
#if defined(SISYPHUS_HAVE_FSYNC)
  ok = fsync(fileno(file)) == 0 && ok;
#endif
  std::fclose(file);
  if (!ok) {
    if (error != nullptr) *error = "snapshot write failed: " + tmp;
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "snapshot rename failed: " + path + ": " + ec.message();
    }
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

SnapshotRead ReadSnapshotFile(const std::string& path) {
  SnapshotRead result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.diagnostic = "snapshot unreadable: " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  binio::Reader r(bytes);
  const std::uint64_t magic = r.GetU64();
  std::string payload = r.GetString();
  const std::uint64_t checksum = r.GetU64();
  if (!r.ok() || r.remaining() != 0) {
    result.diagnostic = "snapshot torn or truncated: " + path;
    return result;
  }
  if (magic != kSnapshotMagic) {
    result.diagnostic = "snapshot bad magic: " + path;
    return result;
  }
  if (checksum != core::Fnv1a64(payload)) {
    result.diagnostic = "snapshot checksum mismatch: " + path;
    return result;
  }
  result.ok = true;
  result.payload = std::move(payload);
  return result;
}

bool ParseDecimalU64(std::string_view text, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  // from_chars accepts no sign, space or prefix for an unsigned type, and
  // reports overflow instead of wrapping.
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

std::vector<SnapshotEntry> ListSnapshots(const std::string& dir) {
  std::vector<SnapshotEntry> entries;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    if (name.size() < 10 || name.substr(name.size() - 4) != ".bin") continue;
    std::uint64_t seq = 0;
    if (!ParseDecimalU64(std::string_view(name).substr(5, name.size() - 9),
                         &seq)) {
      continue;
    }
    entries.push_back(SnapshotEntry{seq, entry.path().string()});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

void PruneSnapshots(const std::string& dir, std::size_t keep) {
  std::vector<SnapshotEntry> entries = ListSnapshots(dir);
  if (entries.size() <= keep) return;
  std::error_code ec;
  for (std::size_t i = 0; i + keep < entries.size(); ++i) {
    fs::remove(entries[i].path, ec);
  }
}

}  // namespace sisyphus::durable
