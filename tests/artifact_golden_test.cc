// Golden-bytes pins for the two sectioned artifacts (DESIGN.md §12, §15).
//
// A small hand-built lineage ledger and timeline — no simulator, no
// thread pool — are serialized and the FNV-1a digest of the whole byte
// image is compared against a pinned value. Any drift in the container
// framing (header, alignment, section table, checksums) or in a payload
// codec changes the digest, so an accidental format change fails here
// instead of surfacing as a parity mismatch against an old artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "artifact_samples.h"
#include "core/hash.h"

namespace sisyphus {
namespace {

// The pinned digests were computed from the artifacts as written before the
// framing moved into core/sectioned_file; both formats must stay
// byte-identical across that refactor and any later one.
TEST(ArtifactGoldenTest, AuditBinBytesArePinned) {
  if (!samples::kAvailable) GTEST_SKIP() << "lineage compiled out";
  const std::string bytes = samples::AuditArtifact();
  EXPECT_EQ(bytes.size(), 5752u);
  EXPECT_EQ(core::Fnv1a64(bytes), 10046968410043006769ull);
}

TEST(ArtifactGoldenTest, TimelineBinBytesArePinned) {
  if (!samples::kAvailable) GTEST_SKIP() << "timeline compiled out";
  const std::string bytes = samples::TimelineArtifact();
  EXPECT_EQ(bytes.size(), 1944u);
  EXPECT_EQ(core::Fnv1a64(bytes), 9242496787508703228ull);
}

}  // namespace
}  // namespace sisyphus
