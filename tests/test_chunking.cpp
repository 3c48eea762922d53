#include <gtest/gtest.h>

#include "common/units.hpp"
#include "hms/chunking.hpp"

namespace tahoe::hms {
namespace {

TEST(Chunking, SmallObjectsStayWhole) {
  const ChunkingPolicy p{256 * kMiB};
  EXPECT_EQ(p.chunks_for(32 * kMiB, true), 1u);
  EXPECT_EQ(p.chunks_for(64 * kMiB, true), 1u);  // exactly the budget
}

TEST(Chunking, LargeObjectsSplitToBudget) {
  const ChunkingPolicy p{256 * kMiB};
  // Budget 64 MiB: 1 GiB -> 16 chunks.
  EXPECT_EQ(p.chunks_for(1 * kGiB, true), 16u);
  EXPECT_EQ(p.chunks_for(65 * kMiB, true), 2u);
}

TEST(Chunking, NonPartitionableNeverSplit) {
  const ChunkingPolicy p{256 * kMiB};
  EXPECT_EQ(p.chunks_for(4 * kGiB, false), 1u);
}

TEST(Chunking, DisabledPolicyNeverSplits) {
  const ChunkingPolicy p{0};
  EXPECT_EQ(p.chunks_for(4 * kGiB, true), 1u);
}

TEST(Chunking, MaxChunksCaps) {
  const ChunkingPolicy p{64 * kMiB};
  // Budget 16 MiB: 1 GiB needs exactly 64 chunks; 2 GiB would want 128,
  // capped at 64.
  EXPECT_EQ(p.chunks_for(1 * kGiB, true), ChunkingPolicy::kMaxChunks);
  EXPECT_EQ(p.chunks_for(2 * kGiB, true), ChunkingPolicy::kMaxChunks);
  EXPECT_EQ(ChunkingPolicy::kMaxChunks, 64u);
}

TEST(Chunking, ZeroBytesDegenerate) {
  const ChunkingPolicy p{256 * kMiB};
  EXPECT_EQ(p.chunks_for(0, true), 1u);
}

}  // namespace
}  // namespace tahoe::hms
