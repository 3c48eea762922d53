// Large-object chunking policy.
//
// Objects larger than the DRAM tier can never be migrated whole; the paper
// line's answer is to partition regular 1-D arrays into chunks and manage
// placement per chunk. The policy here decides how many chunks an object
// should be split into, mirroring the conservative approach of the paper:
// only objects flagged as partitionable (regular references) are split.
#pragma once

#include <cstdint>

namespace tahoe::hms {

struct ChunkingPolicy {
  /// A chunk should be at most this fraction of DRAM so several can
  /// coexist with other resident objects.
  static constexpr double kMaxChunkDramFraction = 0.25;
  static constexpr std::size_t kMaxChunks = 64;

  std::uint64_t dram_capacity = 0;

  /// Number of chunks for an object of `bytes`. Returns 1 (no split) when
  /// the object is not partitionable, already fits the chunk budget, or
  /// chunking is disabled (dram_capacity == 0).
  std::size_t chunks_for(std::uint64_t bytes, bool partitionable) const;
};

}  // namespace tahoe::hms
