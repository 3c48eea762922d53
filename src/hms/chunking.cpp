#include "hms/chunking.hpp"

#include <algorithm>
#include <cmath>

namespace tahoe::hms {

std::size_t ChunkingPolicy::chunks_for(std::uint64_t bytes,
                                       bool partitionable) const {
  if (!partitionable || dram_capacity == 0 || bytes == 0) return 1;
  const double budget =
      static_cast<double>(dram_capacity) * kMaxChunkDramFraction;
  if (budget <= 0.0) return 1;
  if (static_cast<double>(bytes) <= budget) return 1;
  const auto needed = static_cast<std::size_t>(
      std::ceil(static_cast<double>(bytes) / budget));
  return std::min(needed, kMaxChunks);
}

}  // namespace tahoe::hms
