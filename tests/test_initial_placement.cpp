#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/initial_placement.hpp"

namespace tahoe::core {
namespace {

/// The units choose_initial_tiers places at allocation time on a two-tier
/// machine whose DRAM holds `dram_capacity` bytes; all of them go to DRAM.
std::vector<UnitKey> dram_units(const std::vector<ObjectInfo>& objects,
                                std::uint64_t dram_capacity) {
  const memsim::Machine machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(dram_capacity),
                                       0.5, 4 * kGiB),
      dram_capacity);
  std::vector<UnitKey> chosen;
  for (const auto& [unit, tier] : choose_initial_tiers(objects, machine)) {
    EXPECT_EQ(tier, memsim::kDram);
    chosen.push_back(unit);
  }
  return chosen;
}

TEST(InitialPlacement, PicksLargestEstimatesWithinCapacity) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "hot", {64 * kMiB}, 1e9},
      ObjectInfo{2, "warm", {64 * kMiB}, 1e6},
      ObjectInfo{3, "cold", {64 * kMiB}, 1e3},
  };
  const auto chosen = dram_units(objects, 128 * kMiB);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0].object, 1u);
  EXPECT_EQ(chosen[1].object, 2u);
}

TEST(InitialPlacement, SkipsStaticallyUnknownObjects) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "unknown", {16 * kMiB}, 0.0},
      ObjectInfo{2, "known", {16 * kMiB}, 10.0},
  };
  const auto chosen = dram_units(objects, 64 * kMiB);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].object, 2u);
}

TEST(InitialPlacement, ChunkedObjectsPlacePerChunk) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "chunked", {64 * kMiB, 64 * kMiB, 64 * kMiB}, 3e9},
  };
  // Only two chunks fit.
  const auto chosen = dram_units(objects, 128 * kMiB);
  EXPECT_EQ(chosen.size(), 2u);
  for (const UnitKey& u : chosen) EXPECT_EQ(u.object, 1u);
}

TEST(InitialPlacement, EmptyWhenNothingFits) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "big", {1 * kGiB}, 1e9},
  };
  EXPECT_TRUE(dram_units(objects, 64 * kMiB).empty());
}

TEST(InitialPlacement, NoObjectsNoChoice) {
  EXPECT_TRUE(dram_units({}, 64 * kMiB).empty());
}

}  // namespace
}  // namespace tahoe::core
