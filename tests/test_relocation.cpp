// Relocatability of the segment-hosted registry: the same image attached
// at a different base address — or in a forked child — must walk to
// identical names, chunks, residency and owner accounting.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "hms/layout.hpp"
#include "hms/registry.hpp"
#include "hms/walk.hpp"

namespace tahoe::hms {
namespace {

/// Exercise every structure the walk reports: chunked and unchunked
/// objects, migrations, aliases, owner tags, and a destroy + recreate
/// that recycles a slot with a bumped generation.
void populate(ObjectRegistry& reg, void** alias_slot) {
  const ObjectId grid = reg.create("grid", 64 * kKiB, memsim::kDram, 4);
  const ObjectId halo = reg.create("halo", 8 * kKiB, memsim::kNvm, 1);
  const ObjectId scratch = reg.create("scratch", 4 * kKiB, memsim::kNvm, 2);
  reg.register_alias(halo, alias_slot);
  ASSERT_TRUE(reg.migrate_chunk(grid, 1, memsim::kNvm));
  ASSERT_TRUE(reg.migrate(halo, memsim::kDram));
  reg.set_owner(grid, 1);
  reg.set_owner(halo, 2);
  reg.destroy(scratch);
  const ObjectId reborn = reg.create("reborn", 2 * kKiB, memsim::kNvm, 1);
  // The freed slot is recycled under a new generation, so the stale id
  // stays detectably dead.
  EXPECT_EQ(object_slot(reborn), object_slot(scratch));
  EXPECT_NE(reborn, scratch);
  EXPECT_EQ(object_generation(reborn), 1u);
}

TEST(Relocation, SameImageAtTwoBasesWalksIdentically) {
  ObjectRegistry reg({256 * kKiB, 4 * kMiB}, Backing::Real);
  void* alias_slot = nullptr;
  populate(reg, &alias_slot);

  const Segment& seg = reg.segment();
  const RegistryWalk original = walk_registry(seg);

  // Copy the raw bytes to a fresh mapping — a guaranteed different base —
  // and walk the copy through only self-relative references.
  void* copy = ::mmap(nullptr, seg.size(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(copy, MAP_FAILED);
  ASSERT_NE(copy, seg.base());
  std::memcpy(copy, seg.base(), seg.size());

  {
    const Segment view = Segment::attach(copy, seg.size());
    const RegistryWalk relocated = walk_registry(view);
    EXPECT_EQ(relocated, original);
    EXPECT_EQ(relocated.to_json(), original.to_json());

    // The walk carries real content, not just matching emptiness.
    ASSERT_EQ(relocated.objects.size(), 3u);
    EXPECT_EQ(relocated.objects[0].name, "grid");
    ASSERT_EQ(relocated.objects[0].chunks.size(), 4u);
    EXPECT_EQ(relocated.objects[0].chunks[1].second, memsim::kNvm);
    EXPECT_EQ(relocated.objects[0].chunks[0].second, memsim::kDram);
    EXPECT_EQ(relocated.objects[1].name, "halo");
    EXPECT_EQ(relocated.objects[1].chunks[0].second, memsim::kDram);
    EXPECT_EQ(relocated.objects[1].num_aliases, 1u);
    EXPECT_EQ(relocated.objects[2].name, "reborn");  // recycled slot
  }
  ::munmap(copy, seg.size());
}

TEST(Relocation, WalkMatchesRegistryAccounting) {
  ObjectRegistry reg({256 * kKiB, 4 * kMiB}, Backing::Real);
  void* alias_slot = nullptr;
  populate(reg, &alias_slot);

  const RegistryWalk walk = walk_registry(reg.segment());
  EXPECT_EQ(walk.live_objects, reg.num_objects());
  EXPECT_EQ(walk.num_tiers, reg.num_tiers());
  ASSERT_EQ(walk.resident_by_tier.size(), reg.num_tiers());
  for (memsim::TierId t = 0; t < reg.num_tiers(); ++t) {
    EXPECT_EQ(walk.resident_by_tier[t], reg.resident_bytes(t)) << "tier " << t;
  }
  // Owner accounting from the bytes alone agrees with the registry's own
  // owned queries, tier by tier.
  for (const auto& [owner, by_tier] : walk.owned_by_tier) {
    for (memsim::TierId t = 0; t < reg.num_tiers(); ++t) {
      EXPECT_EQ(by_tier[t], reg.resident_bytes_owned(owner, t))
          << "owner " << owner << " tier " << t;
    }
  }
  ASSERT_EQ(walk.owned_by_tier.size(), 2u);  // owners 1 and 2 were tagged
  ASSERT_EQ(walk.arenas.size(), reg.num_tiers());
  for (memsim::TierId t = 0; t < reg.num_tiers(); ++t) {
    EXPECT_EQ(walk.arenas[t].used, reg.arena(t).used());
    EXPECT_EQ(walk.arenas[t].capacity, reg.arena(t).capacity());
    EXPECT_EQ(walk.arenas[t].live_blocks, reg.arena(t).live_allocations());
  }
}

TEST(Relocation, ForkAttachSmoke) {
  ObjectRegistry reg({256 * kKiB, 4 * kMiB}, Backing::Real);
  void* alias_slot = nullptr;
  populate(reg, &alias_slot);
  const std::string expected = walk_registry(reg.segment()).to_json();

  // CI publishes the walk as an artifact when asked to.
  if (const char* out = std::getenv("TAHOE_WALK_OUT")) {
    std::ofstream f(out);
    f << expected << "\n";
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the segment is an anonymous MAP_SHARED mapping, inherited at
    // the same address. Attach it as a foreign image and ship the walk
    // back over the pipe. _exit keeps gtest/atexit state out of the child.
    ::close(fds[0]);
    int status = 0;
    try {
      const Segment view =
          Segment::attach(reg.segment().base(), reg.segment().size());
      const std::string json = walk_registry(view).to_json();
      const char* p = json.data();
      std::size_t left = json.size();
      while (left > 0) {
        const ssize_t n = ::write(fds[1], p, left);
        if (n <= 0) {
          status = 2;
          break;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
      }
    } catch (...) {
      status = 1;
    }
    ::close(fds[1]);
    ::_exit(status);
  }

  ::close(fds[1]);
  std::string got;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  EXPECT_EQ(got, expected);
}

TEST(Relocation, MutationsAfterCopyDoNotLeakIntoTheImage) {
  ObjectRegistry reg({256 * kKiB, 4 * kMiB}, Backing::Real);
  void* alias_slot = nullptr;
  populate(reg, &alias_slot);
  const Segment& seg = reg.segment();

  std::vector<std::byte> image(seg.size());
  std::memcpy(image.data(), seg.base(), seg.size());
  const RegistryWalk snapshot = walk_registry(Segment::attach(
      image.data(), image.size()));

  // Mutate the live registry; the detached image must be unaffected.
  reg.create("late", 16 * kKiB, memsim::kDram, 2);
  const RegistryWalk live = walk_registry(seg);
  const RegistryWalk frozen = walk_registry(Segment::attach(
      image.data(), image.size()));
  EXPECT_EQ(frozen, snapshot);
  EXPECT_NE(live, frozen);
  EXPECT_EQ(live.live_objects, frozen.live_objects + 1);
}

// The arena range list is read from untrusted image bytes. A `next` that
// closes a cycle, a zero-size range, or a range larger than the arena must
// make the walk throw instead of looping forever.
TEST(Relocation, CorruptArenaRangeListIsRejected) {
  ObjectRegistry reg({256 * kKiB, 4 * kMiB}, Backing::Real);
  void* alias_slot = nullptr;
  populate(reg, &alias_slot);
  const Segment& seg = reg.segment();

  // Walks a copy of the image after `corrupt` edited the first range node
  // of tier 0's arena (its own segment offset is passed along).
  const auto walk_corrupted =
      [&seg](const std::function<void(RangeNode&, std::uint64_t)>& corrupt) {
        std::vector<std::byte> image(seg.size());
        std::memcpy(image.data(), seg.base(), seg.size());
        const Segment view = Segment::attach(image.data(), image.size());
        const auto* root = view.at_as<const RegistryRoot>(view.root());
        const auto* arena = view.at_as<const ArenaRoot>(root->arena_root[0]);
        corrupt(*view.at_as<RangeNode>(arena->range_head), arena->range_head);
        return walk_registry(view);
      };

  EXPECT_NO_THROW(walk_corrupted([](RangeNode&, std::uint64_t) {}));
  EXPECT_THROW(walk_corrupted([](RangeNode& n, std::uint64_t self) {
                 n.next = self;
               }),
               ContractError);
  EXPECT_THROW(walk_corrupted([](RangeNode& n, std::uint64_t) { n.size = 0; }),
               ContractError);
  EXPECT_THROW(walk_corrupted([](RangeNode& n, std::uint64_t) {
                 n.size = ~std::uint64_t{0};
               }),
               ContractError);
}

}  // namespace
}  // namespace tahoe::hms
