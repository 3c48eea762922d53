#include "hms/walk.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "hms/layout.hpp"

namespace tahoe::hms {

RegistryWalk walk_registry(const Segment& segment) {
  const std::uint64_t root_off = segment.root();
  TAHOE_REQUIRE(root_off != 0, "segment has no registry root");
  const auto* root = segment.at_as<const RegistryRoot>(root_off);
  TAHOE_REQUIRE(root->num_tiers >= 1 && root->num_tiers <= kMaxTiers,
                "registry root is malformed (tier count)");
  TAHOE_REQUIRE(root->high_slot <= root->slot_capacity,
                "registry root is malformed (slot bounds)");

  RegistryWalk walk;
  walk.num_tiers = root->num_tiers;
  walk.live_objects = root->live_count;
  walk.slot_capacity = root->slot_capacity;
  walk.resident_by_tier.assign(root->num_tiers, 0);

  const ObjectSlot* slots = root->slots.get();
  for (std::uint32_t s = 0; s < root->high_slot; ++s) {
    const ObjectSlot& slot = slots[s];
    if (slot.in_use == 0) continue;
    const DataObject& obj = slot.object;
    ObjectWalk ow;
    ow.id = obj.id;
    ow.name = std::string(obj.name());
    ow.bytes = obj.bytes;
    ow.owner = obj.owner;
    ow.static_ref_estimate = obj.static_ref_estimate;
    ow.num_aliases = static_cast<std::uint32_t>(obj.aliases().size());
    ow.chunks.reserve(obj.num_chunks());
    for (const Chunk& c : obj.chunks()) {
      ow.chunks.emplace_back(c.bytes, c.device);
      TAHOE_REQUIRE(c.device < root->num_tiers,
                    "chunk references a tier the registry does not have");
      walk.resident_by_tier[c.device] += c.bytes;
      if (obj.owner != kNoOwner) {
        auto [it, inserted] = walk.owned_by_tier.try_emplace(
            obj.owner, std::vector<std::uint64_t>(root->num_tiers, 0));
        (void)inserted;
        it->second[c.device] += c.bytes;
      }
    }
    walk.objects.push_back(std::move(ow));
  }

  for (std::uint32_t t = 0; t < root->num_tiers; ++t) {
    const std::uint64_t arena_off = root->arena_root[t];
    TAHOE_REQUIRE(arena_off != 0, "registry root lists no arena for a tier");
    const auto* ar = segment.at_as<const ArenaRoot>(arena_off);
    ArenaWalk aw;
    aw.name = std::string(ar->name);
    aw.capacity = ar->capacity;
    aw.used = ar->used;
    aw.live_blocks = ar->live_count;
    aw.free_ranges = ar->free_count;
    // The range list is untrusted bytes: a zero-size range, ranges summing
    // past the capacity, or more nodes than live + free blocks mean a
    // corrupt (possibly cyclic) list, so the walk stops instead of looping.
    std::uint64_t nodes = 0;
    std::uint64_t covered = 0;
    for (std::uint64_t off = ar->range_head; off != 0;) {
      const auto* node = segment.at_as<const RangeNode>(off);
      TAHOE_REQUIRE(node->size != 0,
                    "arena range list is malformed (zero-size range)");
      TAHOE_REQUIRE(node->size <= ar->capacity - covered,
                    "arena range list is malformed (ranges exceed capacity)");
      covered += node->size;
      TAHOE_REQUIRE(++nodes <= ar->live_count + ar->free_count,
                    "arena range list is malformed (more ranges than blocks)");
      if (node->live == 0) {
        aw.largest_free_range = std::max(aw.largest_free_range, node->size);
      }
      off = node->next;
    }
    walk.arenas.push_back(std::move(aw));
  }
  return walk;
}

std::string RegistryWalk::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"num_tiers\": " << num_tiers << ",\n";
  os << "  \"live_objects\": " << live_objects << ",\n";
  os << "  \"slot_capacity\": " << slot_capacity << ",\n";
  os << "  \"objects\": [\n";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const ObjectWalk& o = objects[i];
    os << "    {\"id\": " << o.id << ", \"name\": \"" << o.name
       << "\", \"bytes\": " << o.bytes << ", \"owner\": " << o.owner
       << ", \"aliases\": " << o.num_aliases << ", \"chunks\": [";
    for (std::size_t c = 0; c < o.chunks.size(); ++c) {
      os << "[" << o.chunks[c].first << ", " << o.chunks[c].second << "]";
      if (c + 1 < o.chunks.size()) os << ", ";
    }
    os << "]}" << (i + 1 < objects.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"arenas\": [\n";
  for (std::size_t i = 0; i < arenas.size(); ++i) {
    const ArenaWalk& a = arenas[i];
    os << "    {\"name\": \"" << a.name << "\", \"capacity\": " << a.capacity
       << ", \"used\": " << a.used << ", \"live_blocks\": " << a.live_blocks
       << ", \"free_ranges\": " << a.free_ranges
       << ", \"largest_free_range\": " << a.largest_free_range << "}"
       << (i + 1 < arenas.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"resident_by_tier\": [";
  for (std::size_t t = 0; t < resident_by_tier.size(); ++t) {
    os << resident_by_tier[t] << (t + 1 < resident_by_tier.size() ? ", " : "");
  }
  os << "],\n";
  os << "  \"owned_by_tier\": {";
  bool first = true;
  for (const auto& [owner, tiers] : owned_by_tier) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << owner << "\": [";
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      os << tiers[t] << (t + 1 < tiers.size() ? ", " : "");
    }
    os << "]";
  }
  os << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace tahoe::hms
