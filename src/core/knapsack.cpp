#include "core/knapsack.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "common/assert.hpp"

namespace tahoe::core {
namespace {

std::uint64_t granules_for(std::uint64_t size, std::uint64_t granule) {
  return (size + granule - 1) / granule;
}

void finalize(KnapsackResult& r, std::span<const KnapsackItem> items) {
  std::sort(r.chosen.begin(), r.chosen.end());
  r.total_value = 0.0;
  r.total_size = 0;
  for (std::size_t i : r.chosen) {
    r.total_value += items[i].value;
    r.total_size += items[i].size;
  }
}

}  // namespace

KnapsackResult solve(std::span<const KnapsackItem> items,
                     std::uint64_t capacity, std::uint32_t grid) {
  TAHOE_REQUIRE(grid >= 2, "grid too coarse");
  KnapsackResult result;
  if (capacity == 0 || items.empty()) return result;

  // Candidate filtering: positive value, fits alone.
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].value > 0.0 && items[i].size <= capacity &&
        items[i].size > 0) {
      cand.push_back(i);
    }
  }
  if (cand.empty()) return result;

  const std::uint64_t granule =
      std::max<std::uint64_t>(1, capacity / grid);
  const auto cap_g = static_cast<std::size_t>(capacity / granule);

  // dp[c] = best value using capacity c granules; keep choice bits per item
  // row for reconstruction.
  std::vector<double> dp(cap_g + 1, 0.0);
  std::vector<std::vector<bool>> take(cand.size(),
                                      std::vector<bool>(cap_g + 1, false));
  for (std::size_t k = 0; k < cand.size(); ++k) {
    const KnapsackItem& it = items[cand[k]];
    const std::uint64_t need = granules_for(it.size, granule);
    if (need > cap_g) continue;
    for (std::size_t c = cap_g + 1; c-- > need;) {
      const double with = dp[c - need] + it.value;
      if (with > dp[c]) {
        dp[c] = with;
        take[k][c] = true;
      }
    }
  }

  // Reconstruct.
  std::size_t c = cap_g;
  for (std::size_t k = cand.size(); k-- > 0;) {
    if (take[k][c]) {
      result.chosen.push_back(cand[k]);
      c -= static_cast<std::size_t>(
          granules_for(items[cand[k]].size, granule));
    }
  }
  finalize(result, items);
  TAHOE_ASSERT(result.total_size <= capacity,
               "knapsack DP violated the capacity constraint");
  return result;
}

KnapsackResult solve_greedy(std::span<const KnapsackItem> items,
                            std::uint64_t capacity) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].value > 0.0 && items[i].size > 0 &&
        items[i].size <= capacity) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = items[a].value / static_cast<double>(items[a].size);
    const double db = items[b].value / static_cast<double>(items[b].size);
    if (da != db) return da > db;
    return a < b;
  });
  KnapsackResult result;
  std::uint64_t used = 0;
  for (std::size_t i : order) {
    if (used + items[i].size <= capacity) {
      result.chosen.push_back(i);
      used += items[i].size;
    }
  }
  finalize(result, items);
  return result;
}

namespace {

void finalize_multi(MultiTierResult& r, std::span<const MultiTierItem> items,
                    std::size_t num_tiers) {
  r.total_value = 0.0;
  r.tier_sizes.assign(num_tiers, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int t = r.assignment[i];
    if (t < 0) continue;
    r.total_value += items[i].values[static_cast<std::size_t>(t)];
    r.tier_sizes[static_cast<std::size_t>(t)] += items[i].size;
  }
}

/// Insertion-ordered set of packed DP states with an open-addressing
/// index (linear probing, load factor at most 1/2).
class StateSet {
 public:
  void reset(std::size_t expected) {
    keys_.clear();
    std::size_t slots = 16;
    while (slots < 2 * expected) slots *= 2;
    slots_.assign(slots, 0);
  }

  /// Index of `key`, inserting it at the end if new.
  std::uint32_t insert(std::uint64_t key) {
    if (2 * (keys_.size() + 1) > slots_.size()) {
      slots_.assign(2 * slots_.size(), 0);
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        slots_[free_slot(keys_[i])] = static_cast<std::uint32_t>(i + 1);
      }
    }
    const std::size_t h = free_slot(key);
    if (slots_[h] != 0) return slots_[h] - 1;
    keys_.push_back(key);
    slots_[h] = static_cast<std::uint32_t>(keys_.size());
    return slots_[h] - 1;
  }

  const std::vector<std::uint64_t>& keys() const { return keys_; }

 private:
  /// The slot holding `key`, or the empty slot where it would go.
  std::size_t free_slot(std::uint64_t key) const {
    const std::size_t wrap = slots_.size() - 1;
    std::size_t h = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(slots_.size())));
    while (slots_[h] != 0 && keys_[slots_[h] - 1] != key) h = (h + 1) & wrap;
    return h;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> slots_;  ///< key index + 1; 0 = empty
};

}  // namespace

MultiTierResult solve_multi(std::span<const MultiTierItem> items,
                            std::span<const std::uint64_t> capacities,
                            std::size_t state_budget) {
  const std::size_t T = capacities.size();
  TAHOE_REQUIRE(T >= 1, "solve_multi needs at least one constrained tier");
  TAHOE_REQUIRE(state_budget >= 4, "state budget too small");
  for (const MultiTierItem& it : items) {
    TAHOE_REQUIRE(it.values.size() == T,
                  "item values must match the constrained-tier count");
  }
  MultiTierResult result;
  result.assignment.assign(items.size(), -1);
  if (items.empty()) {
    finalize_multi(result, items, T);
    return result;
  }

  // Per-tier grid: split the state budget evenly across dimensions, but
  // never finer than one byte per granule and never coarser than 1 granule.
  const double per_dim =
      std::pow(static_cast<double>(state_budget), 1.0 / static_cast<double>(T));
  const std::uint64_t grid = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(2048, static_cast<std::uint64_t>(per_dim) - 1));

  if (T == 1) {
    // One constrained tier is the 0/1 knapsack: solve() makes the same
    // comparisons over the same granule grid in the same item order, so
    // the assignment is identical, without the per-state choice table.
    std::vector<KnapsackItem> flat(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      flat[i] = {items[i].size, items[i].values[0]};
    }
    for (const std::size_t i :
         solve(flat, capacities[0], static_cast<std::uint32_t>(grid)).chosen) {
      result.assignment[i] = 0;
    }
    finalize_multi(result, items, T);
    return result;
  }

  // Granule grid per tier; a state is the granules left on every tier,
  // packed into one key with tier t's coordinate at bit shift[t].
  const std::size_t n = items.size();
  std::vector<std::uint64_t> granule(T), cap_g(T), mask(T);
  std::vector<unsigned> shift(T);
  unsigned key_bits = 0;
  for (std::size_t t = 0; t < T; ++t) {
    granule[t] = std::max<std::uint64_t>(1, capacities[t] / grid);
    cap_g[t] = capacities[t] / granule[t];
    const auto bits = static_cast<unsigned>(std::bit_width(cap_g[t]));
    shift[t] = key_bits;
    mask[t] = (std::uint64_t{1} << bits) - 1;
    key_bits += bits;
  }
  TAHOE_ASSERT(key_bits <= 64, "multi-tier DP state does not fit a key");

  // need[k*T + t] = granules item k takes on tier t, or 0 where tier t does
  // not count for it (no size, no positive value, or larger than the tier).
  // reach[k*T + t] = the sum of need over items 0..k-1 on tier t.
  std::vector<std::uint64_t> need(n * T, 0), reach((n + 1) * T, 0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < T; ++t) {
      const std::uint64_t g = granules_for(items[k].size, granule[t]);
      if (items[k].size > 0 && items[k].values[t] > 0.0 && g <= cap_g[t]) {
        need[k * T + t] = g;
      }
      reach[(k + 1) * T + t] = reach[k * T + t] + need[k * T + t];
    }
  }

  // best(k, c) is the best value of items 0..k-1 within c granules. Past
  // reach[k] a coordinate is slack (items 0..k-1 cannot fill it), so
  // best(k, c) = best(k, min(c, reach[k])) with every comparison unchanged:
  // key(k) packs the clamped coordinates of c, and level k holds only the
  // clamped states reachable from the full-capacity corner.
  std::vector<std::uint64_t> c(cap_g);
  const auto key = [&](std::size_t k) {
    std::uint64_t packed = 0;
    for (std::size_t t = 0; t < T; ++t) {
      packed |= std::min(c[t], reach[k * T + t]) << shift[t];
    }
    return packed;
  };

  // Top down: enumerate each level's states. child[k][i*(T+1) + t] is the
  // level-(k-1) state that placing item k-1 on tier t leads to from state i
  // of level k (kNone where it does not fit); slot T is the skip.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t width = T + 1;
  std::vector<std::vector<std::uint32_t>> child(n + 1);
  StateSet above, below;
  above.reset(1);
  above.insert(key(n));
  for (std::size_t k = n; k > 0; --k) {
    const std::uint64_t* item_need = &need[(k - 1) * T];
    below.reset(above.keys().size());
    child[k].assign(above.keys().size() * width, kNone);
    for (std::size_t i = 0; i < above.keys().size(); ++i) {
      const std::uint64_t packed = above.keys()[i];
      for (std::size_t t = 0; t < T; ++t) c[t] = (packed >> shift[t]) & mask[t];
      std::uint32_t* to = &child[k][i * width];
      to[T] = below.insert(key(k - 1));
      for (std::size_t t = 0; t < T; ++t) {
        if (item_need[t] == 0 || item_need[t] > c[t]) continue;
        c[t] -= item_need[t];
        to[t] = below.insert(key(k - 1));
        c[t] += item_need[t];
      }
    }
    std::swap(above, below);
  }

  // Bottom up: the same recurrence, float additions and strict-> order as
  // a dense sweep (skip first, then tier 0..T-1), so the same picks.
  // pick[k][i] = tier chosen for item k-1 at state i of level k (T = skip).
  std::vector<double> below_value(1, 0.0), value;  // level 0: one state
  std::vector<std::vector<std::uint8_t>> pick(n + 1);
  for (std::size_t k = 1; k <= n; ++k) {
    const std::vector<double>& item_values = items[k - 1].values;
    const std::size_t count = child[k].size() / width;
    value.resize(count);
    pick[k].resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t* to = &child[k][i * width];
      double best = below_value[to[T]];
      std::uint8_t choice = static_cast<std::uint8_t>(T);
      for (std::size_t t = 0; t < T; ++t) {
        if (to[t] == kNone) continue;
        const double with = below_value[to[t]] + item_values[t];
        if (with > best) {
          best = with;
          choice = static_cast<std::uint8_t>(t);
        }
      }
      value[i] = best;
      pick[k][i] = choice;
    }
    below_value.swap(value);
  }

  // Reconstruct from the full-capacity corner, state 0 of level n.
  std::size_t i = 0;
  for (std::size_t k = n; k > 0; --k) {
    const std::uint8_t choice = pick[k][i];
    if (choice < T) result.assignment[k - 1] = static_cast<int>(choice);
    i = child[k][i * width + choice];
  }
  finalize_multi(result, items, T);
  for (std::size_t t = 0; t < T; ++t) {
    TAHOE_ASSERT(result.tier_sizes[t] <= capacities[t],
                 "multi-tier DP violated a capacity constraint");
  }
  return result;
}

MultiTierResult solve_multi_exact(std::span<const MultiTierItem> items,
                                  std::span<const std::uint64_t> capacities) {
  const std::size_t T = capacities.size();
  TAHOE_REQUIRE(T >= 1, "solve_multi_exact needs a constrained tier");
  double combos = 1.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    TAHOE_REQUIRE(items[i].values.size() == T,
                  "item values must match the constrained-tier count");
    combos *= static_cast<double>(T + 1);
    TAHOE_REQUIRE(combos <= static_cast<double>(1 << 24),
                  "exact multi-tier solver instance too large");
  }
  MultiTierResult best;
  best.assignment.assign(items.size(), -1);

  std::vector<int> cur(items.size(), -1);
  std::vector<std::uint64_t> used(T, 0);
  double value = 0.0;
  // Depth-first enumeration of all (T+1)^n assignments, pruning branches
  // that overflow a tier capacity.
  const std::function<void(std::size_t)> visit = [&](std::size_t i) {
    if (i == items.size()) {
      if (value > best.total_value) {
        best.assignment = cur;
        best.total_value = value;
      }
      return;
    }
    cur[i] = -1;  // capacity tier: always feasible, value 0
    visit(i + 1);
    for (std::size_t t = 0; t < T; ++t) {
      if (used[t] + items[i].size > capacities[t]) continue;
      cur[i] = static_cast<int>(t);
      used[t] += items[i].size;
      value += items[i].values[t];
      visit(i + 1);
      value -= items[i].values[t];
      used[t] -= items[i].size;
    }
    cur[i] = -1;
  };
  visit(0);
  finalize_multi(best, items, T);
  return best;
}

namespace {

void finalize_tenant(TenantKnapsackResult& r,
                     std::span<const TenantItem> items,
                     std::span<const TenantRow> rows) {
  std::sort(r.chosen.begin(), r.chosen.end());
  r.total_value = 0.0;
  r.total_size = 0;
  r.tenant_sizes.assign(rows.size(), 0);
  for (std::size_t i : r.chosen) {
    const TenantItem& it = items[i];
    r.total_value += it.value * rows[it.tenant].priority;
    r.total_size += it.size;
    r.tenant_sizes[it.tenant] += it.size;
  }
}

}  // namespace

TenantKnapsackResult solve_tenant_rows(std::span<const TenantItem> items,
                                       std::uint64_t capacity,
                                       std::span<const TenantRow> rows,
                                       std::uint32_t grid) {
  TAHOE_REQUIRE(grid >= 2, "grid too coarse");
  TAHOE_REQUIRE(!rows.empty(), "solve_tenant_rows needs tenant rows");
  for (const TenantItem& it : items) {
    TAHOE_REQUIRE(it.tenant < rows.size(), "item tenant out of range");
    TAHOE_REQUIRE(rows[it.tenant].priority > 0.0,
                  "tenant priority must be positive");
  }
  TenantKnapsackResult result;
  result.tenant_sizes.assign(rows.size(), 0);
  if (capacity == 0 || items.empty()) return result;

  const std::uint64_t granule = std::max<std::uint64_t>(1, capacity / grid);
  const auto cap_g = static_cast<std::size_t>(capacity / granule);
  const std::size_t T = rows.size();

  // Stage 1: per-tenant 0/1 DP within min(quota, capacity), on the shared
  // granule so the cross-tenant split composes without rounding drift.
  // Quotas round *down* to whole granules: a plan can only under-use a row.
  std::vector<std::vector<std::size_t>> cand(T);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const TenantItem& it = items[i];
    const std::uint64_t row_cap = std::min(rows[it.tenant].quota, capacity);
    if (it.value > 0.0 && it.size > 0 && it.size <= row_cap) {
      cand[it.tenant].push_back(i);
    }
  }
  std::vector<std::size_t> quota_g(T);
  std::vector<std::vector<double>> dp(T);
  std::vector<std::vector<std::vector<bool>>> take(T);
  for (std::size_t t = 0; t < T; ++t) {
    quota_g[t] = std::min(
        cap_g, static_cast<std::size_t>(std::min(rows[t].quota, capacity) /
                                        granule));
    dp[t].assign(quota_g[t] + 1, 0.0);
    take[t].assign(cand[t].size(),
                   std::vector<bool>(quota_g[t] + 1, false));
    for (std::size_t k = 0; k < cand[t].size(); ++k) {
      const TenantItem& it = items[cand[t][k]];
      const std::uint64_t need = granules_for(it.size, granule);
      if (need > quota_g[t]) continue;
      const double weighted = it.value * rows[t].priority;
      for (std::size_t c = quota_g[t] + 1; c-- > need;) {
        const double with = dp[t][c - need] + weighted;
        if (with > dp[t][c]) {
          dp[t][c] = with;
          take[t][k][c] = true;
        }
      }
    }
  }

  // Stage 2: split the shared capacity across the tenant curves.
  // share[t][C] = granules granted to tenant t in the best split of C
  // granules over tenants 0..t.
  std::vector<double> best(cap_g + 1, 0.0), next(cap_g + 1, 0.0);
  std::vector<std::vector<std::uint32_t>> share(
      T, std::vector<std::uint32_t>(cap_g + 1, 0));
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t c = 0; c <= cap_g; ++c) {
      double b = best[c];
      std::uint32_t pick = 0;
      const std::size_t lim = std::min(c, quota_g[t]);
      for (std::size_t g = 1; g <= lim; ++g) {
        const double with = best[c - g] + dp[t][g];
        if (with > b) {
          b = with;
          pick = static_cast<std::uint32_t>(g);
        }
      }
      next[c] = b;
      share[t][c] = pick;
    }
    best.swap(next);
  }

  // Reconstruct: per-tenant granule grants, then items within each grant.
  std::size_t c = cap_g;
  std::vector<std::size_t> grant(T, 0);
  for (std::size_t t = T; t-- > 0;) {
    grant[t] = share[t][c];
    c -= grant[t];
  }
  for (std::size_t t = 0; t < T; ++t) {
    std::size_t g = grant[t];
    for (std::size_t k = cand[t].size(); k-- > 0;) {
      if (g < take[t][k].size() && take[t][k][g]) {
        result.chosen.push_back(cand[t][k]);
        g -= static_cast<std::size_t>(
            granules_for(items[cand[t][k]].size, granule));
      }
    }
  }
  finalize_tenant(result, items, rows);
  TAHOE_ASSERT(result.total_size <= capacity,
               "tenant knapsack violated the shared capacity");
  for (std::size_t t = 0; t < T; ++t) {
    TAHOE_ASSERT(result.tenant_sizes[t] <= rows[t].quota,
                 "tenant knapsack violated a tenant row");
  }
  return result;
}

TenantKnapsackResult solve_tenant_rows_exact(std::span<const TenantItem> items,
                                             std::uint64_t capacity,
                                             std::span<const TenantRow> rows) {
  TAHOE_REQUIRE(items.size() <= 20, "exact tenant solver limited to 20 items");
  TAHOE_REQUIRE(!rows.empty(), "solve_tenant_rows_exact needs tenant rows");
  TenantKnapsackResult best;
  best.tenant_sizes.assign(rows.size(), 0);
  const std::uint32_t n = static_cast<std::uint32_t>(items.size());
  std::vector<std::uint64_t> used(rows.size());
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::uint64_t size = 0;
    double value = 0.0;
    bool feasible = true;
    std::fill(used.begin(), used.end(), 0);
    for (std::uint32_t i = 0; i < n && feasible; ++i) {
      if (!(mask & (1u << i))) continue;
      const TenantItem& it = items[i];
      size += it.size;
      used[it.tenant] += it.size;
      value += it.value * rows[it.tenant].priority;
      feasible = size <= capacity && used[it.tenant] <= rows[it.tenant].quota;
    }
    if (feasible && value > best.total_value) {
      best.chosen.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) best.chosen.push_back(i);
      }
      best.total_value = value;
    }
  }
  finalize_tenant(best, items, rows);
  return best;
}

KnapsackResult solve_exact(std::span<const KnapsackItem> items,
                           std::uint64_t capacity) {
  TAHOE_REQUIRE(items.size() <= 24, "exact solver limited to 24 items");
  KnapsackResult best;
  const std::uint32_t n = static_cast<std::uint32_t>(items.size());
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::uint64_t size = 0;
    double value = 0.0;
    bool feasible = true;
    for (std::uint32_t i = 0; i < n && feasible; ++i) {
      if (mask & (1u << i)) {
        size += items[i].size;
        value += items[i].value;
        if (size > capacity) feasible = false;
      }
    }
    if (feasible && value > best.total_value) {
      best.chosen.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) best.chosen.push_back(i);
      }
      best.total_value = value;
      best.total_size = size;
    }
  }
  finalize(best, items);
  return best;
}

}  // namespace tahoe::core
