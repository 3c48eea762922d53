// Knapsack solvers: DP vs exhaustive oracle property tests.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "core/knapsack.hpp"

namespace tahoe::core {
namespace {

TEST(Knapsack, PicksBestSimpleCase) {
  const std::vector<KnapsackItem> items{
      {60, 10.0}, {100, 20.0}, {120, 30.0}};
  const KnapsackResult r = solve(items, 220, 2048);
  // Optimal: items 1+2 (value 50, size 220).
  EXPECT_DOUBLE_EQ(r.total_value, 50.0);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(Knapsack, SkipsNonPositiveAndOversized) {
  const std::vector<KnapsackItem> items{
      {10, -5.0}, {10, 0.0}, {1000, 99.0}, {10, 1.0}};
  const KnapsackResult r = solve(items, 100, 2048);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{3}));
  EXPECT_DOUBLE_EQ(r.total_value, 1.0);
}

TEST(Knapsack, EmptyInputsAndZeroCapacity) {
  EXPECT_TRUE(solve({}, 100).chosen.empty());
  const std::vector<KnapsackItem> items{{10, 1.0}};
  EXPECT_TRUE(solve(items, 0).chosen.empty());
}

TEST(Knapsack, NeverExceedsCapacityUnderCoarseGrid) {
  // The grid rounds sizes *up*, so even a coarse grid stays feasible.
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<KnapsackItem> items;
    for (int i = 0; i < 12; ++i) {
      items.push_back(KnapsackItem{rng.next_below(1000) + 1,
                                   rng.next_double() * 10.0});
    }
    const std::uint64_t cap = rng.next_below(3000) + 100;
    const KnapsackResult r = solve(items, cap, 16);  // very coarse
    EXPECT_LE(r.total_size, cap);
  }
}

TEST(Knapsack, DpMatchesOracleOnRandomInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<KnapsackItem> items;
    const std::size_t n = 3 + rng.next_below(10);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(KnapsackItem{rng.next_below(500) + 1,
                                   (rng.next_double() - 0.2) * 20.0});
    }
    const std::uint64_t cap = rng.next_below(1500) + 200;
    const KnapsackResult dp = solve(items, cap, 4096);
    const KnapsackResult oracle = solve_exact(items, cap);
    // Fine grid (4096 on cap <= 1700 -> granule 1): exact match expected.
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial;
    EXPECT_LE(dp.total_size, cap);
  }
}

TEST(Knapsack, GreedyFeasibleAndDecent) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<KnapsackItem> items;
    for (int i = 0; i < 15; ++i) {
      items.push_back(KnapsackItem{rng.next_below(400) + 1,
                                   rng.next_double() * 5.0});
    }
    const std::uint64_t cap = 800;
    const KnapsackResult greedy = solve_greedy(items, cap);
    const KnapsackResult oracle = solve_exact(items, cap);
    EXPECT_LE(greedy.total_size, cap);
    EXPECT_LE(greedy.total_value, oracle.total_value + 1e-9);
    // Density greedy is a decent approximation on random instances.
    EXPECT_GE(greedy.total_value, 0.5 * oracle.total_value - 1e-9);
  }
}

TEST(Knapsack, LargeInstanceRunsFast) {
  Rng rng(5);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 500; ++i) {
    items.push_back(
        KnapsackItem{(rng.next_below(1u << 26)) + 1, rng.next_double()});
  }
  const KnapsackResult r = solve(items, 1ULL << 28, 2048);
  EXPECT_LE(r.total_size, 1ULL << 28);
  EXPECT_GT(r.chosen.size(), 0u);
}

TEST(Knapsack, OracleRejectsHugeInstances) {
  std::vector<KnapsackItem> items(30, KnapsackItem{1, 1.0});
  EXPECT_THROW(solve_exact(items, 10), ContractError);
}

// ---- Multi-choice knapsack (N-tier placement). ----

namespace {

/// Recompute a MultiTierResult's value and per-tier usage from its
/// assignment, so tests catch solvers whose bookkeeping disagrees with
/// their choices.
void check_consistent(std::span<const MultiTierItem> items,
                      std::span<const std::uint64_t> capacities,
                      const MultiTierResult& r) {
  ASSERT_EQ(r.assignment.size(), items.size());
  ASSERT_EQ(r.tier_sizes.size(), capacities.size());
  double value = 0.0;
  std::vector<std::uint64_t> used(capacities.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int t = r.assignment[i];
    if (t < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(t), capacities.size());
    value += items[i].values[static_cast<std::size_t>(t)];
    used[static_cast<std::size_t>(t)] += items[i].size;
  }
  EXPECT_NEAR(value, r.total_value, 1e-9);
  for (std::size_t t = 0; t < capacities.size(); ++t) {
    EXPECT_LE(used[t], capacities[t]) << "tier " << t;
    EXPECT_EQ(used[t], r.tier_sizes[t]) << "tier " << t;
  }
}

/// Reference multi-tier DP: a dense forward sweep over every state of
/// solve_multi's granule box for every item, with a per-item choice table.
/// solve_multi's T >= 2 path must match it bit for bit.
MultiTierResult dense_solve_multi(std::span<const MultiTierItem> items,
                                  std::span<const std::uint64_t> capacities,
                                  std::size_t state_budget = 1 << 18) {
  const std::size_t T = capacities.size();
  MultiTierResult result;
  result.assignment.assign(items.size(), -1);
  const double per_dim =
      std::pow(static_cast<double>(state_budget), 1.0 / static_cast<double>(T));
  const std::uint64_t grid = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(2048, static_cast<std::uint64_t>(per_dim) - 1));
  std::vector<std::uint64_t> granule(T), cap_g(T), stride(T);
  std::size_t num_states = 1;
  for (std::size_t t = 0; t < T; ++t) {
    granule[t] = std::max<std::uint64_t>(1, capacities[t] / grid);
    cap_g[t] = capacities[t] / granule[t];
    stride[t] = num_states;  // tier 0 fastest-varying
    num_states *= static_cast<std::size_t>(cap_g[t] + 1);
  }
  const auto granules = [&](std::size_t k, std::size_t t) {
    return (items[k].size + granule[t] - 1) / granule[t];
  };

  // dp[state] = best value with per-tier usage within the state's granule
  // budget; choice[k][state] = tier picked for item k there (T = skip).
  std::vector<double> dp(num_states, 0.0), next(num_states, 0.0);
  std::vector<std::vector<std::uint8_t>> choice(
      items.size(),
      std::vector<std::uint8_t>(num_states, static_cast<std::uint8_t>(T)));
  std::vector<std::uint64_t> coord(T);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const MultiTierItem& it = items[k];
    std::fill(coord.begin(), coord.end(), 0);
    for (std::size_t st = 0; st < num_states; ++st) {
      double best = dp[st];
      std::uint8_t pick = static_cast<std::uint8_t>(T);
      if (it.size > 0) {
        for (std::size_t t = 0; t < T; ++t) {
          if (it.values[t] <= 0.0) continue;
          const std::uint64_t need = granules(k, t);
          if (need > coord[t]) continue;
          const double with =
              dp[st - static_cast<std::size_t>(need) * stride[t]] +
              it.values[t];
          if (with > best) {
            best = with;
            pick = static_cast<std::uint8_t>(t);
          }
        }
      }
      next[st] = best;
      choice[k][st] = pick;
      for (std::size_t t = 0; t < T; ++t) {  // mixed-radix increment
        if (++coord[t] <= cap_g[t]) break;
        coord[t] = 0;
      }
    }
    dp.swap(next);
  }

  std::size_t st = num_states - 1;  // the full-capacity corner
  result.tier_sizes.assign(T, 0);
  for (std::size_t k = items.size(); k-- > 0;) {
    const std::uint8_t pick = choice[k][st];
    if (pick < T) {
      result.assignment[k] = static_cast<int>(pick);
      st -= static_cast<std::size_t>(granules(k, pick)) * stride[pick];
    }
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int t = result.assignment[i];
    if (t < 0) continue;
    result.total_value += items[i].values[static_cast<std::size_t>(t)];
    result.tier_sizes[static_cast<std::size_t>(t)] += items[i].size;
  }
  return result;
}

}  // namespace

TEST(MultiKnapsack, OneTierDegeneratesToZeroOne) {
  // With one constrained tier the MCKP is the 0/1 knapsack: the planner
  // relies on it choosing exactly the 0/1 solver's items, ties included
  // (half the trials use integer values, so ties are common). The
  // multi-dimensional DP must agree too when the extra tier has no room.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<KnapsackItem> flat;
    std::vector<MultiTierItem> items;
    std::vector<MultiTierItem> items_2d;
    const std::size_t n = 3 + rng.next_below(9);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t size = rng.next_below(180) + 1;
      double value = (rng.next_double() - 0.2) * 20.0;
      if (trial % 2 == 1) value = std::round(value);
      flat.push_back(KnapsackItem{size, value});
      items.push_back(MultiTierItem{size, {value}});
      items_2d.push_back(MultiTierItem{size, {value, value}});
    }
    const std::uint64_t cap = rng.next_below(350) + 50;
    const std::uint64_t caps[]{cap};
    const std::uint64_t caps_2d[]{cap, 0};
    const MultiTierResult multi = solve_multi(items, caps);
    const MultiTierResult multi_2d = solve_multi(items_2d, caps_2d);
    const KnapsackResult flat_dp = solve(flat, cap, 4096);
    std::vector<int> expected(n, -1);
    for (const std::size_t i : flat_dp.chosen) expected[i] = 0;
    EXPECT_EQ(multi.assignment, expected) << "trial " << trial;
    EXPECT_EQ(multi_2d.assignment, expected) << "trial " << trial;
    EXPECT_NEAR(multi.total_value, flat_dp.total_value, 1e-9)
        << "trial " << trial;
    check_consistent(items, caps, multi);
  }
}

TEST(MultiKnapsack, PicksBestTierPerItem) {
  // Item 0 is worth more on tier 1, item 1 on tier 0; both fit.
  const std::vector<MultiTierItem> items{
      {50, {1.0, 9.0}},
      {50, {8.0, 2.0}},
  };
  const std::uint64_t caps[]{64, 64};
  const MultiTierResult r = solve_multi(items, caps);
  EXPECT_EQ(r.assignment, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(r.total_value, 17.0);
}

TEST(MultiKnapsack, NonPositiveChoicesStayOnCapacityTier) {
  const std::vector<MultiTierItem> items{
      {10, {-1.0, 0.0}},
      {10, {0.0, -5.0}},
  };
  const std::uint64_t caps[]{100, 100};
  const MultiTierResult r = solve_multi(items, caps);
  EXPECT_EQ(r.assignment, (std::vector<int>{-1, -1}));
  EXPECT_DOUBLE_EQ(r.total_value, 0.0);
}

TEST(MultiKnapsack, TwoTierDpMatchesOracleOnRandomInstances) {
  // Capacities <= 400 with a 2^18 state budget give granule-1 grids, so
  // the DP is exact and must match the brute-force enumeration of all
  // 3^n tier assignments.
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<MultiTierItem> items;
    const std::size_t n = 3 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(MultiTierItem{
          rng.next_below(150) + 1,
          {(rng.next_double() - 0.25) * 10.0,
           (rng.next_double() - 0.25) * 10.0}});
    }
    const std::uint64_t caps[]{rng.next_below(300) + 50,
                               rng.next_below(300) + 50};
    const MultiTierResult dp = solve_multi(items, caps);
    const MultiTierResult oracle = solve_multi_exact(items, caps);
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial;
    check_consistent(items, caps, dp);
    check_consistent(items, caps, oracle);
  }
}

TEST(MultiKnapsack, ThreeTierDpMatchesOracle) {
  // Three constrained tiers (a 4-tier machine). Caps <= 60 keep the
  // granule at 1 under the budget's ~63-granule per-tier grid.
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<MultiTierItem> items;
    const std::size_t n = 3 + rng.next_below(6);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(MultiTierItem{
          rng.next_below(25) + 1,
          {(rng.next_double() - 0.25) * 10.0,
           (rng.next_double() - 0.25) * 10.0,
           (rng.next_double() - 0.25) * 10.0}});
    }
    const std::uint64_t caps[]{rng.next_below(50) + 10,
                               rng.next_below(50) + 10,
                               rng.next_below(50) + 10};
    const MultiTierResult dp = solve_multi(items, caps);
    const MultiTierResult oracle = solve_multi_exact(items, caps);
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial;
    check_consistent(items, caps, dp);
  }
}

TEST(MultiKnapsack, NeverExceedsAnyTierCapacityUnderCoarseGrid) {
  // Big byte sizes and a tiny state budget force coarse granules; the
  // round-up quantization must keep every tier feasible anyway.
  Rng rng(57);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<MultiTierItem> items;
    for (int i = 0; i < 10; ++i) {
      items.push_back(MultiTierItem{
          (rng.next_below(1u << 24)) + 1,
          {rng.next_double() * 5.0, rng.next_double() * 5.0}});
    }
    const std::uint64_t caps[]{(1ULL << 25) + rng.next_below(1u << 24),
                               (1ULL << 24) + rng.next_below(1u << 23)};
    const MultiTierResult r = solve_multi(items, caps, /*state_budget=*/256);
    check_consistent(items, caps, r);
  }
}

TEST(MultiKnapsack, DeterministicAcrossCalls) {
  const std::vector<MultiTierItem> items{
      {50, {5.0, 5.0}}, {50, {5.0, 5.0}}, {50, {5.0, 5.0}}};
  const std::uint64_t caps[]{100, 50};
  const MultiTierResult a = solve_multi(items, caps);
  const MultiTierResult b = solve_multi(items, caps);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.total_value, 15.0);  // all three fit across the tiers
}

TEST(MultiKnapsack, MatchesDenseDpBitForBit) {
  // Random instances on 2 and 3 constrained tiers, up to 40 items, with
  // items larger than one tier or every tier, zero and negative values,
  // integer values (ties) and the coarse state_budget = 256 grid. The
  // reachable-state DP must make exactly the dense DP's choices.
  Rng rng(2027);
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t T = 2 + static_cast<std::size_t>(trial % 2);
    const bool coarse = trial % 4 >= 2;
    const std::size_t budget = coarse ? 256 : std::size_t{1} << 18;
    const std::size_t n = 1 + rng.next_below(40);
    std::vector<std::uint64_t> caps(T);
    std::uint64_t largest = 0;
    for (std::uint64_t& cap : caps) {
      cap = rng.next_below(1u << 20) + (trial % 3 == 0 ? 0 : 1000);
      largest = std::max(largest, cap);
    }
    std::vector<MultiTierItem> items(n);
    for (MultiTierItem& it : items) {
      switch (rng.next_below(8)) {
        case 0: it.size = largest + 1 + rng.next_below(1000); break;
        case 1: it.size = caps[rng.next_below(T)] + 1; break;
        case 2: it.size = 0; break;
        default: it.size = rng.next_below(largest / 6 + 1) + 1; break;
      }
      it.values.resize(T);
      for (double& v : it.values) {
        switch (rng.next_below(6)) {
          case 0: v = 0.0; break;
          case 1: v = -rng.next_double() * 5.0; break;
          case 2: v = std::round(rng.next_double() * 4.0); break;
          default: v = rng.next_double() * 10.0; break;
        }
      }
    }
    const MultiTierResult fast = solve_multi(items, caps, budget);
    const MultiTierResult dense = dense_solve_multi(items, caps, budget);
    EXPECT_EQ(fast.assignment, dense.assignment) << "trial " << trial;
    EXPECT_EQ(std::memcmp(&fast.total_value, &dense.total_value,
                          sizeof(double)),
              0)
        << "trial " << trial << ": " << fast.total_value << " vs "
        << dense.total_value;
    EXPECT_EQ(fast.tier_sizes, dense.tier_sizes) << "trial " << trial;
    check_consistent(items, caps, fast);
  }
}

TEST(MultiKnapsack, OracleRejectsHugeInstances) {
  std::vector<MultiTierItem> items(30, MultiTierItem{1, {1.0, 1.0, 1.0}});
  const std::uint64_t caps[]{10, 10, 10};
  EXPECT_THROW(solve_multi_exact(items, caps), ContractError);
}

TEST(Knapsack, DeterministicTieBreaks) {
  const std::vector<KnapsackItem> items{{50, 5.0}, {50, 5.0}, {50, 5.0}};
  const KnapsackResult a = solve(items, 100, 2048);
  const KnapsackResult b = solve(items, 100, 2048);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.chosen.size(), 2u);
}

}  // namespace
}  // namespace tahoe::core
