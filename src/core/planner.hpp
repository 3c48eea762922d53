// TahoePolicy: the paper's placement planner.
//
// Workflow (Section "data placement decision and enforcement" of the paper
// line, re-targeted to task groups):
//
//  1. For each group, every profiled data unit gets one Eq. (7) weight per
//     constrained tier (every tier except the capacity tier):
//     w = BFT - COST - extra_COST, where BFT comes from the calibrated
//     performance models (Eqs. (1)-(5)), COST from Eq. (6) with the
//     overlap window derived from the task graph's last-reference
//     analysis, and extra_COST from the evictions needed to make room.
//  2. Per-group multi-choice knapsacks (core::solve_multi) produce the
//     *phase-local* plan; a single knapsack over per-unit benefits summed
//     across groups produces the *cross-phase global* plan. A two-tier
//     DRAM/NVM machine is the one-constrained-tier case, where the
//     multi-choice knapsack is the paper's 0/1 knapsack.
//  3. The plan with the larger predicted per-iteration gain wins and is
//     compiled into a cyclic ScheduledCopy list (with a preamble that
//     reconciles the decision-time placement on the first enforcement
//     iteration). The phase-local body is iterated to its cyclic fixed
//     point, or closed with explicit restore copies, so every iteration
//     starts from the same residency.
#pragma once

#include <optional>

#include "core/perf_model.hpp"
#include "core/policy.hpp"

namespace tahoe::core {

struct TahoeOptions {
  /// Account for NVM read/write asymmetry (Eqs. (4)/(5)); disabling
  /// reproduces the "w.o drw" ablation (Eqs. (2)/(3)).
  bool distinguish_rw = true;
  /// Force a strategy instead of letting predicted gain choose
  /// (for the technique-contribution ablation).
  enum class Strategy { Auto, GlobalOnly, LocalOnly };
  Strategy strategy = Strategy::Auto;
  /// When false, disable lookahead: every copy triggers exactly when it is
  /// needed, exposing the full movement cost (the proactive-migration
  /// ablation).
  bool proactive = true;
};

class TahoePolicy : public Policy {
 public:
  /// `constants` comes from offline calibration (calibrate()).
  TahoePolicy(ModelConstants constants, TahoeOptions options = {});

  std::string name() const override { return "tahoe"; }
  bool needs_profiling() const override { return true; }
  PlanDecision decide(const PlanInputs& in) override;

 private:
  ModelConstants constants_;
  TahoeOptions options_;
};

// ---- Multi-tenant serving plan (per-tenant capacity rows). ----
//
// The serving subsystem (src/serve/) registers N concurrent applications
// against one machine. Planning is the multi-tenant variant of the
// knapsack: every tenant contributes fast-tier promotion candidates, and
// the shared fast tier is arbitrated under per-tenant capacity rows
// (quotas) with priority-weighted values (core::solve_tenant_rows). The
// quota-free baseline runs the same candidates through the plain shared
// 0/1 knapsack, blind to tenants and priorities.

/// One fast-tier promotion candidate of a tenant. `value` is the modeled
/// seconds saved per second of request traffic when the unit is served
/// from the fast tier instead of the capacity tier.
struct TenantUnitCandidate {
  UnitKey unit;
  std::uint64_t bytes = 0;
  double value = 0.0;
};

struct TenantDemand {
  std::string name;
  double priority = 1.0;
  /// Per-tenant capacity row in bytes; 0 derives the row from the
  /// tenant's priority share of the fast tier (derive_tenant_quotas).
  std::uint64_t quota_bytes = 0;
  std::vector<TenantUnitCandidate> candidates;
};

struct TenantPlacementPlan {
  /// Units placed on the fast tier, per tenant (same order as the input).
  std::vector<std::vector<UnitKey>> promoted;
  std::vector<std::uint64_t> quota_bytes;    ///< effective rows used
  std::vector<std::uint64_t> planned_bytes;  ///< fast-tier bytes per tenant
  double total_value = 0.0;  ///< priority-weighted (QoS) or raw (quota-free)
};

/// Priority-proportional split of the fast tier: tenant i gets
/// floor(capacity * priority_i / sum(priorities)) bytes. Deterministic;
/// the rounding remainder stays unreserved (the shared-capacity DP may
/// still hand it to any tenant within its row).
std::vector<std::uint64_t> derive_tenant_quotas(
    std::uint64_t fast_capacity, const std::vector<double>& priorities);

/// Plan fast-tier residency for N tenants sharing `fast_capacity` bytes.
/// With `enforce_quotas`, per-tenant rows and priorities arbitrate the
/// tier (multi-tenant knapsack); without, one shared knapsack over all
/// candidates ignores tenancy entirely.
TenantPlacementPlan plan_tenants(const std::vector<TenantDemand>& tenants,
                                 std::uint64_t fast_capacity,
                                 bool enforce_quotas);

}  // namespace tahoe::core
