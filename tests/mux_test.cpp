// GroupMux contracts (src/mux/group_mux.hpp): running a fleet of pooled
// group deployments in one process must be a *pure function* of (seed,
// options) and must preserve every single-group invariant:
//
//   * pooled replay: run_mux runs the groups one at a time on one cluster
//     that is reset() for each group, and every group's result is
//     byte-identical to a fresh-cluster replay of the same schedule (and,
//     with sessions on, of the same schedule + workload through
//     soak::run_soak) — the PR 4 reset contract, extended to fleet churn;
//   * plan-derived residency: peak_resident and occupancy are properties
//     of the plan's create/retire intervals, not of the engine;
//   * oracle skip-freedom: oracle-detector groups quiesce by queue drain
//     (run_to_quiescence never consults the skip engine), so a mux over
//     the oracle axis reports zero skipped ticks/events;
//   * sweep integration: the `groupmux` profile goes through the same
//     canonical merge as every other profile, so --jobs is invisible in
//     the output.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "mux/group_mux.hpp"
#include "scenario/executor.hpp"
#include "scenario/sweep.hpp"
#include "soak/runner.hpp"

using namespace gmpx;
using namespace gmpx::mux;

namespace {

/// Small plan with churn: creates spread over a window several lifetimes
/// wide, so the modeled fleet's groups overlap only partly.
MuxOptions churny(bool sessions) {
  MuxOptions m;
  m.groups = 10;
  m.spawn_span = 600'000;
  m.min_lifetime = 60'000;
  m.max_lifetime = 120'000;
  m.with_sessions = sessions;
  return m;
}

GroupSpec spec(uint32_t gid, Tick create_at, Tick retire_at) {
  GroupSpec g;
  g.gid = gid;
  g.create_at = create_at;
  g.retire_at = retire_at;
  return g;
}

}  // namespace

TEST(MuxPlan, DeterministicAndShaped) {
  const MuxOptions m = churny(true);
  const MuxPlan a = generate_mux_plan(42, m);
  const MuxPlan b = generate_mux_plan(42, m);
  const MuxPlan c = generate_mux_plan(43, m);
  ASSERT_EQ(a.groups.size(), m.groups);
  bool differs = false;
  for (size_t i = 0; i < m.groups; ++i) {
    EXPECT_EQ(a.groups[i].gid, i);
    EXPECT_EQ(a.groups[i].seed, b.groups[i].seed);
    EXPECT_EQ(a.groups[i].create_at, b.groups[i].create_at);
    EXPECT_EQ(a.groups[i].retire_at, b.groups[i].retire_at);
    EXPECT_LE(a.groups[i].create_at, m.spawn_span);
    const Tick life = a.groups[i].retire_at - a.groups[i].create_at;
    EXPECT_GE(life, m.min_lifetime);
    EXPECT_LE(life, m.max_lifetime);
    // Per-group fault shapes draw from the five single-group profiles only.
    EXPECT_NE(a.groups[i].profile, scenario::Profile::kGroupMux);
    if (a.groups[i].seed != c.groups[i].seed) differs = true;
  }
  EXPECT_TRUE(differs) << "different mux seeds must yield different plans";
}

TEST(Mux, ResidencyIsPlanDerived) {
  // Hand-computed overlaps.  At a shared tick endpoints apply in gid order
  // (a group's create before its retire), so the same three intervals
  // peak at 3 when the tick-100 create has the lower gid ...
  MuxPlan create_first;
  create_first.groups = {spec(0, 0, 300), spec(1, 100, 200), spec(2, 0, 100)};
  create_first.horizon = 300;
  const Residency a = plan_residency(create_first);
  EXPECT_EQ(a.peak, 3u);
  EXPECT_DOUBLE_EQ(a.occupancy, 500.0 / (300.0 * 3.0));
  // ... and at 2 when the tick-100 retire has the lower gid.
  MuxPlan retire_first;
  retire_first.groups = {spec(0, 0, 300), spec(1, 0, 100), spec(2, 100, 200)};
  retire_first.horizon = 300;
  const Residency b = plan_residency(retire_first);
  EXPECT_EQ(b.peak, 2u);
  EXPECT_DOUBLE_EQ(b.occupancy, 500.0 / (300.0 * 2.0));
  EXPECT_EQ(plan_residency(MuxPlan{}).peak, 0u);
  EXPECT_EQ(plan_residency(MuxPlan{}).occupancy, 0.0);

  // A generated plan: run_mux reports the plan's residency, which a
  // brute-force count of the groups live just after each create confirms.
  const MuxOptions m = churny(false);
  const MuxPlan plan = generate_mux_plan(11, m);
  auto key = [](Tick t, uint32_t gid, bool retire) {
    return std::make_tuple(t, 2 * uint64_t{gid} + (retire ? 1 : 0));
  };
  size_t peak = 0;
  uint64_t lifetimes = 0;
  for (const GroupSpec& g : plan.groups) {
    lifetimes += g.retire_at - g.create_at;
    const auto at = key(g.create_at, g.gid, false);
    size_t live = 0;
    for (const GroupSpec& h : plan.groups) {
      if (key(h.create_at, h.gid, false) <= at && key(h.retire_at, h.gid, true) > at) ++live;
    }
    peak = std::max(peak, live);
  }
  const MuxResult res = run_mux(11, m);
  EXPECT_EQ(res.peak_resident, peak);
  EXPECT_DOUBLE_EQ(res.occupancy, static_cast<double>(lifetimes) /
                                      (static_cast<double>(plan.horizon) * static_cast<double>(peak)));
  EXPECT_EQ(res.turns, m.groups);
}

TEST(Mux, PooledRetireThenCreateMatchesFreshClusters) {
  // Capture every group's (schedule, verdict) from a mux run, then replay
  // each schedule on a *fresh* cluster through the one-shot executor.
  // Every group after the first reuses the mux's one pooled cluster, so any
  // state leaking across a reset() shows up as a trace-hash mismatch.
  MuxOptions m = churny(false);  // protocol-only: execute() is the referee
  struct Seen {
    scenario::Schedule sched;
    uint64_t trace_hash;
    bool ok;
  };
  std::map<uint32_t, Seen> seen;
  m.on_group = [&seen](const GroupOutcome& g) {
    seen[g.gid] = Seen{g.schedule, g.exec.trace_hash, g.exec.ok()};
  };
  const MuxResult res = run_mux(11, m);
  EXPECT_EQ(res.failures, 0u) << res.first_failure;
  EXPECT_EQ(res.retired, m.groups);
  ASSERT_EQ(seen.size(), m.groups);
  // Plan shape only: the modeled fleet never has every group live at once.
  EXPECT_LT(res.peak_resident, m.groups)
      << "plan lost its churn; widen spawn_span or shrink lifetimes";

  scenario::ExecOptions exec;  // defaults match MuxOptions::exec defaults
  for (const auto& [gid, s] : seen) {
    const scenario::ExecResult fresh = scenario::execute(s.sched, exec);
    EXPECT_EQ(fresh.trace_hash, s.trace_hash) << "gid " << gid;
    EXPECT_EQ(fresh.ok(), s.ok) << "gid " << gid;
  }
}

TEST(Mux, SessionsMatchPerGroupSoakReplay) {
  // With sessions on, each group is exactly a single-group soak run of its
  // schedule and remapped workload: replaying that pair through run_soak on
  // a fresh cluster must reproduce the group's outcome field for field.
  MuxOptions m = churny(true);
  m.exec.fd = fd::DetectorKind::kHeartbeat;
  struct Seen {
    scenario::Schedule sched;
    soak::Workload workload;
    uint64_t trace_hash;
    uint64_t attempted, rejected;
    double availability;
    bool app_ok;
  };
  std::vector<Seen> seen;
  m.on_group = [&seen](const GroupOutcome& g) {
    EXPECT_EQ(g.gid, seen.size()) << "on_group runs in gid order";
    seen.push_back(Seen{g.schedule, g.workload, g.exec.trace_hash, g.ops_attempted,
                        g.ops_rejected, g.availability, g.app_ok});
  };
  const MuxResult res = run_mux(13, m);
  EXPECT_EQ(res.failures, 0u) << res.first_failure;
  ASSERT_EQ(seen.size(), m.groups);

  uint64_t attempted = 0, rejected = 0;
  for (size_t gid = 0; gid < seen.size(); ++gid) {
    const Seen& s = seen[gid];
    EXPECT_EQ(s.workload.ops.size(), m.sopts.ops) << "gid " << gid;
    const soak::SoakResult fresh = soak::run_soak(s.sched, s.workload, m.exec, m.sopts);
    EXPECT_EQ(fresh.exec.trace_hash, s.trace_hash) << "gid " << gid;
    EXPECT_EQ(fresh.ops_attempted, s.attempted) << "gid " << gid;
    EXPECT_EQ(fresh.ops_rejected, s.rejected) << "gid " << gid;
    EXPECT_EQ(fresh.availability, s.availability) << "gid " << gid;
    EXPECT_EQ(fresh.app_check.ok(), s.app_ok) << "gid " << gid;
    attempted += fresh.ops_attempted;
    rejected += fresh.ops_rejected;
  }
  EXPECT_EQ(res.ops_attempted, attempted);
  EXPECT_EQ(res.ops_rejected, rejected);
}

TEST(Mux, FirstFailureIsLowestFailingGid) {
  // Suppressed suspicion records make every group with a removal fail
  // GMP-1; the report carries the lowest failing gid.
  MuxOptions m = churny(false);
  m.exec.inject_bug_unrecorded_suspicion = true;
  std::vector<uint32_t> failing;
  m.on_group = [&failing](const GroupOutcome& g) {
    if (!g.exec.ok()) failing.push_back(g.gid);
  };
  const MuxResult res = run_mux(11, m);
  ASSERT_FALSE(failing.empty());
  EXPECT_EQ(res.failures, failing.size());
  EXPECT_EQ(res.first_failure.rfind("group " + std::to_string(failing.front()) + " (", 0), 0u)
      << res.first_failure;
}

TEST(Mux, OracleAxisStaysSkipFree) {
  MuxOptions m = churny(true);
  m.exec.fd = fd::DetectorKind::kOracle;
  const MuxResult oracle = run_mux(3, m);
  EXPECT_EQ(oracle.failures, 0u) << oracle.first_failure;
  EXPECT_EQ(oracle.skipped_ticks, 0u);
  EXPECT_EQ(oracle.skipped_events, 0u);

  // The timeout axis under the same plan seed leans on the skip engine for
  // its idle spans — the whole reason mostly-idle groups are nearly free.
  m.exec.fd = fd::DetectorKind::kHeartbeat;
  const MuxResult hb = run_mux(3, m);
  EXPECT_EQ(hb.failures, 0u) << hb.first_failure;
  EXPECT_GT(hb.skipped_ticks, 0u);
}

TEST(Mux, SessionsDriveTrafficAcrossGroups) {
  MuxOptions m = churny(true);
  m.sessions = 4;
  const MuxResult res = run_mux(5, m);
  EXPECT_EQ(res.failures, 0u) << res.first_failure;
  // Every group carries sopts.ops client ops.
  EXPECT_EQ(res.ops_attempted, m.groups * m.sopts.ops);
  EXPECT_EQ(res.availability_runs, m.groups);
  EXPECT_GT(res.mean_availability(), 0.0);
}

TEST(MuxSweep, JobsAreInvisibleInSweepOutput) {
  // The groupmux profile rides the standard canonical merge: one mux run
  // per (detector, seed) grid item, reports byte-identical for any jobs
  // value.
  scenario::SweepOptions base;
  base.seed_lo = 0;
  base.seed_hi = 4;
  base.profiles = {scenario::Profile::kGroupMux};
  base.detectors = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat};
  base.verbose = true;
  base.mux = churny(true);

  scenario::SweepOptions j1 = base;
  j1.jobs = 1;
  scenario::SweepOptions j8 = base;
  j8.jobs = 8;
  const scenario::SweepResult a = scenario::run_sweep(j1);
  const scenario::SweepResult b = scenario::run_sweep(j8);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.failures, b.failures);
  ASSERT_EQ(a.run_log.size(), b.run_log.size());
  for (size_t i = 0; i < a.run_log.size(); ++i) {
    EXPECT_EQ(a.run_log[i].trace_hash, b.run_log[i].trace_hash) << "run " << i;
    EXPECT_EQ(a.run_log[i].groups, b.run_log[i].groups) << "run " << i;
    EXPECT_EQ(a.run_log[i].occupancy, b.run_log[i].occupancy) << "run " << i;
  }
}
