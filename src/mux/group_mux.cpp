#include "mux/group_mux.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness/cluster.hpp"
#include "soak/runner.hpp"

namespace gmpx::mux {

namespace {

/// SplitMix64 finalizer — the same mixer the Rng uses, applied as a hash.
uint64_t mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr uint64_t kPlanSalt = 0x6d75785f706c616eull;   // "mux_plan"
constexpr uint64_t kGroupSalt = 0x6d75785f67726f75ull;  // "mux_grou"

/// The five single-group adversary personalities a mux plan draws from.
/// kGroupMux itself is the *outer* profile; the per-group fault shape is
/// always one of these.
constexpr scenario::Profile kBaseProfiles[] = {
    scenario::Profile::kMixed,          scenario::Profile::kChurnHeavy,
    scenario::Profile::kPartitionHeavy, scenario::Profile::kBurstCrash,
    scenario::Profile::kLossy,
};

/// Per-group fault schedule: the spec's profile over the shared knobs,
/// stretched to the session horizon with restart churn mixed in (the
/// single-group soak sweep's exact recipe), storm-tuned per detector.
scenario::Schedule group_schedule(const GroupSpec& spec, const MuxOptions& opts) {
  scenario::GeneratorOptions gen = opts.gen;
  gen.profile = spec.profile;
  if (opts.with_sessions) {
    gen.horizon = std::max(gen.horizon, opts.sopts.horizon);
    gen.restart_weight = opts.sopts.restart_weight;
  }
  if (opts.exec.fd == fd::DetectorKind::kHeartbeat) {
    gen = scenario::tuned_for_heartbeat(gen, opts.exec.heartbeat);
  } else if (opts.exec.fd == fd::DetectorKind::kPhi) {
    gen = scenario::tuned_for_phi(gen, opts.exec.phi);
  }
  return scenario::generate(spec.seed, gen);
}

/// Per-group session workload.  Cross-group sessions: the group's logical
/// clients fold onto the shared global session ids, so session s drives
/// traffic against many groups at once.
soak::Workload group_workload(const GroupSpec& spec, const MuxOptions& opts) {
  soak::Workload w = soak::generate_workload(spec.seed, opts.sopts);
  const uint32_t sessions = static_cast<uint32_t>(std::max<size_t>(opts.sessions, 1));
  for (soak::WorkloadOp& op : w.ops) op.client = (op.client + spec.gid) % sessions;
  return w;
}

}  // namespace

MuxPlan generate_mux_plan(uint64_t seed, const MuxOptions& opts) {
  MuxPlan plan;
  plan.groups.reserve(opts.groups);
  Rng rng(mix64(seed ^ kPlanSalt));
  const Tick span = opts.max_lifetime > opts.min_lifetime ? opts.max_lifetime - opts.min_lifetime
                                                          : 0;
  for (size_t i = 0; i < opts.groups; ++i) {
    GroupSpec g;
    g.gid = static_cast<uint32_t>(i);
    g.seed = mix64(seed ^ mix64(kGroupSalt + g.gid));
    g.create_at = rng.below(opts.spawn_span + 1);
    g.retire_at = g.create_at + opts.min_lifetime + rng.below(span + 1);
    g.profile = kBaseProfiles[rng.below(5)];
    plan.horizon = std::max(plan.horizon, g.retire_at);
    plan.groups.push_back(g);
  }
  return plan;
}

Residency plan_residency(const MuxPlan& plan) {
  std::vector<std::pair<Tick, uint64_t>> endpoints;  // (tick, 2·gid + is_retire)
  endpoints.reserve(2 * plan.groups.size());
  uint64_t lifetime_sum = 0;
  for (const GroupSpec& g : plan.groups) {
    endpoints.emplace_back(g.create_at, 2 * uint64_t{g.gid});
    endpoints.emplace_back(g.retire_at, 2 * uint64_t{g.gid} + 1);
    lifetime_sum += g.retire_at - g.create_at;
  }
  std::sort(endpoints.begin(), endpoints.end());
  Residency r;
  size_t live = 0;
  for (const auto& [tick, key] : endpoints) {
    if (key & 1) {
      --live;
    } else {
      r.peak = std::max(r.peak, ++live);
    }
  }
  if (plan.horizon > 0 && r.peak > 0) {
    r.occupancy = static_cast<double>(lifetime_sum) /
                  (static_cast<double>(plan.horizon) * static_cast<double>(r.peak));
  }
  return r;
}

MuxResult run_mux(uint64_t seed, const MuxOptions& opts) {
  const MuxPlan plan = generate_mux_plan(seed, opts);
  MuxResult res;
  res.groups = plan.groups.size();
  res.turns = res.groups;
  res.horizon = plan.horizon;
  const Residency live = plan_residency(plan);
  res.peak_resident = live.peak;
  res.occupancy = live.occupancy;

  harness::Cluster cluster{harness::ClusterOptions{}};
  uint64_t hash = 1469598103934665603ull;
  for (const GroupSpec& spec : plan.groups) {
    const scenario::Schedule sched = group_schedule(spec, opts);
    soak::Workload workload;
    soak::SoakResult r;
    if (opts.with_sessions) {
      workload = group_workload(spec, opts);
      r = soak::run_soak(sched, workload, opts.exec, opts.sopts, cluster);
      res.ops_attempted += r.ops_attempted;
      res.ops_rejected += r.ops_rejected;
      res.sync_passes += r.sync_passes;
      res.availability_sum += r.availability;
      ++res.availability_runs;
    } else {
      r.exec = scenario::execute(sched, opts.exec, cluster);
    }
    const scenario::ExecResult& e = r.exec;
    // Fold per-group trace hashes in gid order.
    hash = mix64(hash ^ e.trace_hash);
    if (e.quiesced) ++res.quiesced;
    res.sim_ticks += e.end_tick;
    res.messages += e.messages;
    res.fd_messages += e.fd_messages;
    res.skipped_ticks += e.skipped_ticks;
    res.skipped_events += e.skipped_events;
    res.aborted_joins += e.aborted_joins;
    ++res.retired;

    if (!r.ok()) {
      ++res.failures;
      if (res.first_failure.empty()) {
        std::ostringstream os;
        os << "group " << spec.gid << " (" << scenario::to_string(spec.profile)
           << " seed=" << spec.seed << "): " << r.message() << "\n"
           << "schedule:\n"
           << scenario::encode_schedule(sched);
        if (opts.with_sessions) os << "workload:\n" << soak::encode(workload);
        res.first_failure = os.str();
      }
    }

    if (opts.on_group) {
      const GroupOutcome out{spec.gid,         spec.seed,       spec.profile,
                             sched,            workload,        e,
                             r.app_check.ok(), r.availability,  r.ops_attempted,
                             r.ops_rejected};
      opts.on_group(out);
    }
  }
  res.trace_hash = hash;
  return res;
}

}  // namespace gmpx::mux
