// gmpbench: the GMP stack's benchmark.  One process, one thread, driving the
// library's public entry points over a seeded workload:
//
//   gmpbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Workloads (perfbench/README.md says why each exists):
//   oracle-sweep   fuzz grid n in {5,9} x 5 profiles, oracle detector
//   timeout-sweep  the same grid, heartbeat and phi detectors, storm-tuned
//   soak           soak::run_soak at SoakOptions defaults x 5 profiles x
//                  heartbeat/phi, n = 5
//   mux-fleet      mux::run_mux, 4000 pooled groups, heartbeat, sessions on
//
// Every run is closed loop: the next run starts when the previous one has
// concluded and been judged.  A run is one schedule (sweeps), one soak run,
// or one group (mux).  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 reports the per-layer metrics from a run that alternates traced
// and untraced rounds, and writes the spans as Chrome Trace JSON.
//
// Gates (exit 1, "correct": false): any failed verdict; any virtual-time
// metric or count that differs between two passes over the same inputs, or
// any timed run whose digest differs from its first pass; any mux group whose
// serial replay trace hash differs from the mux's.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "harness/cluster.hpp"
#include "metrics.hpp"
#include "mux/group_mux.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "soak/availability.hpp"
#include "soak/runner.hpp"
#include "spans.hpp"
#include "trace/checker.hpp"

using namespace gmpx;
using gmpbench::mean;
using gmpbench::now_ns;
using gmpbench::PassStats;
using gmpbench::percentile;
using gmpbench::Scope;
using gmpbench::Tracer;

namespace {

constexpr int kSetupReps = 11;
/// Set-up warm-up work: runs per grid cell, and the size of the mux-fleet
/// warm-up fleet (groups).
constexpr size_t kWarmRuns = 5;
constexpr size_t kWarmGroups = 256;
/// Spans written to the Chrome Trace file (the earliest); all of them are
/// reduced to self times.
constexpr size_t kMaxWrittenSpans = 60'000;

constexpr scenario::Profile kProfiles[] = {
    scenario::Profile::kMixed,          scenario::Profile::kChurnHeavy,
    scenario::Profile::kPartitionHeavy, scenario::Profile::kBurstCrash,
    scenario::Profile::kLossy,
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Gate failures, reported on stderr; any one fails the benchmark.
struct Gates {
  std::vector<std::string> errors;
  bool any = false;
  void fail(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
    any = true;
  }
};

/// What one workload measured.  A run is one schedule, soak run or group.
struct Measured {
  std::vector<double> setup_s;     ///< each set-up repetition
  /// The timed loop repeats a fixed sequence of runs (the timed pass).
  /// Other tenants of a shared host only ever slow a run down, so the
  /// end-to-end times keep each run's fastest untraced repetition.
  std::vector<uint64_t> best_run_ns;  ///< mux-fleet: per group-conclusion gap
  uint64_t best_tail_ns = 0;          ///< mux-fleet: last conclusion -> return
  double untraced_runs = 0, untraced_ns = 0;
  double traced_runs = 0, traced_ns = 0;
  uint64_t untraced_allocs = 0;
  uint64_t attempted = 0;  ///< runs in the timed loop
  uint64_t judged = 0;     ///< runs whose verdict was checked, passes included
  uint64_t failed = 0;
  PassStats pass;          ///< the virtual-time figures
  // mux-fleet only.
  std::vector<double> plan_us;
  std::optional<mux::MuxResult> mux;
  double serial_ns = 0;
};

// ---------------------------------------------------------------------------
// Sweep and soak workloads: a grid of (generator, executor) cells, K seeds
// per cell.  A pass runs them in rounds; a round gives every cell a block of
// consecutive seeds, so any prefix of a pass holds every cell in proportion
// while the detector (whose change forces Cluster::reset to rebuild it)
// switches only between blocks, as in the sweep's own seed-inner order.
// ---------------------------------------------------------------------------

struct Cell {
  scenario::GeneratorOptions gen;
  scenario::ExecOptions exec;
};

Cell make_cell(size_t n, scenario::Profile p, fd::DetectorKind d, bool soak) {
  Cell c;
  c.gen.n = n;
  c.gen.profile = p;
  c.exec.fd = d;
  if (soak) {
    const soak::SoakOptions sopts;
    c.gen.horizon = std::max(c.gen.horizon, sopts.horizon);
    c.gen.restart_weight = sopts.restart_weight;
  }
  if (d == fd::DetectorKind::kHeartbeat) c.gen = scenario::tuned_for_heartbeat(c.gen, c.exec.heartbeat);
  if (d == fd::DetectorKind::kPhi) c.gen = scenario::tuned_for_phi(c.gen, c.exec.phi);
  return c;
}

/// What must repeat exactly when one input runs again.
struct Digest {
  uint64_t trace_hash = 0, end_tick = 0, messages = 0, fd_messages = 0, skipped_events = 0;
  uint64_t burst_events = 0, ops_attempted = 0, ops_rejected = 0;
  bool ok = false;
  bool operator==(const Digest&) const = default;
};

class Grid {
 public:
  /// Input seeds of every cell are [base_seed * per_cell, (base_seed + 1) *
  /// per_cell); `block` must divide per_cell.
  Grid(std::vector<Cell> cells, size_t per_cell, size_t block, uint64_t base_seed, bool soak)
      : cells_(std::move(cells)), block_(block), soak_(soak) {
    for (size_t r = 0; r < per_cell; r += block)
      for (size_t c = 0; c < cells_.size(); ++c)
        for (size_t b = 0; b < block; ++b) inputs_.push_back({c, base_seed * per_cell + r + b});
  }

  size_t inputs() const { return inputs_.size(); }
  /// Inputs per round.
  size_t round() const { return block_ * cells_.size(); }

  /// A fresh pooled cluster, warmed by kWarmRuns runs of every cell.
  void setup() {
    cluster_.emplace(harness::ClusterOptions{});
    Tracer off(false);
    for (size_t i = 0; i < round(); i += block_)
      for (size_t k = 0; k < kWarmRuns; ++k) run(i + k, off, 0);
  }

  /// Run input i: generate -> verdict.  Returns the run's time in ns; the
  /// concluded run stays readable through the accessors until the next run.
  uint64_t run(size_t i, Tracer& tr, uint64_t id) {
    cell_ = &cells_[inputs_[i].cell];
    const Cell& cell = *cell_;
    const uint64_t seed = inputs_[i].seed;
    const uint64_t t0 = now_ns();
    {
      Scope root(tr, "run", id);
      {
        Scope s(tr, "scenario.generate", id);
        sched_ = scenario::generate(seed, cell.gen);
      }
      if (soak_) {
        {
          Scope s(tr, "soak.workload", id);
          workload_ = soak::generate_workload(seed, sopts_);
        }
        Scope s(tr, "soak.run", id);
        res_ = soak::run_soak(sched_, workload_, cell.exec, sopts_, *cluster_);
      } else {
        // execute(s, opts, cluster) split at its public seams.
        {
          Scope s(tr, "harness.reset", id);
          cluster_->reset(scenario::cluster_options_for(sched_, cell.exec));
        }
        scenario::StagedRun staged(*cluster_, sched_, cell.exec);
        {
          Scope s(tr, "scenario.install", id);
          staged.install();
        }
        Scope s(tr, "scenario.advance", id);
        staged.advance(cell.exec.max_sim_events);
        res_.exec = staged.take_result();
      }
    }
    return now_ns() - t0;
  }

  /// Traced-run extras, timed outside the run's span: a repeated verdict
  /// check and, for soak, a repeated availability scan and a plain
  /// execute() of the same schedule (the protocol-only share of the run).
  void extras(Tracer& tr, uint64_t id) {
    const scenario::ExecResult& r = res_.exec;
    {
      Scope s(tr, "trace.check", id);
      trace::CheckOptions co;
      co.check_liveness = r.liveness_checked;
      (void)trace::check_gmp(cluster_->recorder(), co);
    }
    if (!soak_) return;
    {
      Scope s(tr, "soak.availability", id);
      (void)soak::availability_from_trace(cluster_->recorder(), r.end_tick,
                                          cell_->exec.require_majority);
    }
    Scope s(tr, "soak.plain", id);
    (void)scenario::execute(sched_, cell_->exec, *cluster_);
  }

  bool ok() const { return soak_ ? res_.ok() : res_.exec.ok(); }

  Digest digest() const {
    const scenario::ExecResult& r = res_.exec;
    return Digest{r.trace_hash,        r.end_tick,         r.messages,
                  r.fd_messages,       r.skipped_events,   r.burst_events,
                  res_.ops_attempted,  res_.ops_rejected,  ok()};
  }

  /// Fold the concluded run into a pass's virtual-time figures.
  void analyze(PassStats& st) {
    const scenario::ExecResult& r = res_.exec;
    trace::Recorder& rec = cluster_->recorder();
    const double avail =
        soak_ ? res_.availability
              : soak::availability_from_trace(rec, r.end_tick, cell_->exec.require_majority);
    st.add_run(r, ok(), cluster_->world().meter(), gmpbench::analyze_trace(rec, sched_), avail);
    st.ops_attempted += res_.ops_attempted;
    st.ops_rejected += res_.ops_rejected;
    st.sync_passes += res_.sync_passes;
  }

  std::string describe(size_t i) const {
    const Cell& cell = cells_[inputs_[i].cell];
    return std::string(scenario::to_string(cell.gen.profile)) + "/" +
           fd::to_string(cell.exec.fd) + " n=" + std::to_string(cell.gen.n) +
           " seed=" + std::to_string(inputs_[i].seed);
  }

 private:
  struct Input {
    size_t cell;
    uint64_t seed;
  };
  std::vector<Cell> cells_;
  std::vector<Input> inputs_;
  size_t block_;
  bool soak_;
  soak::SoakOptions sopts_;
  std::optional<harness::Cluster> cluster_;
  const Cell* cell_ = nullptr;  ///< the last run's cell
  scenario::Schedule sched_;
  soak::Workload workload_;
  soak::SoakResult res_;  ///< sweeps fill only .exec
};

/// The timed loop repeats the first `timed_rounds` rounds of the pass.
void run_grid(const Args& a, Grid& g, size_t timed_rounds, Tracer& tr, Measured& out,
              Gates& gates) {
  for (int r = 0; r < kSetupReps; ++r) {
    const uint64_t t0 = now_ns();
    g.setup();
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Pass A: every input once, analysed.  Its digests are what every later
  // run of the same input must reproduce.
  Tracer off(false);
  std::vector<Digest> digests(g.inputs());
  for (size_t i = 0; i < g.inputs(); ++i) {
    g.run(i, off, 0);
    digests[i] = g.digest();
    g.analyze(out.pass);
  }

  // Timed closed loop.  Untraced, it runs whole timed passes; with --trace 1,
  // whole rounds that alternate between untraced and traced (the parity
  // flips every pass, so each round is seen both ways), at least one of each.
  const double budget = a.seconds * 1e9;
  const size_t timed = std::min(timed_rounds, g.inputs() / g.round()) * g.round();
  const size_t stop_every = a.trace ? g.round() : timed;
  out.best_run_ns.assign(timed, UINT64_MAX);
  size_t i = 0, pass = 0;
  uint64_t run_id = 0;
  while (out.untraced_ns + out.traced_ns < budget || i % stop_every != 0 ||
         out.untraced_runs == 0 || (a.trace && out.traced_runs == 0)) {
    const bool traced = a.trace && (i / g.round() + pass) % 2 == 1;
    const uint64_t allocs_before = thread_alloc_count();
    const uint64_t ns = g.run(i, traced ? tr : off, ++run_id);
    const uint64_t allocs = thread_alloc_count() - allocs_before;
    ++out.attempted;
    if (traced) {
      out.traced_ns += static_cast<double>(ns);
      ++out.traced_runs;
      g.extras(tr, run_id);
    } else {
      out.untraced_ns += static_cast<double>(ns);
      ++out.untraced_runs;
      out.untraced_allocs += allocs;
      out.best_run_ns[i] = std::min(out.best_run_ns[i], ns);
    }
    if (!g.ok()) ++out.failed;
    if (g.digest() != digests[i]) gates.fail("run differs from its first pass: " + g.describe(i));
    i = (i + 1) % timed;
    if (i == 0) ++pass;
  }

  // Pass B: the same inputs again; every virtual figure must match pass A.
  PassStats pass_b;
  for (size_t j = 0; j < g.inputs(); ++j) {
    g.run(j, off, 0);
    g.analyze(pass_b);
  }
  if (!(out.pass == pass_b)) gates.fail("virtual-time metrics differ between two same-seed passes");
  out.judged = out.attempted + out.pass.runs + pass_b.runs;
  out.failed += out.pass.failed + pass_b.failed;
}

// ---------------------------------------------------------------------------
// mux-fleet: run_mux over one plan, repeated; then every group replayed one
// at a time on one pooled cluster.
// ---------------------------------------------------------------------------

mux::MuxOptions fleet() {
  // The bench_groupmux fleet shape: mostly-idle groups, a burst of
  // reconfiguration near the front, a trickle of client-session ops.
  mux::MuxOptions m;
  m.groups = 4000;
  m.sessions = 16;
  m.spawn_span = 400'000;
  m.min_lifetime = 120'000;
  m.max_lifetime = 360'000;
  m.gen.max_events = 6;
  m.sopts.horizon = 150'000;
  m.sopts.ops = 8;
  m.exec.fd = fd::DetectorKind::kHeartbeat;
  return m;
}

/// The deterministic part of a MuxResult (everything but wall clock).
bool same_mux(const mux::MuxResult& x, const mux::MuxResult& y) {
  return x.groups == y.groups && x.retired == y.retired && x.failures == y.failures &&
         x.quiesced == y.quiesced && x.sim_ticks == y.sim_ticks && x.messages == y.messages &&
         x.fd_messages == y.fd_messages && x.skipped_ticks == y.skipped_ticks &&
         x.skipped_events == y.skipped_events && x.aborted_joins == y.aborted_joins &&
         x.turns == y.turns && x.peak_resident == y.peak_resident &&
         x.occupancy == y.occupancy && x.ops_attempted == y.ops_attempted &&
         x.ops_rejected == y.ops_rejected && x.sync_passes == y.sync_passes &&
         x.availability_sum == y.availability_sum && x.trace_hash == y.trace_hash;
}

void run_fleet(const Args& a, Tracer& tr, Measured& out, Gates& gates) {
  mux::MuxOptions opts = fleet();
  // Set-up: generate the plan, build the replay cluster, and warm the
  // allocator with a small fleet of the same shape (run_mux builds its slot
  // pool inside the call, so a warm-up run is the only way to reach it).
  std::optional<harness::Cluster> replay;
  mux::MuxOptions warm = opts;
  warm.groups = kWarmGroups;
  for (int r = 0; r < kSetupReps; ++r) {
    const uint64_t t0 = now_ns();
    const mux::MuxPlan plan = mux::generate_mux_plan(a.seed, opts);
    const uint64_t t1 = now_ns();
    replay.emplace(harness::ClusterOptions{});
    if (!mux::run_mux(a.seed, warm).ok()) gates.fail("failed verdict: mux warm-up fleet");
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    out.plan_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (plan.groups.size() != opts.groups) gates.fail("mux plan size");
  }

  // Per-group samples are the gaps between successive group conclusions:
  // the fleet's time per concluded group.  The k-th conclusion of every call
  // is the same group, so it keeps its fastest gap over the untraced calls.
  // The first gap runs from the call's start; the time from the last
  // conclusion to the call's return keeps its fastest value apart.
  const size_t groups = opts.groups;
  std::vector<scenario::Schedule> scheds(groups);
  std::vector<soak::Workload> workloads(groups);
  std::vector<uint64_t> hashes(groups, 0);
  out.best_run_ns.assign(groups, UINT64_MAX);
  out.best_tail_ns = UINT64_MAX;
  bool capture = true, sample = false;
  uint64_t last = 0;
  size_t concluded = 0;
  opts.on_group = [&](const mux::GroupOutcome& g) {
    const uint64_t t = now_ns();
    if (sample && concluded < groups)
      out.best_run_ns[concluded] = std::min(out.best_run_ns[concluded], t - last);
    ++concluded;
    last = t;
    if (!(g.exec.ok() && g.app_ok)) ++out.failed;
    if (capture) {
      scheds[g.gid] = g.schedule;
      workloads[g.gid] = g.workload;
      hashes[g.gid] = g.exec.trace_hash;
    } else if (hashes[g.gid] != g.exec.trace_hash) {
      gates.fail("mux group differs from its first pass: " + std::to_string(g.gid));
    }
  };

  // Timed loop: whole run_mux calls; with --trace 1 every other call is
  // traced.  At least two calls (the same-seed gate), three when tracing.
  const double budget = a.seconds * 1e9;
  for (uint64_t call = 0; out.untraced_ns + out.traced_ns < budget || call < (a.trace ? 3u : 2u);
       ++call) {
    const bool traced = a.trace && call % 2 == 1;
    Tracer off(false);
    sample = !traced;
    concluded = 0;
    const uint64_t t0 = now_ns();
    last = t0;
    mux::MuxResult res;
    {
      Scope root(traced ? tr : off, "mux.run", call);
      res = mux::run_mux(a.seed, opts);
    }
    const uint64_t t1 = now_ns();
    const double ns = static_cast<double>(t1 - t0);
    if (!traced) out.best_tail_ns = std::min(out.best_tail_ns, t1 - last);
    if (concluded != groups)
      gates.fail("mux call concluded " + std::to_string(concluded) + " of " +
                 std::to_string(groups) + " groups");
    out.attempted += res.groups;
    (traced ? out.traced_ns : out.untraced_ns) += ns;
    (traced ? out.traced_runs : out.untraced_runs) += static_cast<double>(res.groups);
    capture = false;
    if (!out.mux) {
      out.mux = res;
    } else if (!same_mux(*out.mux, res)) {
      gates.fail("mux results differ between two same-seed passes");
    }
  }

  // Serial replay: each group of the plan, one at a time, on one pooled
  // cluster.  It must reproduce the mux's trace hash group for group, and it
  // is where the trace-derived figures are read (the mux keeps no recorder).
  for (size_t gid = 0; gid < groups; ++gid) {
    const uint64_t t0 = now_ns();
    const soak::SoakResult r =
        soak::run_soak(scheds[gid], workloads[gid], opts.exec, opts.sopts, *replay);
    out.serial_ns += static_cast<double>(now_ns() - t0);
    if (r.exec.trace_hash != hashes[gid])
      gates.fail("serial replay trace hash differs from the mux's: group " + std::to_string(gid));
    out.pass.add_run(r.exec, r.ok(), replay->world().meter(),
                     gmpbench::analyze_trace(replay->recorder(), scheds[gid]), r.availability);
    out.pass.ops_attempted += r.ops_attempted;
    out.pass.ops_rejected += r.ops_rejected;
    out.pass.sync_passes += r.sync_passes;
  }
  const mux::MuxResult& mr = *out.mux;
  if (out.pass.end_ticks != mr.sim_ticks || out.pass.fd_msgs != mr.fd_messages ||
      out.pass.skipped_ticks != mr.skipped_ticks || out.pass.aborted_joins != mr.aborted_joins ||
      out.pass.ops_attempted != mr.ops_attempted || out.pass.ops_rejected != mr.ops_rejected ||
      out.pass.sync_passes != mr.sync_passes)
    gates.fail("serial replay totals differ from the mux's");
  out.judged = out.attempted + out.pass.runs;
  out.failed += out.pass.failed;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> items;
  void add(std::string name, double v, const char* unit) {
    items.push_back({std::move(name), {v, unit}});
  }
};

/// Peak resident set of this program image.  VmHWM, not getrusage's
/// ru_maxrss, which keeps the peak of the launcher from before execve.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void add_end_to_end(Metrics& m, const Measured& r) {
  const PassStats& st = r.pass;
  const auto& t = st.trace;
  const double runs = static_cast<double>(st.runs);
  m.add("setup_s", percentile(r.setup_s, 0.5), "s");
  double pass_ns = static_cast<double>(r.best_tail_ns);
  std::vector<double> best_us;
  for (uint64_t ns : r.best_run_ns) {
    pass_ns += static_cast<double>(ns);
    best_us.push_back(static_cast<double>(ns) / 1e3);
  }
  m.add("runs_per_s", static_cast<double>(best_us.size()) / (pass_ns / 1e9), "1/s");
  m.add("run_p50_us", percentile(best_us, 0.5), "us");
  m.add("run_p99_us", percentile(best_us, 0.99), "us");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("passed_run_frac", 1.0 - ratio(static_cast<double>(r.failed), static_cast<double>(r.judged)),
        "ratio");
  m.add("exclusion_mean_ticks", mean(t.exclusion), "ticks");
  m.add("exclusion_p95_ticks", percentile(t.exclusion, 0.95), "ticks");
  m.add("admission_p50_ticks", percentile(t.admission, 0.5), "ticks");
  m.add("admission_p97_ticks", percentile(t.admission, 0.97), "ticks");
  m.add("availability", st.availability_sum / runs, "ratio");
  // No client ops (the sweeps) means none refused.
  m.add("ops_served_frac",
        1.0 - ratio(static_cast<double>(st.ops_rejected), static_cast<double>(st.ops_attempted)),
        "ratio");
  m.add("live_exclusions_per_run", static_cast<double>(t.live_exclusions) / runs, "count");
  m.add("msgs_per_view",
        ratio(static_cast<double>(st.gmp_msgs), static_cast<double>(t.view_changes)), "count");
}

/// Span name -> per-layer metric; the self times of these spans add up to
/// the traced run time.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"run", "bench.glue_us"},
    {"scenario.generate", "scenario.generate_us"},
    {"harness.reset", "harness.reset_us"},
    {"scenario.install", "scenario.install_us"},
    {"scenario.advance", "scenario.advance_us"},
    {"soak.workload", "soak.workload_us"},
    {"soak.run", "soak.run_us"},
    {"mux.run", "mux.run_us"},
};

/// Every per-layer metric; a layer the workload does not call reads 0.
void add_per_layer(Metrics& m, const Measured& r, const Tracer& tr) {
  const std::map<std::string, uint64_t> self = tr.self_ns();
  auto self_us = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e3 / r.traced_runs;
  };
  double self_sum = 0.0;
  for (const auto& [span, name] : kLayerSpans) {
    self_sum += self_us(span);
    m.add(name, self_us(span), "us");
  }
  const double untraced_us = r.untraced_ns / 1e3 / r.untraced_runs;
  const double traced_us = r.traced_ns / 1e3 / r.traced_runs;
  m.add("trace.untraced_run_us", untraced_us, "us");
  m.add("trace.traced_run_us", traced_us, "us");
  m.add("trace.overhead_us", traced_us - untraced_us, "us");
  m.add("trace.self_sum_us", self_sum, "us");
  m.add("trace.runs_per_s_delta", 1e6 / traced_us - 1e6 / untraced_us, "1/s");
  m.add("trace.check_us", self_us("trace.check"), "us");
  m.add("trace.check_share", self_us("trace.check") / untraced_us, "ratio");
  m.add("soak.availability_us", self_us("soak.availability"), "us");
  const double soak_us = self_us("soak.run");
  m.add("soak.app_share", soak_us > 0 ? 1.0 - self_us("soak.plain") / soak_us : 0.0, "ratio");
  m.add("scenario.allocs_per_run", static_cast<double>(r.untraced_allocs) / r.untraced_runs,
        "count");
  const double groups = r.mux ? static_cast<double>(r.mux->groups) : 0.0;
  m.add("mux.plan_us", r.mux ? percentile(r.plan_us, 0.5) : 0.0, "us");
  m.add("mux.peak_resident", r.mux ? static_cast<double>(r.mux->peak_resident) : 0.0, "count");
  m.add("mux.occupancy", r.mux ? r.mux->occupancy : 0.0, "ratio");
  m.add("mux.turns_per_group", r.mux ? static_cast<double>(r.mux->turns) / groups : 0.0, "count");
  m.add("mux.overhead_frac", r.mux ? untraced_us / (r.serial_ns / 1e3 / groups) - 1.0 : 0.0,
        "ratio");

  const PassStats& st = r.pass;
  const auto& t = st.trace;
  auto per_run = [&](uint64_t v) { return static_cast<double>(v) / static_cast<double>(st.runs); };
  m.add("trace.events_per_run", per_run(t.events), "count");
  m.add("sim.skip_ratio",
        ratio(static_cast<double>(st.skipped_ticks), static_cast<double>(st.end_ticks)), "ratio");
  m.add("sim.skipped_events_per_run", per_run(st.skipped_events), "count");
  m.add("sim.bursts_per_run", per_run(st.bursts), "count");
  m.add("sim.mean_burst",
        ratio(static_cast<double>(st.burst_events), static_cast<double>(st.bursts)), "count");
  m.add("sim.end_ticks_per_run", per_run(st.end_ticks), "ticks");
  m.add("gmp.msgs_per_run", per_run(st.gmp_msgs), "count");
  m.add("gmp.update_msgs_per_run", per_run(st.update_msgs), "count");
  m.add("gmp.reconfig_msgs_per_run", per_run(st.reconfig_msgs), "count");
  m.add("gmp.mgr_changes_per_run", per_run(t.mgr_changes), "count");
  m.add("gmp.aborted_joins_per_run", per_run(st.aborted_joins), "count");
  m.add("gmp.unexcluded_per_run", per_run(t.unexcluded), "count");
  m.add("gmp.unadmitted_per_run", per_run(t.unadmitted), "count");
  m.add("gmp.exclusion_p50_ticks", percentile(t.exclusion, 0.5), "ticks");
  m.add("gmp.exclusion_p99_ticks", percentile(t.exclusion, 0.99), "ticks");
  m.add("gmp.admission_p99_ticks", percentile(t.admission, 0.99), "ticks");
  m.add("gmp.agree_p50_ticks", percentile(t.agree, 0.5), "ticks");
  m.add("gmp.spread_p50_ticks", percentile(t.spread, 0.5), "ticks");
  m.add("fd.msgs_per_run", per_run(st.fd_msgs), "count");
  m.add("fd.faulty_per_run", per_run(t.faulty), "count");
  m.add("fd.false_suspicions_per_run", per_run(t.false_suspicions), "count");
  m.add("fd.detect_p50_ticks", percentile(t.detect, 0.5), "ticks");
  m.add("fd.detect_p99_ticks", percentile(t.detect, 0.99), "ticks");
  m.add("soak.sync_passes_per_run", per_run(st.sync_passes), "count");
  m.add("app.ops_per_run", per_run(st.ops_attempted), "count");
  m.add("app.msgs_per_run", per_run(st.app_msgs), "count");
}

std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_result(bool correct, const Measured& r, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    std::fprintf(stderr, "  %-30s %22s %s\n", name.c_str(), num(vu.first).c_str(), vu.second);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: gmpbench --workload oracle-sweep|timeout-sweep|soak|mux-fleet\n"
               "                --seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else {
      return usage();
    }
  }
  if (!(a.seconds > 0)) return usage();

  // Grid shape per workload: node counts x profiles x detectors, seeds per
  // cell (the pass size), the per-cell block of a round, and the rounds the
  // timed loop repeats: a timed pass of 1-2 s, so that each run repeats often
  // enough for its fastest repetition to miss other tenants.
  struct Shape {
    std::vector<size_t> ns;
    std::vector<fd::DetectorKind> dets;
    size_t per_cell = 0, block = 0, timed_rounds = 0;
    bool soak = false;
  };
  using fd::DetectorKind;
  Shape sh;
  if (a.workload == "oracle-sweep") {
    sh = {{5, 9}, {DetectorKind::kOracle}, 2000, 50, 40, false};
  } else if (a.workload == "timeout-sweep") {
    sh = {{5, 9}, {DetectorKind::kHeartbeat, DetectorKind::kPhi}, 500, 50, 5, false};
  } else if (a.workload == "soak") {
    // No oracle cells: soak x oracle fails APP-R4 after a one-sided false
    // suspicion of the Mgr (e.g. gmpx_fuzz --soak --seeds 2896:2897
    // --profile churn --fd oracle), a defect in the program, and a benchmark
    // run must not fail.  perfbench/README.md has the details.
    sh = {{5}, {DetectorKind::kHeartbeat, DetectorKind::kPhi}, 300, 30, 4, true};
  } else if (a.workload != "mux-fleet") {
    return usage();
  }

  Tracer tr(a.trace);
  Measured r;
  Gates gates;
  if (a.workload == "mux-fleet") {
    run_fleet(a, tr, r, gates);
  } else {
    std::vector<Cell> cells;
    for (size_t n : sh.ns)
      for (scenario::Profile p : kProfiles)
        for (DetectorKind d : sh.dets) cells.push_back(make_cell(n, p, d, sh.soak));
    Grid g(std::move(cells), sh.per_cell, sh.block, a.seed, sh.soak);
    run_grid(a, g, sh.timed_rounds, tr, r, gates);
  }
  if (r.failed) gates.fail(std::to_string(r.failed) + " run(s) failed their verdict");

  Metrics m;
  if (a.trace) {
    add_per_layer(m, r, tr);
    if (!a.trace_out.empty() && !tr.write_chrome_json(a.trace_out, kMaxWrittenSpans)) {
      std::fprintf(stderr, "gmpbench: cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  } else {
    add_end_to_end(m, r);
  }
  for (const std::string& e : gates.errors) std::fprintf(stderr, "GATE: %s\n", e.c_str());
  print_result(!gates.any, r, m);
  return gates.any ? 1 : 0;
}
