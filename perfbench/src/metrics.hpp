// Virtual-time metrics the benchmark derives from one concluded run: the
// recorded membership trace (trace::Recorder), the schedule that drove it,
// the executor result and the simulator's message meter.  Everything here is
// a pure function of those inputs, so two runs of one (workload, seed) must
// produce identical figures — the benchmark exits nonzero when they do not.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "scenario/executor.hpp"
#include "scenario/schedule.hpp"
#include "sim/world.hpp"
#include "trace/recorder.hpp"

namespace gmpbench {

using gmpx::Tick;

/// What one recorded trace says about failure handling.
///
/// Exclusion of a crashed member p: its watchers are the processes that
/// never crash, hold the final frontier view, and still had p in view when
/// it crashed.  The exclusion completes when the last watcher installs a
/// view without p; it splits into detection (crash -> a watcher's first
/// faulty(p) belief, 0 if one predates the crash), agreement (-> the first
/// watcher install without p) and spread (-> the last).
/// A crash no survivor had in view is not an exclusion; one some survivor
/// never excludes is counted in `unexcluded`, not timed.
///
/// Admission of a join/restart: the scheduled start tick -> the joiner's
/// first installed view.  A joiner that never installs is counted in
/// `unadmitted`, not timed.
struct TraceFacts {
  std::vector<Tick> exclusion, detect, agree, spread;
  uint64_t unexcluded = 0;
  std::vector<Tick> admission;
  uint64_t unadmitted = 0;
  uint64_t live_exclusions = 0;   ///< remove events whose target had not crashed
  uint64_t faulty = 0;            ///< faulty_p(q) events
  uint64_t false_suspicions = 0;  ///< faulty_p(q) events whose q had not crashed
  uint64_t mgr_changes = 0;       ///< became-Mgr events after the first
  uint64_t view_changes = 0;      ///< highest view version installed
  uint64_t events = 0;            ///< recorded trace events
  bool operator==(const TraceFacts&) const = default;
};

TraceFacts analyze_trace(const gmpx::trace::Recorder& rec, const gmpx::scenario::Schedule& s);

/// Sums over the runs of one pass.  Every field is virtual-time or a count,
/// so equal inputs give equal values (operator== is the determinism gate).
struct PassStats {
  uint64_t runs = 0;
  uint64_t failed = 0;
  TraceFacts trace;  ///< latency samples concatenated, counts summed
  double availability_sum = 0.0;
  uint64_t ops_attempted = 0, ops_rejected = 0;
  uint64_t gmp_msgs = 0;       ///< SuspectReport..ReconfigCommit sends
  uint64_t update_msgs = 0;    ///< Invite..ViewTransfer
  uint64_t reconfig_msgs = 0;  ///< Interrogate..ReconfigCommit
  uint64_t fd_msgs = 0;
  uint64_t app_msgs = 0;
  uint64_t end_ticks = 0, skipped_ticks = 0, skipped_events = 0;
  uint64_t bursts = 0, burst_events = 0;
  uint64_t aborted_joins = 0;
  uint64_t sync_passes = 0;

  /// Fold one concluded run in.  `ok` is the run's whole verdict (the soak
  /// runner adds the APP clauses to the executor's); `availability` is its
  /// soak::availability_from_trace value.
  void add_run(const gmpx::scenario::ExecResult& r, bool ok, const gmpx::sim::Meter& meter,
               const TraceFacts& facts, double availability);
  bool operator==(const PassStats&) const = default;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> v, double q);
double percentile(const std::vector<Tick>& v, double q);
/// Arithmetic mean; 0 when empty.
double mean(const std::vector<Tick>& v);

}  // namespace gmpbench
