// Self-tests for the benchmark's trace-derived metrics, on hand-built
// trace::Recorder logs whose answers can be read off by eye.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"

using gmpbench::analyze_trace;
using gmpbench::percentile;
using gmpbench::TraceFacts;
using gmpx::Tick;
using gmpx::scenario::EventType;
using gmpx::scenario::Schedule;
using gmpx::scenario::ScheduleEvent;
using gmpx::trace::Recorder;

namespace {

int failures = 0;

#define CHECK_EQ(a, b)                                                                  \
  do {                                                                                  \
    const auto va = (a);                                                                \
    const auto vb = (b);                                                                \
    if (!(va == vb)) {                                                                  \
      std::fprintf(stderr, "%s:%d: %s == %s failed\n", __FILE__, __LINE__, #a, #b);     \
      ++failures;                                                                       \
    }                                                                                   \
  } while (0)

using Ticks = std::vector<Tick>;

void five(Recorder& r) { r.set_initial_membership({0, 1, 2, 3, 4}); }

// Crash of 4 at 100; first belief at 130; survivors install at 200..250.
void exclusion_splits_into_detect_agree_spread() {
  Recorder r;
  five(r);
  r.became_mgr(0, 0);
  r.crash(4, 100);
  r.faulty(0, 4, 130);
  r.faulty(1, 4, 140);
  r.remove(0, 4, 190);
  r.install(0, 1, {0, 1, 2, 3}, 200);
  r.install(1, 1, {0, 1, 2, 3}, 210);
  r.install(2, 1, {0, 1, 2, 3}, 215);
  r.install(3, 1, {0, 1, 2, 3}, 250);
  const TraceFacts f = analyze_trace(r, Schedule{});
  CHECK_EQ(f.exclusion, (Ticks{150}));
  CHECK_EQ(f.detect, (Ticks{30}));
  CHECK_EQ(f.agree, (Ticks{70}));
  CHECK_EQ(f.spread, (Ticks{50}));
  CHECK_EQ(f.unexcluded, 0u);
  CHECK_EQ(f.faulty, 2u);
  CHECK_EQ(f.false_suspicions, 0u);
  CHECK_EQ(f.live_exclusions, 0u);
  CHECK_EQ(f.view_changes, 1u);
  CHECK_EQ(f.mgr_changes, 0u);
  CHECK_EQ(f.events, 9u);
}

// A belief that predates the crash makes detection free: agreement is
// charged from the crash.
void belief_before_crash_detects_in_zero() {
  Recorder r;
  five(r);
  r.faulty(0, 4, 50);
  r.crash(4, 100);
  for (gmpx::ProcessId p = 0; p < 4; ++p) r.install(p, 1, {0, 1, 2, 3}, 120 + p);
  const TraceFacts f = analyze_trace(r, Schedule{});
  CHECK_EQ(f.exclusion, (Ticks{23}));
  CHECK_EQ(f.detect, (Ticks{0}));
  CHECK_EQ(f.agree, (Ticks{20}));
  CHECK_EQ(f.spread, (Ticks{3}));
  CHECK_EQ(f.false_suspicions, 1u);  // 4 was alive when 0 suspected it
}

// Beliefs held by processes that are not watchers (here: 3, which the
// survivors exclude first) do not count as detecting the later crash of 0.
void only_watchers_detect() {
  Recorder r;
  five(r);
  r.faulty(3, 0, 10);  // 3 and 4 are cut off and suspect everyone
  r.faulty(0, 3, 10);
  r.faulty(0, 4, 10);
  for (gmpx::ProcessId p = 0; p < 3; ++p) r.install(p, 1, {0, 1, 2}, 20 + p);
  r.crash(3, 30);
  r.crash(4, 30);
  r.install(0, 2, {0, 1, 2, 9}, 40);
  r.install(1, 2, {0, 1, 2, 9}, 41);
  r.install(2, 2, {0, 1, 2, 9}, 42);
  r.install(9, 2, {0, 1, 2, 9}, 43);
  r.crash(0, 100);
  r.faulty(1, 0, 400);
  r.faulty(2, 0, 401);
  r.install(1, 3, {1, 2, 9}, 450);
  r.install(9, 3, {1, 2, 9}, 452);
  r.install(2, 3, {1, 2, 9}, 460);
  const TraceFacts f = analyze_trace(r, Schedule{});
  CHECK_EQ(f.exclusion, (Ticks{360}));
  CHECK_EQ(f.detect, (Ticks{300}));
  CHECK_EQ(f.agree, (Ticks{50}));
  CHECK_EQ(f.spread, (Ticks{10}));
}

// Removing a live member is a live exclusion (one per remove event); the
// suspicion behind it is false.  No crash, so nothing is timed.
void live_exclusions_and_false_suspicions() {
  Recorder r;
  five(r);
  r.faulty(0, 3, 50);
  r.remove(0, 3, 60);
  r.remove(1, 3, 61);
  r.install(0, 1, {0, 1, 2, 4}, 70);
  r.install(1, 1, {0, 1, 2, 4}, 71);
  r.install(2, 1, {0, 1, 2, 4}, 72);
  r.install(4, 1, {0, 1, 2, 4}, 73);
  r.crash(3, 500);  // dies later, already outside every survivor's view
  const TraceFacts f = analyze_trace(r, Schedule{});
  CHECK_EQ(f.live_exclusions, 2u);
  CHECK_EQ(f.false_suspicions, 1u);
  CHECK_EQ(f.exclusion.size(), 0u);
  CHECK_EQ(f.unexcluded, 0u);
}

// A survivor that never installs a view without the victim leaves the
// exclusion incomplete: counted, not timed.
void incomplete_exclusion_is_counted_not_timed() {
  Recorder r;
  five(r);
  r.crash(4, 100);
  r.faulty(0, 4, 110);
  r.install(0, 1, {0, 1, 2, 3}, 200);
  r.install(1, 1, {0, 1, 2, 3}, 201);
  // 2 and 3 stay at the initial view (e.g. the run stalled).
  const TraceFacts f = analyze_trace(r, Schedule{});
  CHECK_EQ(f.exclusion.size(), 0u);
  CHECK_EQ(f.unexcluded, 1u);
}

// Joins and restarts: scheduled start -> the joiner's first install.  A
// joiner that never installs is unadmitted; its crash is no exclusion.
void admission_from_schedule_start() {
  Recorder r;
  five(r);
  r.install(0, 1, {0, 1, 2, 3, 4, 7}, 400);
  r.install(7, 1, {0, 1, 2, 3, 4, 7}, 420);
  r.crash(8, 450);
  r.install(9, 2, {0, 1, 2, 3, 4, 7, 9}, 600);
  Schedule s;
  s.n = 5;
  ScheduleEvent join7{EventType::kJoin, 300, 7, gmpx::kNilId, {0}};
  ScheduleEvent join8{EventType::kJoin, 310, 8, gmpx::kNilId, {0}};
  ScheduleEvent restart{EventType::kRestart, 500, 2, 9, {0}};
  s.events = {join7, join8, restart};
  const TraceFacts f = analyze_trace(r, s);
  CHECK_EQ(f.admission, (Ticks{120, 100}));
  CHECK_EQ(f.unadmitted, 1u);
  CHECK_EQ(f.exclusion.size(), 0u);
  CHECK_EQ(f.unexcluded, 0u);
  CHECK_EQ(f.view_changes, 2u);
}

void mgr_changes_skip_the_initial_mgr() {
  Recorder r;
  five(r);
  r.became_mgr(0, 0);
  r.crash(0, 100);
  r.became_mgr(1, 180);
  const TraceFacts f = analyze_trace(r, Schedule{});
  CHECK_EQ(f.mgr_changes, 1u);
}

void percentile_is_nearest_rank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK_EQ(percentile(v, 0.5), 50.0);
  CHECK_EQ(percentile(v, 0.99), 99.0);
  CHECK_EQ(percentile(v, 1.0), 100.0);
  CHECK_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
  CHECK_EQ(percentile(Ticks{7}, 0.99), 7.0);
  CHECK_EQ(gmpbench::mean(Ticks{10, 20, 60}), 30.0);
  CHECK_EQ(gmpbench::mean(Ticks{}), 0.0);
}

// Self times of nested spans add up to the root's duration.
void self_times_add_up() {
  gmpbench::Tracer t(true);
  {
    gmpbench::Scope root(t, "run", 1);
    gmpbench::Scope child(t, "child", 1);
    volatile int x = 0;
    for (int i = 0; i < 10000; ++i) x = x + i;
  }
  const auto self = t.self_ns();
  const auto& root = t.spans()[0];
  CHECK_EQ(self.at("run") + self.at("child"), root.end_ns - root.start_ns);
  CHECK_EQ(t.spans()[1].parent, 0u);
  gmpbench::Tracer off(false);
  { gmpbench::Scope s(off, "run", 1); }
  CHECK_EQ(off.spans().size(), 0u);
}

}  // namespace

int main() {
  exclusion_splits_into_detect_agree_spread();
  belief_before_crash_detects_in_zero();
  only_watchers_detect();
  live_exclusions_and_false_suspicions();
  incomplete_exclusion_is_counted_not_timed();
  admission_from_schedule_start();
  mgr_changes_skip_the_initial_mgr();
  percentile_is_nearest_rank();
  self_times_add_up();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("gmpbench self-test: all checks passed\n");
  return 0;
}
