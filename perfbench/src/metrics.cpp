#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "gmp/messages.hpp"

namespace gmpbench {

using gmpx::ProcessId;
using gmpx::trace::Event;
using gmpx::trace::EventKind;

namespace {

bool contains(const std::vector<ProcessId>& members, ProcessId p) {
  return std::find(members.begin(), members.end(), p) != members.end();
}

/// A crash whose exclusion is still being watched for.
struct Pending {
  ProcessId victim;
  Tick crashed_at;
  Tick faulty_at;  ///< first watcher's faulty(victim) belief, clamped to the crash
  bool believed;
  bool excluding;  ///< some watcher already installed a view without it
  Tick first_install;
  std::vector<ProcessId> watchers;  ///< survivors holding the victim in view at the crash
  std::vector<ProcessId> waiting;   ///< watchers yet to exclude the victim
};

uint64_t pair_key(ProcessId p, ProcessId q) { return (static_cast<uint64_t>(p) << 32) | q; }

}  // namespace

TraceFacts analyze_trace(const gmpx::trace::Recorder& rec, const gmpx::scenario::Schedule& s) {
  TraceFacts out;
  const std::vector<Event> log = rec.events();
  out.events = log.size();

  std::unordered_set<ProcessId> crashed_ever;
  for (const Event& e : log)
    if (e.kind == EventKind::kCrash) crashed_ever.insert(e.actor);
  std::vector<ProcessId> survivors;
  for (ProcessId p : rec.frontier_view().members)
    if (!crashed_ever.count(p)) survivors.push_back(p);

  std::unordered_map<ProcessId, std::vector<ProcessId>> view;  // latest view per process
  for (ProcessId p : rec.initial_membership()) view[p] = rec.initial_membership();
  std::unordered_set<ProcessId> crashed;
  std::unordered_set<uint64_t> beliefs;  // pair_key(p, q): p believes q faulty
  std::unordered_map<ProcessId, Tick> first_install;  // per process
  std::vector<Pending> pending;
  bool seen_mgr = false;

  for (const Event& e : log) {
    switch (e.kind) {
      case EventKind::kCrash: {
        crashed.insert(e.actor);
        Pending c{e.actor, e.tick, e.tick, false, false, 0, {}, {}};
        for (ProcessId sv : survivors) {
          auto it = view.find(sv);
          if (it == view.end() || !contains(it->second, e.actor)) continue;
          c.watchers.push_back(sv);
          if (beliefs.count(pair_key(sv, e.actor))) c.believed = true;  // suspected before it died
        }
        if (c.watchers.empty()) break;
        c.waiting = c.watchers;
        pending.push_back(std::move(c));
        break;
      }
      case EventKind::kFaulty: {
        ++out.faulty;
        if (!crashed.count(e.target)) ++out.false_suspicions;
        beliefs.insert(pair_key(e.actor, e.target));
        for (Pending& c : pending) {
          if (c.victim == e.target && !c.believed && contains(c.watchers, e.actor)) {
            c.believed = true;
            c.faulty_at = e.tick;
          }
        }
        break;
      }
      case EventKind::kRemove:
        if (!crashed.count(e.target)) ++out.live_exclusions;
        break;
      case EventKind::kInstall: {
        view[e.actor] = e.members;
        first_install.try_emplace(e.actor, e.tick);
        out.view_changes = std::max<uint64_t>(out.view_changes, e.version);
        for (auto it = pending.begin(); it != pending.end();) {
          Pending& c = *it;
          auto w = std::find(c.waiting.begin(), c.waiting.end(), e.actor);
          if (w == c.waiting.end() || contains(e.members, c.victim)) {
            ++it;
            continue;
          }
          c.waiting.erase(w);
          if (!c.excluding) {
            c.excluding = true;
            c.first_install = e.tick;
          }
          if (!c.waiting.empty()) {
            ++it;
            continue;
          }
          // A belief is a precondition of removal (GMP-1); without one the
          // agreement phase is charged from the crash itself.
          const Tick believed_at = c.believed ? c.faulty_at : c.crashed_at;
          out.exclusion.push_back(e.tick - c.crashed_at);
          out.detect.push_back(believed_at - c.crashed_at);
          out.agree.push_back(c.first_install - believed_at);
          out.spread.push_back(e.tick - c.first_install);
          it = pending.erase(it);
        }
        break;
      }
      case EventKind::kBecameMgr:
        if (seen_mgr) ++out.mgr_changes;
        seen_mgr = true;
        break;
      case EventKind::kOperational:
      case EventKind::kAdd:
        break;
    }
  }
  out.unexcluded = pending.size();

  for (const gmpx::scenario::ScheduleEvent& ev : s.events) {
    ProcessId joiner;
    if (ev.type == gmpx::scenario::EventType::kJoin) {
      joiner = ev.target;
    } else if (ev.type == gmpx::scenario::EventType::kRestart) {
      joiner = ev.observer;
    } else {
      continue;
    }
    auto it = first_install.find(joiner);
    if (it == first_install.end()) {
      ++out.unadmitted;
    } else {
      out.admission.push_back(it->second - ev.at);
    }
  }
  return out;
}

void PassStats::add_run(const gmpx::scenario::ExecResult& r, bool ok,
                        const gmpx::sim::Meter& meter, const TraceFacts& f,
                        double availability) {
  namespace kind = gmpx::gmp::kind;
  ++runs;
  if (!ok) ++failed;
  auto append = [](std::vector<Tick>& to, const std::vector<Tick>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(trace.exclusion, f.exclusion);
  append(trace.detect, f.detect);
  append(trace.agree, f.agree);
  append(trace.spread, f.spread);
  append(trace.admission, f.admission);
  trace.unexcluded += f.unexcluded;
  trace.unadmitted += f.unadmitted;
  trace.live_exclusions += f.live_exclusions;
  trace.faulty += f.faulty;
  trace.false_suspicions += f.false_suspicions;
  trace.mgr_changes += f.mgr_changes;
  trace.view_changes += f.view_changes;
  trace.events += f.events;
  availability_sum += availability;
  gmp_msgs += meter.in_kind_range(kind::kSuspectReport, kind::kReconfigCommit);
  update_msgs += meter.in_kind_range(kind::kUpdateLo, kind::kUpdateHi);
  reconfig_msgs += meter.in_kind_range(kind::kReconfigLo, kind::kReconfigHi);
  fd_msgs += r.fd_messages;
  app_msgs += meter.of_kind(kind::kApp);
  end_ticks += r.end_tick;
  skipped_ticks += r.skipped_ticks;
  skipped_events += r.skipped_events;
  bursts += r.bursts;
  burst_events += r.burst_events;
  aborted_joins += r.aborted_joins;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double percentile(const std::vector<Tick>& v, double q) {
  return percentile(std::vector<double>(v.begin(), v.end()), q);
}

double mean(const std::vector<Tick>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (Tick t : v) sum += static_cast<double>(t);
  return sum / static_cast<double>(v.size());
}

}  // namespace gmpbench
