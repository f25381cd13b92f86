#include "fold.hpp"

#include <algorithm>

namespace perfbench {

void TraceFold::add(const std::vector<lmo::telemetry::TraceEvent>& events) {
  struct Open {
    std::string name;
    std::string root;  ///< outermost open span on the thread at push time
    double start_us;
    double child_us;
  };
  struct Closed {
    int tid;
    std::string name;
    std::string root;
    double start_us;
    double dur_us;
    double self_us;
    bool top_level;
  };
  std::map<int, std::vector<Open>> stacks;
  std::vector<Closed> closed;
  for (const lmo::telemetry::TraceEvent& ev : events) {
    if (ev.phase == 'B') {
      std::vector<Open>& stack = stacks[ev.tid];
      const std::string root = stack.empty() ? ev.name : stack.front().name;
      stack.push_back({ev.name, root, ev.ts_us, 0.0});
    } else if (ev.phase == 'E') {
      std::vector<Open>& stack = stacks[ev.tid];
      auto it = std::find_if(stack.rbegin(), stack.rend(),
                             [&](const Open& o) { return o.name == ev.name; });
      if (it == stack.rend()) {
        ++unmatched_;
        continue;
      }
      // Spans opened after the matching one were never closed: drop them.
      const auto keep = stack.size() - static_cast<std::size_t>(
                                           std::distance(stack.rbegin(), it));
      unmatched_ += static_cast<std::int64_t>(stack.size() - keep);
      stack.resize(keep);
      const Open span = stack.back();
      stack.pop_back();
      const double dur = ev.ts_us - span.start_us;
      if (!stack.empty()) stack.back().child_us += dur;
      closed.push_back({ev.tid, span.name, span.root, span.start_us, dur,
                        dur - span.child_us, stack.empty()});
    }
  }
  for (const auto& [tid, stack] : stacks) {
    unmatched_ += static_cast<std::int64_t>(stack.size());
  }

  // Main-row top-level intervals, sorted by start, for worker phases.
  struct Interval {
    double start_us;
    double end_us;
    std::string name;
  };
  std::vector<Interval> phases;
  for (const Closed& c : closed) {
    if (c.tid == main_tid_ && c.top_level) {
      phases.push_back({c.start_us, c.start_us + c.dur_us, c.name});
    }
  }
  std::sort(phases.begin(), phases.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_us < b.start_us;
            });
  const auto phase_at = [&phases](double ts_us) -> std::string {
    auto it = std::upper_bound(
        phases.begin(), phases.end(), ts_us,
        [](double t, const Interval& p) { return t < p.start_us; });
    if (it == phases.begin()) return "";
    --it;
    return ts_us <= it->end_us ? it->name : "";
  };

  for (const Closed& c : closed) {
    const bool main = c.tid == main_tid_;
    const Row row = main ? Row::kMain : Row::kWorker;
    const std::string phase = main ? c.root : phase_at(c.start_us);
    SpanStat& stat = stats_[{row, phase, c.name}];
    stat.total_us += c.dur_us;
    stat.self_us += c.self_us;
    ++stat.count;
    if (c.top_level) top_level_us_[{row, phase}] += c.dur_us;
  }
}

SpanStat TraceFold::get(Row row, const std::string& phase,
                        const std::string& name) const {
  auto it = stats_.find({row, phase, name});
  return it == stats_.end() ? SpanStat{} : it->second;
}

double TraceFold::top_level_us(Row row, const std::string& phase) const {
  auto it = top_level_us_.find({row, phase});
  return it == top_level_us_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
