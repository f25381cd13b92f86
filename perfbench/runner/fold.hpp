// Folds a TraceRecorder capture into per-span totals and self times, split
// by thread row (the benchmark's main thread vs pool workers) and by phase
// (which top-level main-thread span was running).
//
// Pairing: 'B'/'E' events are matched per (tid, name) on a per-thread
// stack, so nested spans of the same name pair innermost-first. A span's
// self time is its duration minus the durations of its direct children on
// the same thread. Phase: a main-row span belongs to the name of its
// outermost main-row ancestor (itself at depth 0); a worker-row span
// belongs to the main-row top-level span whose interval contains the
// worker span's start, or to "" when none does. Other event phases
// ('X', 'M') are ignored: the runtime's live spans are all 'B'/'E'.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "lmo/telemetry/trace.hpp"

namespace perfbench {

enum class Row { kMain, kWorker };

struct SpanStat {
  double total_us = 0.0;  ///< summed inclusive durations
  double self_us = 0.0;   ///< summed durations minus direct children
  std::int64_t count = 0;
};

class TraceFold {
 public:
  explicit TraceFold(int main_tid) : main_tid_(main_tid) {}

  /// Fold one capture (the events of one enable()..disable() window; the
  /// timestamps of different captures are never compared).
  void add(const std::vector<lmo::telemetry::TraceEvent>& events);

  /// Zero stat when the span never occurred in that row and phase.
  SpanStat get(Row row, const std::string& phase,
               const std::string& name) const;
  /// Sum of inclusive durations of depth-0 spans on `row` in `phase`
  /// (each instant of thread time counted once).
  double top_level_us(Row row, const std::string& phase) const;
  /// 'E' without an open 'B', plus 'B' never closed within its capture.
  std::int64_t unmatched() const { return unmatched_; }

 private:
  using Key = std::tuple<Row, std::string, std::string>;

  int main_tid_;
  std::map<Key, SpanStat> stats_;
  std::map<std::pair<Row, std::string>, double> top_level_us_;
  std::int64_t unmatched_ = 0;
};

}  // namespace perfbench
