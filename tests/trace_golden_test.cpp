// Golden-file style checks on the runtime's Chrome-trace output: a short
// Generator run must emit a structurally valid trace_event JSON array in
// which spans nest per thread, all six Algorithm-1 task names appear, and
// prefetch-worker spans genuinely overlap main-thread compute. Also pins
// the chaos guarantee at the telemetry layer: identical seeded fault runs
// produce identical (non-timing) registry snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lmo/chaos/drill.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/telemetry/trace.hpp"

namespace lmo::telemetry {
namespace {

// ------------------------------------------- minimal trace JSON parser ---
// The repo has no JSON library, so the test parses the known single-object-
// per-line layout the recorder emits. Strict enough to catch malformed
// output (unbalanced array, missing keys, unknown phases), simple enough
// to stay readable.

struct ParsedEvent {
  std::string name;
  char phase = '?';
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
};

std::string extract_string(const std::string& entry, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = entry.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = entry.find('"', begin);
  EXPECT_NE(end, std::string::npos) << "unterminated string in: " << entry;
  return entry.substr(begin, end - begin);
}

double extract_number(const std::string& entry, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = entry.find(needle);
  EXPECT_NE(at, std::string::npos)
      << "missing \"" << key << "\" in: " << entry;
  return std::strtod(entry.c_str() + at + needle.size(), nullptr);
}

std::vector<ParsedEvent> parse_trace(const std::string& json) {
  std::vector<ParsedEvent> events;
  EXPECT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  std::string body = json.substr(1);
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  EXPECT_EQ(body.back(), ']');
  body.pop_back();
  if (body.empty()) return events;

  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find(",\n", pos);
    if (end == std::string::npos) end = body.size();
    const std::string entry = body.substr(pos, end - pos);
    pos = end + 2;

    EXPECT_EQ(entry.front(), '{') << entry;
    EXPECT_EQ(entry.back(), '}') << entry;
    ParsedEvent ev;
    ev.name = extract_string(entry, "name");
    const std::string ph = extract_string(entry, "ph");
    if (ph.size() != 1) {
      ADD_FAILURE() << "bad ph field in: " << entry;
      continue;
    }
    ev.phase = ph[0];
    ev.pid = static_cast<int>(extract_number(entry, "pid"));
    ev.tid = static_cast<int>(extract_number(entry, "tid"));
    if (ev.phase != 'M') ev.ts_us = extract_number(entry, "ts");
    EXPECT_FALSE(ev.name.empty()) << entry;
    EXPECT_TRUE(ev.phase == 'M' || ev.phase == 'B' || ev.phase == 'E' ||
                ev.phase == 'X')
        << "unknown phase in: " << entry;
    events.push_back(std::move(ev));
  }
  return events;
}

struct SpanInterval {
  std::string name;
  int tid = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
};

// Match B/E pairs per (pid, tid) in array order (per-thread array order is
// program order), enforcing stack discipline along the way.
std::vector<SpanInterval> close_spans(const std::vector<ParsedEvent>& events) {
  std::map<std::pair<int, int>, std::vector<const ParsedEvent*>> stacks;
  std::vector<SpanInterval> spans;
  for (const ParsedEvent& ev : events) {
    if (ev.phase == 'B') {
      stacks[{ev.pid, ev.tid}].push_back(&ev);
    } else if (ev.phase == 'E') {
      auto& stack = stacks[{ev.pid, ev.tid}];
      if (stack.empty()) {
        ADD_FAILURE() << "E without open B: " << ev.name << " tid "
                      << ev.tid;
        continue;
      }
      EXPECT_EQ(stack.back()->name, ev.name)
          << "mis-nested span on tid " << ev.tid;
      EXPECT_LE(stack.back()->ts_us, ev.ts_us + 1e-9);
      spans.push_back({ev.name, ev.tid, stack.back()->ts_us, ev.ts_us});
      stack.pop_back();
    }
  }
  for (const auto& [key, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed span(s) on tid " << key.second;
  }
  return spans;
}

runtime::RuntimeConfig trace_config(int prefetch_threads) {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;  // every layer streams: maximal span activity
  config.prefetch_threads = prefetch_threads;
  return config;
}

// ------------------------------------------------ the golden trace -------

constexpr const char* kAlgorithmOneTasks[] = {
    "load_weight",  "load_cache",       "load_activation",
    "store_cache",  "store_activation", "compute",
};

TEST(TraceGolden, GeneratorRunEmitsValidNestedAlgorithmOneTrace) {
  auto& trace = TraceRecorder::global();
  trace.set_process_name(0, "lmo-runtime");

  // Prefetch-worker overlap is real concurrency, so allow a retry before
  // declaring the schedule serial (in practice the first run overlaps).
  bool overlapped = false;
  for (int attempt = 0; attempt < 3 && !overlapped; ++attempt) {
    trace.enable();
    runtime::Generator generator(trace_config(/*prefetch_threads=*/2));
    const auto result = generator.generate({{1, 2, 3, 4}}, 12);
    trace.disable();
    EXPECT_GT(result.offload.staging_hits, 0u);  // prefetch engaged

    const std::string json = trace.to_json();
    const auto events = parse_trace(json);
    ASSERT_FALSE(events.empty());

    // Structure: runtime traces are metadata + duration events only.
    std::set<std::string> names;
    for (const auto& ev : events) {
      EXPECT_TRUE(ev.phase == 'M' || ev.phase == 'B' || ev.phase == 'E');
      if (ev.phase != 'M') names.insert(ev.name);
    }
    for (const char* task : kAlgorithmOneTasks) {
      EXPECT_EQ(names.count(task), 1u)
          << "Algorithm-1 task missing from trace: " << task;
    }
    EXPECT_EQ(names.count("prefill"), 1u);
    EXPECT_EQ(names.count("decode_step"), 1u);

    // Spans nest per thread and close by the end of the capture.
    const auto spans = close_spans(events);
    ASSERT_FALSE(spans.empty());

    // The acceptance criterion: at least two Algorithm-1 spans open at the
    // same instant on *different* threads (prefetch load_weight racing the
    // main thread's decode work).
    std::set<int> tids;
    for (const auto& span : spans) tids.insert(span.tid);
    EXPECT_GE(tids.size(), 2u) << "prefetch workers emitted no spans";
    for (const auto& a : spans) {
      if (a.name != "load_weight") continue;
      for (const auto& b : spans) {
        if (b.tid == a.tid) continue;
        if (a.begin_us < b.end_us && b.begin_us < a.end_us) {
          overlapped = true;
          break;
        }
      }
      if (overlapped) break;
    }
  }
  EXPECT_TRUE(overlapped)
      << "no cross-thread span overlap observed in 3 runs";
}

TEST(TraceGolden, SerialRunStillCoversEveryTaskName) {
  // prefetch_threads == 0: single-threaded decode must still visit all six
  // task sites (load_weight now happens synchronously inside fetch).
  auto& trace = TraceRecorder::global();
  trace.enable();
  runtime::Generator generator(trace_config(/*prefetch_threads=*/0));
  generator.generate({{1, 2, 3}}, 4);
  trace.disable();

  const auto events = parse_trace(trace.to_json());
  std::set<std::string> names;
  for (const auto& ev : events) {
    if (ev.phase != 'M') names.insert(ev.name);
  }
  for (const char* task : kAlgorithmOneTasks) {
    EXPECT_EQ(names.count(task), 1u) << task;
  }
  close_spans(events);
}

// --------------------------------------- chaos snapshot determinism ------

// Timing gauges (names ending ".seconds") are wall-clock measurements and
// legitimately vary; everything else in the registry must be bit-stable
// under a fixed fault seed. The retry-accounting drill of the lmo/chaos
// table runs the faulted generation twice and compares the registries.
TEST(TraceGolden, ChaosRegistrySnapshotsAreDeterministic) {
  std::ostringstream out;
  EXPECT_EQ(chaos::run(*chaos::find("retry-accounting"), out), 0)
      << out.str();
  EXPECT_NE(out.str().find(std::string("  yes  ") +
                           chaos::kStableMetricsIdentical),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace lmo::telemetry
