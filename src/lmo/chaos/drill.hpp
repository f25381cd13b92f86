// Chaos drills as data.
//
// The offload runtime's contract is that placement, quantization, faults
// and recovery change timing, never results. Each named drill checks one
// slice of it: a base config, a fault schedule, a list of runs and named
// invariants over the runs' outcomes. One runner executes any drill and
// prints a counters table and one yes/NO line per invariant.
// `lmo chaos --profile NAME` and the `chaos`-labelled ctest run the same
// table (drills()).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "lmo/runtime/generator.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/util/fault.hpp"

namespace lmo::chaos {

using Tokens = std::vector<std::vector<std::int64_t>>;

struct FaultArm {
  std::string site;
  util::FaultSpec spec;
};

/// What one run produced.
struct Outcome {
  Tokens tokens;
  /// The registry counters the drill lists, the faults fired (keyed
  /// "fired <site> <kind>") and any tally a run function records.
  std::map<std::string, double> counters;
  /// Registry snapshot JSON; the serving and adaptive simulators also
  /// record their trace JSON.
  std::string metrics_json;
  std::string trace_json;
  /// Generation runs: the faults in firing order, one "site kind op" line
  /// each, and the registry snapshot JSON without the wall-clock timings
  /// (metrics named "*.seconds") — what a seeded rerun must reproduce.
  std::string fault_log;
  std::string stable_metrics_json;

  /// counters[name], or 0 when the run did not record it.
  double counter(const std::string& name) const;
  /// Sum of the "fired ..." counters.
  double fired_total() const;
};

/// Outcomes by run name.
using Outcomes = std::map<std::string, Outcome>;

struct Drill;

/// One run. By default it generates `config.prompts` on a fresh Generator
/// built from the drill's runtime config with `adjust` applied, the fault
/// schedule armed when `armed`. A set `fn` does the whole run instead.
struct Run {
  std::string name;
  bool armed = false;
  std::function<void(runtime::RuntimeConfig&)> adjust;
  std::function<Outcome(const Drill&)> fn;
};

struct Invariant {
  std::string name;
  std::function<bool(const Outcomes&)> holds;
};

/// The tiny streamed-weights setup: every layer offloaded so the transfer
/// fault sites are exercised, 8-bit weights, no worker threads.
runtime::RuntimeConfig tiny_runtime();

/// The base config a drill's runs read; tests edit a copy.
struct Config {
  runtime::RuntimeConfig runtime = tiny_runtime();
  Tokens prompts = {{1, 2, 3, 4}};
  std::int64_t gen_len = 12;
  std::uint64_t seed = 2024;
  /// Supervised runs (crash): the auto-checkpoint cadence.
  int checkpoint_interval = 4;
};

struct Drill {
  std::string name;
  std::string summary;
  Config config;
  std::vector<FaultArm> arms;         ///< the fault schedule
  std::vector<std::string> counters;  ///< registry counters runs record
  std::vector<Run> runs;
  std::vector<Invariant> invariants;
};

/// The invariant every fault-armed drill carries: faults that never fired
/// prove nothing.
inline constexpr const char* kFaultsFired = "faults fired";

/// The retry-accounting drill's invariant that its seeded rerun reproduces
/// every registry metric except the wall-clock timings.
inline constexpr const char* kStableMetricsIdentical =
    "every non-timing registry metric identical: chaos == chaos again";

/// Every drill, in table order.
const std::vector<Drill>& drills();
/// The table entry named `name`, or nullptr.
const Drill* find(const std::string& name);

/// The overload drill's serving scenario: a seeded burst of 140 requests
/// against opt-13b with GPU-resident weights on a100-single, deadline-shed
/// admission and a 10 MiB KV pool under the degradation ladder.
struct ServeScenario {
  model::ModelSpec spec;
  hw::Platform platform;
  perfmodel::Policy policy;
  serve::ServeConfig config;
  std::vector<serve::Request> requests;
};
ServeScenario burst_scenario(std::uint64_t seed);

/// Invariant: runs `a` and `b` produced the same tokens.
Invariant same_tokens(const std::string& a, const std::string& b);

/// Runs every run in order, then prints the counters table and one yes/NO
/// line per invariant to `out`. Returns 0 when every invariant holds and 1
/// otherwise, or when a run throws. Copies the outcomes to `outcomes`.
int run(const Drill& drill, std::ostream& out, Outcomes* outcomes = nullptr);

}  // namespace lmo::chaos
