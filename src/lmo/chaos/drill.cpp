// Chaos drills: the runner and the table of every `lmo chaos` profile.
#include "lmo/chaos/drill.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>
#include <set>
#include <sstream>

#include "lmo/ckpt/format.hpp"
#include "lmo/core/lm_offload.hpp"
#include "lmo/hw/platform_config.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/recover/recovery_manager.hpp"
#include "lmo/recover/wal.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/store/block_store.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/table.hpp"
#include "lmo/util/tempdir.hpp"

namespace lmo::chaos {
namespace {

std::string format_value(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// One row per counter any run recorded, one column per run.
void print_counters(const Drill& drill, const Outcomes& outcomes,
                    std::ostream& out) {
  std::set<std::string> names;
  for (const auto& [run, o] : outcomes) {
    for (const auto& [name, value] : o.counters) names.insert(name);
  }
  if (names.empty()) return;
  std::vector<std::string> header = {"counter"};
  for (const Run& r : drill.runs) header.push_back(r.name);
  util::Table table(header);
  for (const std::string& name : names) {
    std::vector<std::string> row = {name};
    for (const Run& r : drill.runs) {
      const auto& counters = outcomes.at(r.name).counters;
      const auto it = counters.find(name);
      row.push_back(it == counters.end() ? "-" : format_value(it->second));
    }
    table.add_row(std::move(row));
  }
  table.print(out);
}

void arm(const Drill& drill, util::ScopedFaultInjection& chaos) {
  for (const FaultArm& a : drill.arms) chaos.arm(a.site, a.spec);
}

void record(const Drill& drill, runtime::Generator& gen, Outcome& out) {
  auto snapshot = gen.manager().metrics().snapshot();
  for (const std::string& name : drill.counters) {
    const auto* sample = snapshot.find(name);
    out.counters[name] = sample != nullptr ? sample->count : 0;
  }
  out.metrics_json = snapshot.to_json();
  // Wall-clock timings ("*.seconds") legitimately vary between reruns.
  std::erase_if(snapshot.samples, [](const telemetry::MetricSample& s) {
    return s.name.ends_with(".seconds");
  });
  out.stable_metrics_json = snapshot.to_json();
  for (const auto& e : util::FaultInjector::instance().events()) {
    const std::string fired = e.site + " " + util::to_string(e.kind);
    out.counters["fired " + fired] += 1;
    out.fault_log += fired + " " + std::to_string(e.site_op) + "\n";
  }
}

Outcome generate(const Drill& drill, const runtime::RuntimeConfig& config,
                 bool armed, const std::vector<Tokens>& batches) {
  Outcome out;
  util::ScopedFaultInjection chaos(drill.config.seed);
  if (armed) arm(drill, chaos);
  runtime::Generator gen(config);
  for (const Tokens& prompts : batches) {
    const auto tokens = gen.generate(prompts, drill.config.gen_len).tokens;
    out.tokens.insert(out.tokens.end(), tokens.begin(), tokens.end());
  }
  record(drill, gen, out);
  return out;
}

constexpr const char* kFetchSite = "offload.fetch.transfer";
constexpr const char* kPrefetchSite = "offload.prefetch.transfer";

util::FaultSpec transient(double probability) {
  util::FaultSpec spec;
  spec.fail_probability = probability;
  return spec;
}

/// 5% transient failures on every host->device transfer path.
std::vector<FaultArm> transfer_faults() {
  return {{kFetchSite, transient(0.05)}, {kPrefetchSite, transient(0.05)}};
}

using Adjust = std::function<void(runtime::RuntimeConfig&)>;

/// A generation run with the fault schedule off / on.
Run clean(const std::string& name, Adjust adjust = nullptr) {
  Run run;
  run.name = name;
  run.adjust = std::move(adjust);
  return run;
}
Run armed(const std::string& name, Adjust adjust = nullptr) {
  Run run = clean(name, std::move(adjust));
  run.armed = true;
  return run;
}
Run custom(const std::string& name, std::function<Outcome(const Drill&)> fn) {
  Run run;
  run.name = name;
  run.fn = std::move(fn);
  return run;
}

/// Invariant `name`: `pred` holds on run `run`'s outcome.
Invariant on(const std::string& run, const std::string& name,
             std::function<bool(const Outcome&)> pred) {
  return {name, [run, pred](const Outcomes& o) { return pred(o.at(run)); }};
}
Invariant positive(const std::string& run, const std::string& counter) {
  return on(run, counter + " > 0",
            [counter](const Outcome& o) { return o.counter(counter) > 0; });
}
Invariant zero(const std::string& run, const std::string& counter) {
  return on(run, counter + " == 0",
            [counter](const Outcome& o) { return o.counter(counter) == 0; });
}
Invariant equal(const std::string& run, const std::string& a,
                const std::string& b) {
  return on(run, a + " == " + b, [a, b](const Outcome& o) {
    return o.counter(a) == o.counter(b);
  });
}

/// Invariant kFaultsFired: every listed run fired at least one fault.
Invariant faults_fired(const std::vector<std::string>& runs) {
  return {kFaultsFired, [runs](const Outcomes& o) {
            for (const std::string& run : runs) {
              if (o.at(run).fired_total() == 0) return false;
            }
            return true;
          }};
}

/// Invariant: two seeded runs agree on tokens and every counter.
Invariant same_run(const std::string& a, const std::string& b) {
  return {"seeded runs identical (tokens, counters): " + a + " == " + b,
          [a, b](const Outcomes& o) {
            return o.at(a).tokens == o.at(b).tokens &&
                   o.at(a).counters == o.at(b).counters;
          }};
}

/// Invariants: runs `a` and `b` produced byte-identical metrics and traces.
std::vector<Invariant> same_json(const std::string& a, const std::string& b) {
  return {{"metrics JSON byte-identical: " + a + " == " + b,
           [a, b](const Outcomes& o) {
             return o.at(a).metrics_json == o.at(b).metrics_json;
           }},
          {"trace JSON byte-identical: " + a + " == " + b,
           [a, b](const Outcomes& o) {
             return o.at(a).trace_json == o.at(b).trace_json;
           }}};
}

Drill make(std::string name, std::string summary) {
  Drill d;
  d.name = std::move(name);
  d.summary = std::move(summary);
  return d;
}

/// `d` on a sliding-window KV cache of `tokens` rows.
Drill windowed(Drill d, std::int64_t tokens) {
  d.name += "-window-" + std::to_string(tokens);
  d.summary += ", sliding-window KV";
  d.config.runtime.window_tokens = tokens;
  return d;
}

// -- transfer faults: flaky-pcie, congested, dead-prefetch, oom ------------

/// A clean run against one with the fault schedule armed; the counters are
/// the offload manager's recovery actions.
Drill transfer_drill(std::string name, std::string summary,
                     std::vector<FaultArm> arms) {
  Drill d = make(std::move(name), std::move(summary));
  d.arms = std::move(arms);
  d.counters = {"offload.transfer.retries",     "offload.transfer.failures",
                "offload.prefetch.failures",    "offload.prefetch.timeouts",
                "offload.fetch.sync_fallbacks", "offload.prefetch.discards",
                "offload.degrade.steps", "offload.degrade.staged_evictions"};
  d.runs = {clean("clean"), armed("chaos")};
  d.invariants = {same_tokens("chaos", "clean"), faults_fired({"chaos"})};
  return d;
}

Drill congested() {
  util::FaultSpec spec;  // latency spikes plus one degraded window
  spec.latency_probability = 0.2;
  spec.latency_seconds = 2e-4;
  spec.window_begin = 8;
  spec.window_end = 24;
  return transfer_drill("congested",
                        "latency spikes and a bandwidth-degradation window",
                        {{kFetchSite, spec}});
}

Drill dead_prefetch() {
  Drill d = transfer_drill(
      "dead-prefetch",
      "every async prefetch dies; fetches fall back synchronously",
      {{kPrefetchSite, transient(1.0)}});
  d.config.runtime.prefetch_threads = 2;
  d.invariants.push_back(positive("chaos", "offload.fetch.sync_fallbacks"));
  return d;
}

Drill oom() {
  // Start at fp16 so the degradation ladder has two rungs (8-bit, 4-bit)
  // to absorb the denials. Lower precision changes the tokens by design,
  // so this is the one drill without token identity.
  util::FaultSpec spec;
  spec.alloc_failures = 2;
  Drill d = transfer_drill("oom",
                           "host pool denies 2 allocations; the ladder "
                           "re-quantizes (tokens may differ by design)",
                           {{"pool.host.charge", spec}});
  d.config.runtime.weight_bits = 16;
  d.invariants = {faults_fired({"chaos"}),
                  on("chaos", "alloc failures fired == 2",
                     [](const Outcome& o) { return o.fired_total() == 2; }),
                  positive("chaos", "offload.degrade.steps")};
  return d;
}

// -- retry-accounting ------------------------------------------------------

/// 5% fetch faults plus a window of four stalled fetches (ops 10..13, a
/// degraded-bandwidth burst) on a 2-layer model, run twice: every injected
/// transient is retried, exactly, and the seeded rerun reproduces the
/// fault log and every non-timing registry metric.
Drill retry_accounting() {
  Drill d = make("retry-accounting",
                 "fetch faults and a latency window: exact retry accounting, "
                 "identical seeded reruns");
  runtime::RuntimeConfig& config = d.config.runtime;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.quant_group = 16;
  config.recovery.max_transfer_attempts = 4;
  config.recovery.retry_backoff_seconds = 1e-6;
  d.config.prompts = {{1, 2, 3}};
  d.config.gen_len = 8;
  util::FaultSpec spec = transient(0.05);
  spec.window_begin = 10;
  spec.window_end = 14;
  spec.latency_seconds = 1e-4;
  d.arms = {{kFetchSite, spec}};
  const std::string retries = "offload.transfer.retries";
  const std::string failures = "offload.transfer.failures";
  const std::string fallbacks = "offload.fetch.sync_fallbacks";
  const std::string transfers = "offload.transfer.total";
  const std::string fired = std::string("fired ") + kFetchSite;
  d.counters = {retries,
                failures,
                "offload.prefetch.failures",
                fallbacks,
                "offload.fetch.total",
                "offload.fetch.device_hits",
                "offload.fetch.staging_hits",
                transfers};
  d.runs = {clean("clean"), armed("chaos"), armed("chaos again")};
  d.invariants = {
      same_tokens("chaos", "clean"),
      zero("clean", retries),
      zero("clean", fallbacks),
      on("chaos", retries + " + " + failures + " == " + fired + " transient",
         [=](const Outcome& o) {
           return o.counter(retries) + o.counter(failures) ==
                  o.counter(fired + " transient");
         }),
      // The budget of 4 attempts is never exhausted at this rate.
      zero("chaos", failures),
      positive("chaos", retries),
      on("chaos", fired + " latency == 4",
         [=](const Outcome& o) { return o.counter(fired + " latency") == 4; }),
      // No prefetch machinery is involved (prefetch_threads == 0).
      zero("chaos", "offload.prefetch.failures"),
      zero("chaos", fallbacks),
      // Traffic is charged per successful transfer, exactly.
      on("chaos", transfers + " == fetches - device hits - staging hits",
         [=](const Outcome& o) {
           return o.counter(transfers) ==
                  o.counter("offload.fetch.total") -
                      o.counter("offload.fetch.device_hits") -
                      o.counter("offload.fetch.staging_hits");
         }),
      same_run("chaos", "chaos again"),
      {"fault log identical (site, kind, op): chaos == chaos again",
       [](const Outcomes& o) {
         return o.at("chaos").fault_log == o.at("chaos again").fault_log;
       }},
      {kStableMetricsIdentical,
       [](const Outcomes& o) {
         return o.at("chaos").stable_metrics_json ==
                o.at("chaos again").stable_metrics_json;
       }},
      faults_fired({"chaos"})};
  return d;
}

// -- kill-resume -----------------------------------------------------------

/// Snapshot mid-decode, destroy the Generator and the injector, then resume
/// from the file in a fresh Generator under a fresh injector (same seed and
/// arms: the checkpoint fast-forwards each site's draw stream).
Outcome kill_and_resume(const Drill& d) {
  util::TempDir dir("lmo_chaos");
  const std::string path = dir.file("kill_resume.ckpt");
  const std::int64_t kill_at = std::max<std::int64_t>(1, d.config.gen_len / 2);
  Outcome out;
  {
    util::ScopedFaultInjection chaos(d.config.seed);
    arm(d, chaos);
    runtime::Generator gen(d.config.runtime);
    gen.begin(d.config.prompts, d.config.gen_len);
    while (gen.step_index() < kill_at && !gen.done()) gen.step();
    out.counters["killed at"] = static_cast<double>(gen.step_index());
    out.counters["checkpoint bytes"] = static_cast<double>(gen.snapshot(path));
  }
  util::ScopedFaultInjection chaos(d.config.seed);
  arm(d, chaos);
  runtime::Generator gen(d.config.runtime);
  gen.resume(path);
  out.counters["resumed at"] = static_cast<double>(gen.step_index());
  while (!gen.done()) gen.step();
  out.tokens = gen.finish().tokens;
  record(d, gen, out);
  return out;
}

Drill kill_resume() {
  Drill d = make("kill-resume", "snapshot mid-decode under transfer faults, "
                                "resume in a fresh Generator");
  d.arms = transfer_faults();
  d.runs = {armed("uninterrupted"), custom("resumed", kill_and_resume)};
  d.invariants = {same_tokens("resumed", "uninterrupted"),
                  equal("resumed", "resumed at", "killed at"),
                  positive("resumed", "checkpoint bytes"),
                  faults_fired({"uninterrupted"})};
  return d;
}

// -- shared-prefix ---------------------------------------------------------

Drill shared_prefix() {
  constexpr std::int64_t kBlockTokens = 8;
  // Batch A warms the prefix cache; batch B shares A's 4-block stem and
  // adds fresh suffixes, so its prefills hit the radix cache.
  std::vector<std::int64_t> stem;
  for (std::int64_t t = 0; t < 4 * kBlockTokens; ++t) {
    stem.push_back(1 + (t * 7) % 96);
  }
  const auto with = [&stem](std::initializer_list<std::int64_t> tail) {
    std::vector<std::int64_t> p = stem;
    p.insert(p.end(), tail);
    return p;
  };
  const std::vector<Tokens> batches = {
      {with({101, 102, 103}), with({44, 45})},
      {with({7, 8, 9, 10}), with({101, 102, 99})}};

  Drill d = make("shared-prefix", "prefix-shared KV reuse under transfer "
                                  "faults matches a sharing-off clean run");
  d.config.gen_len = 10;
  d.arms = transfer_faults();
  d.counters = {"kvshare.hit_tokens", "kvshare.evicted_blocks"};
  d.runs = {custom("sharing off",
                   [batches](const Drill& drill) {
                     return generate(drill, drill.config.runtime, false,
                                     batches);
                   }),
            custom("sharing on", [batches](const Drill& drill) {
              runtime::RuntimeConfig config = drill.config.runtime;
              config.prefix_share = true;
              config.kv_block_tokens = kBlockTokens;
              return generate(drill, config, true, batches);
            })};
  d.invariants = {same_tokens("sharing on", "sharing off"),
                  positive("sharing on", "kvshare.hit_tokens"),
                  faults_fired({"sharing on"})};
  return d;
}

// -- bitflip ---------------------------------------------------------------

Drill bitflip() {
  Drill d = make("bitflip", "bit flips on weight fetches and KV reads under "
                            "verify=always are detected and repaired");
  // Single-threaded: the per-site flip draw order is the one
  // thread-sensitive part of the path, and the drill pins it down.
  d.config.runtime.compute_threads = 0;
  d.config.runtime.integrity.policy = integrity::VerifyPolicy::kAlways;
  d.config.runtime.integrity.max_repair_attempts = 8;
  // The KV site draws once per row read (hundreds per step, and every
  // repair re-reads them all), so its rate sits well below the weight
  // site's once-per-fetch rate or repairs re-corrupt faster than the
  // ladder converges.
  util::FaultSpec weights, kv;
  weights.flip_probability = 0.05;
  kv.flip_probability = 0.005;
  d.arms = {{"integrity.weights.flip", weights}, {"integrity.kv.flip", kv}};
  d.counters = {"integrity.verify.total", "integrity.verify.failures",
                "integrity.repair.refetch", "integrity.repair.recompute",
                "integrity.unrepairable"};
  d.runs = {clean("clean"), armed("chaos"), armed("chaos again")};
  d.invariants = {
      same_tokens("chaos", "clean"), same_run("chaos", "chaos again"),
      on("chaos", "integrity.verify.failures == faults fired",
         [](const Outcome& o) {
           return o.counter("integrity.verify.failures") == o.fired_total();
         }),
      on("chaos", "refetch + recompute == integrity.verify.failures",
         [](const Outcome& o) {
           return o.counter("integrity.repair.refetch") +
                      o.counter("integrity.repair.recompute") ==
                  o.counter("integrity.verify.failures");
         }),
      zero("chaos", "integrity.unrepairable"), faults_fired({"chaos"})};
  return d;
}

// -- diskfault -------------------------------------------------------------

Drill diskfault() {
  Drill d = make("diskfault",
                 "torn spill writes and disk read errors leave tokens alone");
  d.config.runtime.compute_threads = 0;  // pin the per-site draw order
  // Spill writes happen once per shard at registration (a few dozen), so
  // the torn-write rate sits well above the per-read error rate.
  util::FaultSpec write, read;
  write.torn_write_probability = 0.2;
  read.read_error_probability = 0.05;
  d.arms = {{store::BlockStore::kWriteSite, write},
            {store::BlockStore::kReadSite, read}};
  d.counters = {"store.write.retries", "store.read.retries"};
  // The back half of the model on the disk tier (in-memory backend: the
  // fault sites and CRC path are those of a file backend).
  const auto spill = [](runtime::RuntimeConfig& c) {
    c.disk_layers = std::max<std::int64_t>(1, c.spec.num_layers / 2);
    c.disk_capacity = 64u << 20;
  };
  d.runs = {clean("disk off"), clean("disk on", spill), armed("chaos", spill),
            armed("chaos again", spill)};
  d.invariants = {same_tokens("disk on", "disk off"),
                  same_tokens("chaos", "disk off"),
                  same_run("chaos", "chaos again"), faults_fired({"chaos"})};
  return d;
}

// -- overload --------------------------------------------------------------

/// Both overload runs serve the seeded burst scenario. Weights are
/// GPU-resident, so the engine has real capacity at the base rate and the
/// overload comes from the burst.
Outcome serve_burst(const Drill& d) {
  const ServeScenario s = burst_scenario(d.config.seed);
  telemetry::MetricsRegistry reg;
  telemetry::TraceRecorder rec;
  rec.enable();
  const auto m = serve::simulate_serving(s.spec, s.policy, s.platform,
                                         s.requests, s.config, &reg, &rec);
  Outcome out;
  out.metrics_json = reg.snapshot().to_json();
  out.trace_json = rec.to_json();
  auto& c = out.counters;
  for (const auto& outcome : m.outcomes) {
    if (!outcome.shed) continue;
    c["shed outcomes"] += 1;
    if (outcome.completed || outcome.met_deadline) {
      c["shed outcomes marked served"] += 1;
    }
  }
  c["escalations"] = m.overload_escalations;
  c["de-escalations"] = m.overload_deescalations;
  c["shed + rejected"] = m.shed + m.rejected;
  c["demoted"] = m.demoted_sessions;
  c["preempted"] = m.overload_preemptions;
  c["completed"] = m.completed;
  c["goodput req/s"] = m.request_goodput;
  return out;
}

Drill overload() {
  Drill d = make("overload",
                 "burst overload walks the degradation ladder, "
                 "deterministically");
  d.runs = {custom("first", serve_burst), custom("second", serve_burst)};
  d.invariants = same_json("first", "second");
  for (const char* counter : {"escalations", "de-escalations",
                              "shed + rejected", "completed",
                              "goodput req/s"}) {
    d.invariants.push_back(positive("first", counter));
  }
  // Every shed request has a typed outcome, and none claims it was served.
  d.invariants.push_back(equal("first", "shed outcomes", "shed + rejected"));
  d.invariants.push_back(zero("first", "shed outcomes marked served"));
  return d;
}

// -- adaptive --------------------------------------------------------------

/// Closed-loop simulation on a miscalibrated believed input: copy bandwidth
/// 4x too optimistic. The desktop preset (16 cores, PCIe 4) turns I/O-bound
/// under the true bandwidth, so the controller must re-plan.
Outcome simulate_miscalibrated(const Drill&) {
  const auto spec = model::ModelSpec::by_name("opt-13b");
  const model::Workload w{.prompt_len = 512, .gen_len = 32, .gpu_batch = 8,
                          .num_batches = 1};
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;
  policy.parallelism_control = true;

  parallel::SearchInput believed;
  believed.compute_graph = core::LMOffload::compute_graph(spec, w, policy);
  believed.io_bytes = core::LMOffload::io_volumes(spec, w, policy);
  believed.platform = hw::platform_by_name("rtx4090-desktop");
  parallel::SearchInput truth = believed;
  truth.per_thread_copy_bw = believed.per_thread_copy_bw / 4.0;

  parallel::AdaptiveConfig config;
  config.enabled = true;
  telemetry::MetricsRegistry reg;
  telemetry::TraceRecorder rec;
  rec.enable();
  const auto r =
      parallel::simulate_adaptive(believed, truth, config, 6, &reg, &rec);
  Outcome out;
  out.metrics_json = reg.snapshot().to_json();
  out.trace_json = rec.to_json();
  out.counters = {{"applied", r.applied},
                  {"reverted", r.reverted},
                  {"static t_gen s", r.static_t_gen},
                  {"adaptive t_gen s", r.adaptive_t_gen}};
  return out;
}

Drill adaptive() {
  Drill d = make("adaptive", "the parallelism controller re-plans "
                             "deterministically and never moves tokens");
  d.config.runtime.adaptive.enabled = true;
  d.config.runtime.adaptive.window_steps = 3;
  d.runs = {custom("sim", simulate_miscalibrated),
            custom("sim again", simulate_miscalibrated), clean("adaptive"),
            clean("adaptive again"),
            clean("controller off", [](runtime::RuntimeConfig& c) {
              c.adaptive.enabled = false;
            })};
  d.invariants = same_json("sim", "sim again");
  d.invariants.push_back(positive("sim", "applied"));
  d.invariants.push_back(on("sim", "adaptive t_gen <= static t_gen x 1.0001",
                            [](const Outcome& o) {
                              return o.counter("adaptive t_gen s") <=
                                     o.counter("static t_gen s") * 1.0001;
                            }));
  d.invariants.push_back(same_tokens("adaptive again", "adaptive"));
  d.invariants.push_back(same_tokens("controller off", "adaptive"));
  return d;
}

// -- crash -----------------------------------------------------------------

/// One supervised run in `dir` from scratch.
std::unique_ptr<runtime::Generator> supervised_run(const Drill& d,
                                                   const std::string& dir) {
  recover::RecoveryManager manager({dir, d.config.checkpoint_interval});
  auto gen = manager.start(d.config.runtime);
  gen->begin(d.config.prompts, d.config.gen_len);
  while (!gen->done()) {
    gen->step();
    manager.note_step(*gen);
  }
  return gen;
}

Outcome supervised_reference(const Drill& d) {
  util::TempDir dir("lmo_chaos_crash");
  auto gen = supervised_run(d, dir.path());
  Outcome out;
  out.tokens = gen->finish().tokens;
  record(d, *gen, out);
  return out;
}

/// Forks a child that re-runs the supervised generation in `dir` with
/// SIGKILL armed at crash check `at` of `site`; returns its wait status.
/// The child exits 0 when the schedule never fired.
int fork_supervised(const Drill& d, const std::string& dir,
                    const FaultArm& site, int at) {
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    util::ScopedFaultInjection chaos(d.config.seed);
    util::FaultSpec spec = site.spec;
    spec.crash_at_op = at;
    chaos.arm(site.site, spec);
    try {
      supervised_run(d, dir)->finish();
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  LMO_CHECK_MSG(pid > 0, "fork failed");
  int status = 0;
  LMO_CHECK_MSG(::waitpid(pid, &status, 0) == pid, "waitpid failed");
  return status;
}

/// Kill points tried per crash site; a site with fewer crash checks ends
/// its sweep early.
constexpr int kCrashOps = 4;

std::string crash_counter(const FaultArm& site) {
  return "fired " + site.site + " " +
         util::to_string(util::FaultKind::kCrashPoint);
}

/// For every crash site in the fault schedule, kill a forked child at
/// successive crash checks and recover each kill in-process from the
/// on-disk state alone. The outcome's tokens are every recovered run's
/// tokens, concatenated in kill order.
Outcome kill_sweep(const Drill& d) {
  util::TempDir dir("lmo_chaos_crash");
  Outcome out;
  auto& c = out.counters;
  for (const FaultArm& site : d.arms) {
    for (int at = 0; at < kCrashOps; ++at) {
      const int status = fork_supervised(d, dir.path(), site, at);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) break;  // site done
      if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        c["unexpected child status"] += 1;
        continue;
      }
      c["kills"] += 1;
      c[crash_counter(site)] += 1;
      // A kill before the first checkpoint recovers unresumed: the run
      // begins from scratch, and determinism gives the same tokens.
      recover::RecoveryManager manager(
          {dir.path(), d.config.checkpoint_interval});
      recover::RecoveredSession session = manager.recover(&d.config.runtime);
      runtime::Generator& gen = *session.generator;
      if (!session.resumed) gen.begin(d.config.prompts, d.config.gen_len);
      while (!gen.done()) {
        gen.step();
        manager.note_step(gen);
      }
      const auto tokens = gen.finish().tokens;
      out.tokens.insert(out.tokens.end(), tokens.begin(), tokens.end());
      if (gen.manager().metrics().counter("recover.recoveries").value() ==
          1) {
        c["kills recovered exactly once"] += 1;
      }
      // After adoption and sweep, everything in use is reachable through a
      // committed keyed entry.
      if (store::BlockStore* store = gen.spill_store()) {
        c["leaked blocks"] += store->release_unclaimed();
      } else {
        c["recoveries without a spill store"] += 1;
      }
    }
  }
  return out;
}

Drill crash() {
  Drill d = make("crash", "fork/SIGKILL at every crash site; recovery from "
                          "disk gives identical tokens");
  // Disk tier on (journaled spills) and no threads at all: the child is
  // forked, and a forked process must not inherit pool threads mid-state.
  d.config.runtime.disk_layers = 2;
  d.config.runtime.disk_capacity = 8u << 20;
  d.config.runtime.spill_block_bytes = 4096;
  d.config.runtime.compute_threads = 0;
  d.config.gen_len = 8;
  const util::FaultSpec kill;  // crash_at_op is set per attempt
  d.arms = {{recover::kJournalAppendSite, kill},
            {store::BlockStore::kWriteSite, kill},
            {recover::kJournalFsyncSite, kill},
            {ckpt::kPublishSite, kill}};
  d.runs = {custom("reference", supervised_reference),
            custom("recovered", kill_sweep)};
  d.invariants = {
      faults_fired({"recovered"}),
      on("recovered", "every crash site fired",
         [sites = d.arms](const Outcome& o) {
           return std::all_of(sites.begin(), sites.end(),
                              [&o](const FaultArm& site) {
                                return o.counter(crash_counter(site)) > 0;
                              });
         }),
      {"every kill recovers to the reference tokens",
       [](const Outcomes& o) {
         const Tokens& ref = o.at("reference").tokens;
         const Tokens& got = o.at("recovered").tokens;
         const auto kills =
             static_cast<std::size_t>(o.at("recovered").counter("kills"));
         if (ref.empty() || got.size() != kills * ref.size()) return false;
         for (std::size_t i = 0; i < got.size(); i += ref.size()) {
           if (!std::equal(ref.begin(), ref.end(), got.begin() + i)) {
             return false;
           }
         }
         return true;
       }},
      zero("recovered", "unexpected child status"),
      zero("recovered", "leaked blocks"),
      zero("recovered", "recoveries without a spill store"),
      equal("recovered", "kills recovered exactly once", "kills")};
  return d;
}

}  // namespace

double Outcome::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Outcome::fired_total() const {
  double total = 0;
  for (const auto& [name, value] : counters) {
    if (name.rfind("fired ", 0) == 0) total += value;
  }
  return total;
}

runtime::RuntimeConfig tiny_runtime() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(4, 64, 4, 128);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;
  config.prefetch_threads = 0;
  config.recovery.retry_backoff_seconds = 1e-5;
  return config;
}

const Drill* find(const std::string& name) {
  for (const Drill& drill : drills()) {
    if (drill.name == name) return &drill;
  }
  return nullptr;
}

Invariant same_tokens(const std::string& a, const std::string& b) {
  return {"tokens identical: " + a + " == " + b, [a, b](const Outcomes& o) {
            return o.at(a).tokens == o.at(b).tokens;
          }};
}

int run(const Drill& drill, std::ostream& out, Outcomes* outcomes) {
  out << "chaos drill '" << drill.name << "': " << drill.summary << "\n"
      << std::flush;
  Outcomes results;
  for (const Run& r : drill.runs) {
    try {
      if (r.fn) {
        results[r.name] = r.fn(drill);
        continue;
      }
      runtime::RuntimeConfig config = drill.config.runtime;
      if (r.adjust) r.adjust(config);
      results[r.name] =
          generate(drill, config, r.armed, {drill.config.prompts});
    } catch (const std::exception& e) {
      out << "run '" << r.name << "' threw: " << e.what() << "\n";
      return 1;
    }
  }
  print_counters(drill, results, out);
  std::size_t failed = 0;
  for (const Invariant& inv : drill.invariants) {
    const bool holds = inv.holds(results);
    out << (holds ? "  yes  " : "  NO   ") << inv.name << "\n";
    failed += holds ? 0 : 1;
  }
  out << "drill '" << drill.name << "': " << failed << " of "
      << drill.invariants.size() << " invariants failed\n";
  if (outcomes != nullptr) *outcomes = std::move(results);
  return failed == 0 ? 0 : 1;
}

ServeScenario burst_scenario(std::uint64_t seed) {
  ServeScenario s{model::ModelSpec::by_name("opt-13b"),
                  hw::platform_by_name("a100-single"), {}, {}, {}};
  s.policy.weights_on_gpu = 1.0;
  s.policy.attention_on_cpu = false;
  s.policy.activations_on_gpu = 1.0;
  s.policy.weight_bits = 4;
  s.policy.kv_bits = 8;
  s.policy.parallelism_control = true;

  s.config.max_batch = 8;
  s.config.deadline_seconds = 30.0;
  s.config.admission = overload::AdmissionPolicy::kDeadlineShed;
  s.config.max_queue = 24;
  s.config.overload.enabled = true;
  s.config.overload.kv_pool_bytes = std::size_t{10240} << 10;

  serve::BurstProfile profile;
  profile.base.arrival_rate = 0.5;
  profile.base.prompt_mean = 64;
  profile.base.gen_mean = 48;
  profile.base.gen_max = 128;
  profile.burst_rate = 8.0;
  profile.burst_start = 10.0;
  profile.burst_duration = 30.0;
  profile.ramp_seconds = 5.0;
  profile.num_priorities = 3;
  s.requests = serve::generate_burst_requests(profile, 140, seed);
  return s;
}

const std::vector<Drill>& drills() {
  static const std::vector<Drill> table = {
      transfer_drill("flaky-pcie",
                     "transient failures on every host->device transfer",
                     transfer_faults()),
      congested(),
      dead_prefetch(),
      oom(),
      retry_accounting(),
      kill_resume(),
      windowed(kill_resume(), 8),
      shared_prefix(),
      bitflip(),
      windowed(bitflip(), 8),
      diskfault(),
      overload(),
      adaptive(),
      crash(),
  };
  return table;
}

}  // namespace lmo::chaos
