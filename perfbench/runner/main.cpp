// Decode-path benchmark runner: one workload, one process, one Generator.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR
//
// Closed loop, one client: sessions (begin -> step... -> finish) run back
// to back for S seconds after one untimed warm-up session. Each begin(),
// step() and finish() duration is rescaled by a host-speed probe timed
// between calls (probe.hpp). --trace 0 reports the end-to-end metrics
// with tracing off. --trace 1 alternates
// untraced and traced sessions, folds the traced ones' spans into the
// per-layer metrics, and reports the tracing overhead between the two.
// Afterwards a seeded sample of the timed sessions is re-run on the
// workload's mechanism-off config and must match token for token, and
// the teacher-forced NLL on a fixed corpus must sit within the workload's
// margin of the f32 device-resident reference. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fold.hpp"
#include "lmo/runtime/evaluate.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "probe.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using lmo::runtime::Generator;
using lmo::telemetry::MetricsSnapshot;
using lmo::telemetry::ScopedSpan;
using lmo::telemetry::TraceRecorder;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kBeginPhase = "bench.begin";
constexpr const char* kStepPhase = "bench.step";
constexpr int kSetupReps = 7;      ///< Generator constructions behind setup_s
constexpr int kCheckSessions = 4;  ///< timed sessions re-run on the reference

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
};

bool parse_options(int argc, char** argv, Options& opt) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return false;
  for (const char* key :
       {"--workload", "--seed", "--seconds", "--trace", "--workdir"}) {
    if (args.count(key) == 0) return false;
  }
  if (args.size() != 5) return false;
  opt.workload = args["--workload"];
  opt.workdir = args["--workdir"];
  try {
    opt.seed = std::stoull(args["--seed"]);
    opt.seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return false;
  }
  const std::string& trace = args["--trace"];
  if (trace != "0" && trace != "1") return false;
  opt.trace = trace == "1";
  return opt.seconds > 0.0;
}

/// Per-run working directory (the spill file lives here); removed on exit.
class RunDir {
 public:
  explicit RunDir(const std::string& parent)
      : path_(std::filesystem::path(parent) /
              ("run-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

struct Call {
  double raw = 0.0;
  double scaled = 0.0;
};

struct Session {
  Prompts prompts;
  std::vector<std::vector<std::int64_t>> tokens;
  // Call durations, as measured and scaled to the reference host speed.
  Call begin;
  std::vector<Call> steps;
  Call finish;
  std::vector<double> probes;  ///< before begin() and after every call
  int clamped = 0;             ///< calls whose scale hit the clamp
  bool traced = false;
  std::size_t kv_stored_bytes = 0;
  double kv_quantize_s = 0.0;
  double kv_dequantize_s = 0.0;
  std::int64_t prefilled_tokens = 0;  ///< traced sessions only

  /// begin() + step()s + finish(); `scaled` picks the column.
  double time_s(bool scaled = true) const {
    const auto pick = [scaled](const Call& c) {
      return scaled ? c.scaled : c.raw;
    };
    double t = pick(begin) + pick(finish);
    for (const Call& c : steps) t += pick(c);
    return t;
  }
};

/// One closed-loop session with the benchmark's phase spans around
/// begin() and step() (recorded only while the global recorder is on)
/// and a host-speed probe between calls (see probe.hpp).
Session run_session(Generator& gen, const Prompts& prompts,
                    std::int64_t gen_len) {
  Session s;
  s.prompts = prompts;
  s.probes.push_back(host_probe_seconds());
  // Times one call, wrapped in a span named `phase` unless it is null.
  const auto timed = [&s](const char* phase, const auto& call) {
    const auto start = Clock::now();
    if (phase != nullptr) {
      ScopedSpan span(TraceRecorder::global(), phase, "bench");
      call();
    } else {
      call();
    }
    const double raw = seconds_since(start);
    s.probes.push_back(host_probe_seconds());
    const SpeedScale scale =
        speed_scale(s.probes[s.probes.size() - 2], s.probes.back());
    s.clamped += scale.clamped;
    return Call{raw, raw * scale.factor};
  };
  s.begin = timed(kBeginPhase, [&] { gen.begin(prompts, gen_len); });
  while (!gen.done()) {
    s.steps.push_back(timed(kStepPhase, [&] { gen.step(); }));
  }
  lmo::runtime::GenerationResult result;
  s.finish = timed(nullptr, [&] { result = gen.finish(); });
  s.tokens = std::move(result.tokens);
  s.kv_stored_bytes = result.kv_stored_bytes;
  s.kv_quantize_s = result.kv_quantize_seconds;
  s.kv_dequantize_s = result.kv_dequantize_seconds;
  return s;
}

/// A counter's or gauge's value; 0 when the run never registered it.
double value(const MetricsSnapshot& snap, const std::string& name) {
  const lmo::telemetry::MetricSample* s = snap.find(name);
  if (s == nullptr) return 0.0;
  return s->type == lmo::telemetry::MetricType::kCounter
             ? static_cast<double>(s->count)
             : s->value;
}

double delta(const MetricsSnapshot& before, const MetricsSnapshot& after,
             const std::string& name) {
  return value(after, name) - value(before, name);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Matmul and attention FLOPs of one forward over `t_new` new tokens with
/// `prior` cached positions, from the tensor shapes (norms, activations
/// and the LM head excluded; the head runs inside store_activation).
double forward_flops(const lmo::model::ModelSpec& spec, double t_new,
                     double prior) {
  const double h = static_cast<double>(spec.hidden);
  const double h2 = static_cast<double>(spec.mlp_hidden);
  const double proj = 2.0 * t_new * (4.0 * h * h + 2.0 * h * h2);
  // Row i attends over prior + i + 1 positions: a q.k dot and a
  // weighted V sum of width h each, 2 FLOPs per element.
  const double attn = 4.0 * h * (t_new * prior + t_new * (t_new + 1.0) / 2.0);
  return static_cast<double>(spec.num_layers) * (proj + attn);
}

/// f32 bytes the weight dequantizer produces per forward: every tensor of
/// every non-device layer, when host weights are quantized.
double dequant_bytes_per_forward(const lmo::runtime::RuntimeConfig& c) {
  if (c.weight_bits == 16) return 0.0;
  const double h = static_cast<double>(c.spec.hidden);
  const double h2 = static_cast<double>(c.spec.mlp_hidden);
  const double per_layer = 4.0 * h * h + 2.0 * h * h2 + 4.0 * h;
  return 4.0 * per_layer *
         static_cast<double>(c.spec.num_layers - c.device_layers);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_result(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int run(const Options& opt) {
  Workload w = make_workload(opt.workload);
  RunDir dir(opt.workdir);
  if (w.config.disk_layers > 0) {
    w.config.spill_path = (dir.path() / "spill.bin").string();
  }
  std::vector<std::string> notes;

  // ---- set-up: build the Generator several times, keep the last.
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  int setup_clamped = 0;
  std::unique_ptr<Generator> gen;
  for (int r = 0; r < kSetupReps; ++r) {
    gen.reset();
    const double probe_before = host_probe_seconds();
    const auto start = Clock::now();
    gen = std::make_unique<Generator>(w.config);
    setup_raw_s.push_back(seconds_since(start));
    const SpeedScale scale = speed_scale(probe_before, host_probe_seconds());
    setup_s.push_back(setup_raw_s.back() * scale.factor);
    setup_clamped += scale.clamped;
  }
  const MetricsSnapshot built = gen->manager().metrics().snapshot();

  // ---- warm-up (untimed), then the closed loop.
  PromptSource source(w, opt.seed);
  (void)run_session(*gen, source.unshared(), w.gen_len);

  auto& trace = TraceRecorder::global();
  TraceFold fold(TraceRecorder::current_tid());
  std::vector<Session> sessions;
  std::int64_t failed = 0;
  const std::size_t min_sessions = opt.trace ? 2 : 1;
  const MetricsSnapshot loop_before = gen->manager().metrics().snapshot();
  const auto loop_start = Clock::now();
  while (seconds_since(loop_start) < opt.seconds ||
         sessions.size() < min_sessions) {
    const bool traced = opt.trace && sessions.size() % 2 == 1;
    const Prompts prompts = source.next();
    const double hits_before =
        traced ? value(gen->manager().metrics().snapshot(),
                       "kvshare.hit_tokens")
               : 0.0;
    if (traced) trace.enable();
    try {
      sessions.push_back(run_session(*gen, prompts, w.gen_len));
    } catch (const std::exception& e) {
      trace.disable();
      ++failed;
      std::cerr << "session " << sessions.size() << " failed: " << e.what()
                << "\n";
      break;  // the Generator may hold a half-open session
    }
    if (!traced) continue;
    trace.disable();
    fold.add(trace.events());
    Session& s = sessions.back();
    s.traced = true;
    std::int64_t prompt_tokens = 0;
    for (const auto& p : prompts) {
      prompt_tokens += static_cast<std::int64_t>(p.size());
    }
    s.prefilled_tokens =
        prompt_tokens -
        static_cast<std::int64_t>(
            value(gen->manager().metrics().snapshot(), "kvshare.hit_tokens") -
            hits_before);
  }
  const double loop_s = seconds_since(loop_start);
  const MetricsSnapshot loop_after = gen->manager().metrics().snapshot();
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const double rss_peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double device_peak_mib =
      static_cast<double>(gen->device_pool().peak()) / kMiB;
  const double host_peak_mib =
      static_cast<double>(gen->host_pool().peak()) / kMiB;
  const std::int64_t attempted =
      static_cast<std::int64_t>(sessions.size()) + failed;

  // ---- output checks, outside every timed region.
  const Prompts corpus = eval_corpus(w);
  double nll = 0.0;
  double nll_ref = 0.0;
  bool nll_ok = false;
  try {
    nll = lmo::runtime::evaluate_corpus(*gen, corpus, kEvalContext).mean_nll;
    gen.reset();
    Generator f32(f32_reference(w));
    nll_ref =
        lmo::runtime::evaluate_corpus(f32, corpus, kEvalContext).mean_nll;
    nll_ok = std::abs(nll - nll_ref) <= w.nll_margin * std::abs(nll_ref);
  } catch (const std::exception& e) {
    std::cerr << "NLL check failed: " << e.what() << "\n";
  }
  gen.reset();

  std::vector<std::size_t> order(sessions.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 pick(opt.seed ^ 0x5eed5eedULL);
  std::shuffle(order.begin(), order.end(), pick);
  order.resize(std::min<std::size_t>(order.size(), kCheckSessions));
  std::sort(order.begin(), order.end());
  std::int64_t mismatched = 0;
  {
    Generator ref(w.reference);
    for (std::size_t i : order) {
      try {
        if (ref.generate(sessions[i].prompts, w.gen_len).tokens !=
            sessions[i].tokens) {
          ++mismatched;
          std::cerr << "session " << i << ": tokens differ from "
                    << w.reference_label << "\n";
        }
      } catch (const std::exception& e) {
        ++mismatched;
        std::cerr << "reference session " << i << " failed: " << e.what()
                  << "\n";
      }
    }
  }
  failed += mismatched;
  const bool correct = failed == 0 && nll_ok && !sessions.empty();

  // ---- aggregate.
  // Timings scaled to the reference host speed (see probe.hpp); the raw
  // ones are printed in the notes.
  std::vector<double> ttft_ms, ttft_raw_ms;
  std::vector<double> tpot_ms, tpot_raw_ms;
  std::vector<double> probes;
  std::int64_t clamped_calls = 0;
  double time_s = 0.0;
  double raw_time_s = 0.0;
  std::int64_t steps = 0;
  std::int64_t traced_sessions = 0;
  std::int64_t traced_steps = 0;
  std::int64_t traced_prefilled = 0;
  double traced_flops = 0.0;
  double traced_time = 0.0;      // scaled, for the tracing overhead
  double traced_raw_time = 0.0;  // unscaled, beside the raw span times
  double untraced_time = 0.0;
  double kv_q = 0.0, kv_dq = 0.0, kv_bytes = 0.0;
  const double tokens_per_session =
      static_cast<double>(w.batch * w.gen_len);
  for (const Session& s : sessions) {
    ttft_ms.push_back(s.begin.scaled * 1e3);
    ttft_raw_ms.push_back(s.begin.raw * 1e3);
    for (const Call& c : s.steps) {
      tpot_ms.push_back(c.scaled * 1e3);
      tpot_raw_ms.push_back(c.raw * 1e3);
    }
    probes.insert(probes.end(), s.probes.begin(), s.probes.end());
    clamped_calls += s.clamped;
    time_s += s.time_s();
    raw_time_s += s.time_s(false);
    steps += static_cast<std::int64_t>(s.steps.size());
    kv_q += s.kv_quantize_s;
    kv_dq += s.kv_dequantize_s;
    kv_bytes += static_cast<double>(s.kv_stored_bytes);
    if (!s.traced) {
      untraced_time += s.time_s();
      continue;
    }
    ++traced_sessions;
    traced_steps += static_cast<std::int64_t>(s.steps.size());
    traced_prefilled += s.prefilled_tokens;
    traced_time += s.time_s();
    traced_raw_time += s.time_s(false);
    // Prefill: the unmatched suffix after the matched prefix; the split
    // across sequences only matters for the attention term, so spread
    // the matched tokens evenly.
    const double matched_per_seq =
        static_cast<double>(
            std::accumulate(s.prompts.begin(), s.prompts.end(), std::size_t{0},
                            [](std::size_t a, const auto& p) {
                              return a + p.size();
                            }) -
            static_cast<std::size_t>(s.prefilled_tokens)) /
        static_cast<double>(s.prompts.size());
    for (const auto& p : s.prompts) {
      const double len = static_cast<double>(p.size());
      traced_flops += forward_flops(w.config.spec, len - matched_per_seq,
                                    matched_per_seq);
      for (std::int64_t k = 1; k < w.gen_len; ++k) {
        traced_flops += forward_flops(w.config.spec, 1.0,
                                      len + static_cast<double>(k) - 1.0);
      }
    }
  }
  const auto n_sessions = static_cast<double>(sessions.size());
  const double forwards = n_sessions + static_cast<double>(steps);

  std::cout << "perfbench " << w.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n"
            << "  timed sessions " << sessions.size() << " (batch " << w.batch
            << ", " << w.gen_len << " tokens/seq, 1 warm-up excluded), "
            << steps << " steps, " << loop_s << " s\n";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const double tok_s = ratio(n_sessions * tokens_per_session, time_s);
    metrics = {
        {"tok_s", "tok/s", tok_s},
        {"ttft_ms.p50", "ms", percentile(ttft_ms, 50)},
        {"ttft_ms.p90", "ms", percentile(ttft_ms, 90)},
        {"tpot_ms.p50", "ms", percentile(tpot_ms, 50)},
        {"tpot_ms.p90", "ms", percentile(tpot_ms, 90)},
        {"setup_s", "s", median(setup_s)},
        {"rss_peak_mib", "MiB", rss_peak_mib},
        {"host_peak_mib", "MiB", host_peak_mib},
        {"device_peak_mib", "MiB", device_peak_mib},
        {"success_ratio", "ratio",
         1.0 - ratio(static_cast<double>(failed),
                     static_cast<double>(attempted))},
    };
    notes.push_back(
        "error_rate " +
        json_number(ratio(static_cast<double>(failed),
                          static_cast<double>(attempted))) +
        " (" + std::to_string(failed) + " of " + std::to_string(attempted) +
        " sessions failed or mismatched); success_ratio = 1 - error_rate");
    const auto support = [](std::size_t n, double p) {
      return supports_percentile(n, p)
                 ? std::string("at least 10 samples lie beyond it")
                 : "fewer than 10 samples lie beyond it (highest supported: p" +
                       std::to_string(highest_supported_percentile(n)) + ")";
    };
    notes.push_back("ttft_ms.p90 from " + std::to_string(ttft_ms.size()) +
                    " sessions; " + support(ttft_ms.size(), 90));
    notes.push_back(
        "tpot_ms.p99 " + json_number(percentile(tpot_ms, 99)) + " ms from " +
        std::to_string(tpot_ms.size()) + " steps; " +
        support(tpot_ms.size(), 99) +
        "; not judged: on shared vCPUs its run-to-run spread exceeds the "
        "largest bound, so tpot_ms.p90 is the judged tail");
    notes.push_back("setup_s: median of " + std::to_string(setup_s.size()) +
                    " Generator constructions");
    int slow = 0;
    for (double p : probes) slow += p > 1.15 * kReferenceProbeSeconds;
    notes.push_back(
        "timings are scaled to the reference host speed: probe median " +
        json_number(median(probes) * 1e6) + " us vs reference " +
        json_number(kReferenceProbeSeconds * 1e6) + " us, " +
        std::to_string(slow) + " of " + std::to_string(probes.size()) +
        " probes over 1.15x reference; scale clamped at " +
        json_number(kMaxSlowdown) + "x slowdown for " +
        std::to_string(clamped_calls) + " of " +
        std::to_string(probes.size() - sessions.size()) + " calls and " +
        std::to_string(setup_clamped) + " of " +
        std::to_string(setup_s.size()) + " constructions");
    notes.push_back(
        "unscaled: tok_s " +
        json_number(ratio(n_sessions * tokens_per_session, raw_time_s)) +
        ", ttft_ms.p50 " + json_number(percentile(ttft_raw_ms, 50)) +
        ", ttft_ms.p90 " + json_number(percentile(ttft_raw_ms, 90)) +
        ", tpot_ms.p50 " + json_number(percentile(tpot_raw_ms, 50)) +
        ", tpot_ms.p90 " + json_number(percentile(tpot_raw_ms, 90)) +
        ", tpot_ms.p99 " + json_number(percentile(tpot_raw_ms, 99)) +
        ", setup_s " + json_number(median(setup_raw_s)));
  } else {
    const double steps_d = static_cast<double>(traced_steps);
    const double sess_d = static_cast<double>(traced_sessions);
    const auto main_ms = [&](const char* phase, const char* name) {
      return fold.get(Row::kMain, phase, name).total_us * 1e-3;
    };
    const auto worker_ms = [&](const char* phase, const char* name) {
      return fold.get(Row::kWorker, phase, name).total_us * 1e-3;
    };
    const double decode_self_ms =
        (fold.get(Row::kMain, kStepPhase, kStepPhase).self_us +
         fold.get(Row::kMain, kStepPhase, "decode_step").self_us) *
        1e-3;
    double compute_us = 0.0;
    for (const char* phase : {kBeginPhase, kStepPhase}) {
      compute_us += fold.get(Row::kMain, phase, "compute").total_us;
    }
    double dequant_us = 0.0;
    for (Row row : {Row::kMain, Row::kWorker}) {
      for (const char* phase : {kBeginPhase, kStepPhase}) {
        dequant_us += fold.get(row, phase, "dequantize").total_us;
      }
    }
    const double traced_forwards = sess_d + steps_d;
    double worker_us = 0.0;
    for (const char* phase : {kBeginPhase, kStepPhase, ""}) {
      worker_us += fold.top_level_us(Row::kWorker, phase);
    }
    const double fetched =
        delta(loop_before, loop_after, "offload.fetch.total") -
        delta(loop_before, loop_after, "offload.fetch.device_hits");
    const double store_hits =
        delta(loop_before, loop_after, "store.prefetch.hits");
    const double store_misses =
        delta(loop_before, loop_after, "store.prefetch.misses");
    const double kv_hit =
        delta(loop_before, loop_after, "kvshare.hit_tokens");
    const double kv_miss =
        delta(loop_before, loop_after, "kvshare.miss_tokens");
    const double untraced_tok_s =
        ratio((n_sessions - sess_d) * tokens_per_session, untraced_time);
    const double traced_tok_s = ratio(sess_d * tokens_per_session, traced_time);
    metrics = {
        {"generator.decode_self_ms_per_step", "ms/step",
         ratio(decode_self_ms, steps_d)},
        {"generator.prefill_tok_s", "tok/s",
         ratio(static_cast<double>(traced_prefilled),
               main_ms(kBeginPhase, "prefill") * 1e-3)},
        {"generator.sample_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "store_activation"), steps_d)},
        {"transformer.compute_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "compute"), steps_d)},
        {"transformer.prefill_compute_ms_per_session", "ms/session",
         ratio(main_ms(kBeginPhase, "compute"), sess_d)},
        {"tensor.compute_gflops", "GFLOP/s",
         ratio(traced_flops * 1e-9, compute_us * 1e-6)},
        {"tensor.dequant_gbs", "GB/s",
         ratio(dequant_bytes_per_forward(w.config) * traced_forwards * 1e-9,
               dequant_us * 1e-6)},
        {"offload.load_weight_main_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "load_weight"), steps_d)},
        {"offload.dequantize_main_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "dequantize"), steps_d)},
        {"offload.load_weight_worker_ms_per_step", "ms/step",
         ratio(worker_ms(kStepPhase, "load_weight"), steps_d)},
        {"offload.dequantize_worker_ms_per_step", "ms/step",
         ratio(worker_ms(kStepPhase, "dequantize"), steps_d)},
        {"offload.staging_hit_ratio", "ratio",
         ratio(delta(loop_before, loop_after, "offload.fetch.staging_hits"),
               fetched)},
        {"offload.h2d_bytes_per_step", "B/step",
         ratio(delta(loop_before, loop_after,
                     "offload.transfer.bytes_host_to_device"),
               forwards)},
        {"offload.quantize_s", "s", value(built, "offload.quantize.seconds")},
        {"offload.retries", "count",
         delta(loop_before, loop_after, "offload.transfer.retries") +
             delta(loop_before, loop_after, "offload.fetch.sync_fallbacks") +
             delta(loop_before, loop_after, "offload.prefetch.discards")},
        {"parallel.prefetch_busy_ratio", "ratio",
         ratio(worker_us * 1e-6,
               traced_raw_time *
                   static_cast<double>(w.config.prefetch_threads))},
        {"store.read_main_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "load_weight_disk"), steps_d)},
        {"store.prefetch_hit_ratio", "ratio",
         ratio(store_hits, store_hits + store_misses)},
        {"store.read_mib_per_step", "MiB/step",
         ratio(delta(loop_before, loop_after, "store.read.bytes") / kMiB,
               forwards)},
        {"store.write_s", "s", value(built, "store.write.seconds")},
        {"store.retries", "count",
         value(loop_after, "store.write.retries") +
             value(loop_after, "store.read.retries")},
        {"kv.load_cache_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "load_cache"), steps_d)},
        {"kv.dequantize_s", "s/session", ratio(kv_dq, n_sessions)},
        {"kv.store_cache_ms_per_step", "ms/step",
         ratio(main_ms(kStepPhase, "store_cache"), steps_d)},
        {"kv.quantize_s", "s/session", ratio(kv_q, n_sessions)},
        {"kv.stored_kib_per_seq", "KiB/seq",
         ratio(kv_bytes / 1024.0, n_sessions * static_cast<double>(w.batch))},
        {"kvshare.hit_ratio", "ratio", ratio(kv_hit, kv_hit + kv_miss)},
        {"kvshare.match_ms_per_session", "ms/session",
         ratio(main_ms(kBeginPhase, "prefix_match"), sess_d)},
        {"kvshare.insert_ms_per_session", "ms/session",
         ratio(main_ms(kBeginPhase, "prefix_insert"), sess_d)},
        {"kvshare.evicted_blocks", "count",
         delta(loop_before, loop_after, "kvshare.evicted_blocks")},
        {"kvshare.mib_in_use", "MiB",
         value(loop_after, "kvshare.bytes_in_use") / kMiB},
        {"trace.overhead_pct", "%",
         100.0 * (1.0 - ratio(traced_tok_s, untraced_tok_s))},
    };
    notes.push_back(
        "traced " + std::to_string(traced_sessions) + " of " +
        std::to_string(sessions.size()) +
        " sessions (every other one); span metrics fold those, counter "
        "ratios cover all timed sessions; one forward = begin() or step()");
    notes.push_back(
        "FLOPs and dequantized bytes are computed from tensor shapes");
    if (fold.unmatched() != 0) {
      notes.push_back("unmatched trace events: " +
                      std::to_string(fold.unmatched()));
    }
  }

  const auto checked = static_cast<std::int64_t>(order.size());
  notes.push_back("output check: " + std::to_string(checked) + " of " +
                  std::to_string(sessions.size()) +
                  " timed sessions re-run with " + w.reference_label + ", " +
                  std::to_string(checked - mismatched) + " token-identical");
  notes.push_back("mean NLL " + json_number(nll) + " vs f32 reference " +
                  json_number(nll_ref) + " (margin " +
                  json_number(100.0 * w.nll_margin) + "% of it): " +
                  (nll_ok ? "ok" : "FAILED"));
  for (const std::string& n : w.notes) notes.push_back(n);

  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : notes) std::cout << "  note: " << n << "\n";
  std::cout << json_result(correct, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) {
    std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n";
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
