// lmo — command-line front end for the LM-Offload library.
//
//   lmo plan     --model opt-30b --len 32 [--bls 640] [--platform FILE]
//   lmo compare  --model opt-30b --len 32        (FlexGen/ZeRO/LM-Offload)
//   lmo sweep    --model opt-30b                 (all Table-3 lengths)
//   lmo trace    --model opt-30b --len 8 --out trace.json
//   lmo trace    --runtime 1 --out trace.json    (measured Generator spans)
//   lmo serve    --rate 2 --requests 100         (online-serving simulation)
//   lmo chaos    --profile NAME                  (one drill of lmo/chaos)
//   lmo checkpoint --out gen.ckpt                (snapshot mid-generation)
//   lmo checkpoint --verify gen.ckpt             (validate without restoring)
//   lmo resume     --from gen.ckpt               (finish from the snapshot)
//   lmo recover    --dir crash_dir               (restore a supervised run)
//   lmo models                                    (list presets)
//
// Each verb lists the options it reads (verbs()); any other option, or a
// trailing option without a value, exits 2 before anything runs. Run with
// no arguments for the option lists and the chaos profiles.
//
// trace/serve/chaos/resume/recover accept --metrics-out FILE to export the
// run's telemetry registry as JSON; serve also accepts --trace-out FILE for
// request lifecycle spans. See docs/observability.md.
//
// --platform takes either a preset name (a100-single, v100-quad) or a path
// to a key=value platform config (see lmo/hw/platform_config.hpp).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "lmo/chaos/drill.hpp"
#include "lmo/ckpt/format.hpp"
#include "lmo/core/decisions.hpp"
#include "lmo/core/lm_offload.hpp"
#include "lmo/core/plan_io.hpp"
#include "lmo/hw/platform_config.hpp"
#include "lmo/integrity/integrity.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/recover/recovery_manager.hpp"
#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/sched/flexgen.hpp"
#include "lmo/sched/zero_inference.hpp"
#include "lmo/perfmodel/calibration.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/sim/trace_export.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/status.hpp"
#include "lmo/util/csv.hpp"
#include "lmo/util/table.hpp"
#include "lmo/util/units.hpp"

namespace {

using namespace lmo;

struct Args {
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stoll(it->second);
  }
};

hw::Platform load_platform(const Args& args) {
  const std::string spec = args.get("platform", "a100-single");
  try {
    return hw::platform_by_name(spec);  // preset name?
  } catch (const util::CheckError&) {
    return hw::platform_from_file(spec);  // otherwise a config file
  }
}

model::Workload load_workload(const Args& args) {
  model::Workload w;
  w.prompt_len = args.get_int("prompt", 64);
  w.gen_len = args.get_int("len", 32);
  w.gpu_batch = args.get_int("batch", 64);
  w.num_batches = args.get_int("batches", 10);
  const std::int64_t bls = args.get_int("bls", 0);
  if (bls > 0) {
    w.gpu_batch = std::min<std::int64_t>(bls, 64);
    w.num_batches = std::max<std::int64_t>(bls / w.gpu_batch, 1);
  }
  w.validate();
  return w;
}

/// --metrics-out FILE: save the registry's snapshot there and say so.
void save_metrics(const Args& args, const telemetry::MetricsRegistry& registry,
                  const char* run) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  registry.snapshot().save(path);
  std::printf("wrote %s metrics to %s\n", run, path.c_str());
}

void print_tokens(const chaos::Tokens& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::printf("sequence %zu tokens:", i);
    for (std::int64_t tok : tokens[i]) {
      std::printf(" %lld", static_cast<long long>(tok));
    }
    std::printf("\n");
  }
}

int cmd_models(const Args&) {
  util::Table table({"model", "layers", "hidden", "mlp", "heads", "params",
                     "fp16 weights"});
  for (const auto& name : model::ModelSpec::known_names()) {
    const auto spec = model::ModelSpec::by_name(name);
    table.add_row({spec.name, std::to_string(spec.num_layers),
                   std::to_string(spec.hidden),
                   std::to_string(spec.mlp_hidden),
                   std::to_string(spec.num_heads),
                   util::Table::num(
                       static_cast<double>(spec.total_weights()) / 1e9, 1) +
                       "B",
                   util::format_bytes(model::total_weight_bytes(spec, 16))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  model::Workload workload = load_workload(args);
  const auto platform = load_platform(args);

  // --auto-block 1: let the search pick the zig-zag block too.
  if (args.get_int("auto-block", 0) != 0) {
    const auto block = sched::search_block_size(
        spec, workload, platform, sched::SearchSpace::lm_offload());
    workload = block.workload;
    std::printf("auto block: %lld (= %lld x %lld), %zu/%zu candidate "
                "blocks feasible\n",
                static_cast<long long>(workload.block_size()),
                static_cast<long long>(workload.gpu_batch),
                static_cast<long long>(workload.num_batches),
                block.blocks_feasible, block.blocks_tried);
  }

  const auto plan = core::LMOffload::plan(spec, workload, platform);
  std::printf("model:     %s on %s\n", spec.name.c_str(),
              platform.name.c_str());
  std::printf("workload:  s=%lld n=%lld block=%lld (%lld x %lld)\n",
              static_cast<long long>(workload.prompt_len),
              static_cast<long long>(workload.gen_len),
              static_cast<long long>(workload.block_size()),
              static_cast<long long>(workload.gpu_batch),
              static_cast<long long>(workload.num_batches));
  std::printf("policy:    %s\n", plan.policy().to_string().c_str());
  std::printf("threads:   inter-op %d x intra-op %d + 5 I/O tasks\n",
              plan.parallelism.inter_op_compute,
              plan.parallelism.intra_op_compute);
  std::printf("estimate:  %.1f tokens/s | GPU %s | CPU %s | init %s\n",
              plan.search.estimate.throughput,
              util::format_bytes(plan.search.estimate.gpu_bytes_needed)
                  .c_str(),
              util::format_bytes(plan.search.estimate.cpu_bytes_needed)
                  .c_str(),
              util::format_seconds(plan.search.estimate.t_init).c_str());

  const std::string save_path = args.get("save", "");
  if (!save_path.empty()) {
    core::SavedPlan saved{spec.name, workload, plan.policy()};
    core::save_plan(saved, save_path);
    std::printf("plan saved to %s (replay: lmo compare --plan %s)\n",
                save_path.c_str(), save_path.c_str());
  }
  return 0;
}

int cmd_compare(const Args& args) {
  // A saved plan fixes model, workload and the LM-Offload policy.
  const std::string plan_path = args.get("plan", "");
  model::ModelSpec spec =
      model::ModelSpec::by_name(args.get("model", "opt-30b"));
  model::Workload workload = load_workload(args);
  const auto platform = load_platform(args);

  sched::SimulationReport lmo;
  if (!plan_path.empty()) {
    const auto saved = core::load_plan(plan_path);
    spec = model::ModelSpec::by_name(saved.model);
    workload = saved.workload;
    lmo = core::LMOffload::run_with_policy(spec, workload, saved.policy,
                                           platform);
  } else {
    lmo = core::LMOffload::run(spec, workload, platform);
  }
  const auto fg = sched::FlexGen::run(spec, workload, platform);
  const auto zr = sched::ZeroInference::run(spec, workload, platform);

  util::Table table({"framework", "policy", "bsz", "mem", "tput (tok/s)",
                     "norm"});
  const std::vector<const sched::SimulationReport*> reports = {&fg, &zr,
                                                               &lmo};
  for (const sched::SimulationReport* r : reports) {
    table.add_row({r->framework, r->policy.to_string(),
                   std::to_string(r->workload.block_size()),
                   util::format_bytes(r->memory_bytes),
                   util::Table::num(r->throughput, 1),
                   util::Table::num(r->throughput / lmo.throughput, 2)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  const auto platform = load_platform(args);
  util::Table table({"len", "FlexGen", "ZeRO-Inference", "LM-Offload",
                     "vs FG", "vs ZeRO"});
  for (std::int64_t len : {8, 16, 32, 64, 128}) {
    model::Workload w{.prompt_len = 64, .gen_len = len, .gpu_batch = 64,
                      .num_batches = 10};
    const auto fg = sched::FlexGen::run(spec, w, platform);
    const auto zr = sched::ZeroInference::run(spec, w, platform);
    const auto lmo = core::LMOffload::run(spec, w, platform);
    table.add_row({std::to_string(len), util::Table::num(fg.throughput, 1),
                   util::Table::num(zr.throughput, 1),
                   util::Table::num(lmo.throughput, 1),
                   util::Table::num(lmo.throughput / fg.throughput, 2) + "x",
                   util::Table::num(lmo.throughput / zr.throughput, 2) +
                       "x"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_decide(const Args& args) {
  // The three model-guided decisions of paper §3.2, standalone.
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  const auto workload = load_workload(args);
  const auto platform = load_platform(args);

  perfmodel::Policy base;
  base.weights_on_gpu = args.get_int("wg", 50) / 100.0;
  base.attention_on_cpu = args.get("attn", "cpu") == "cpu";
  base.activations_on_gpu = base.attention_on_cpu ? 0.0 : 1.0;

  const int bits = static_cast<int>(args.get_int("bits", 4));
  const auto wq = core::decide_weight_quantization(spec, workload, base,
                                                   bits, platform);
  const auto kq = core::decide_kv_quantization(spec, workload, base, bits,
                                               platform);
  const auto place = core::decide_attention_placement(spec, workload, base,
                                                      platform);

  std::printf("base policy: %s\n\n", base.to_string().c_str());
  std::printf("weight %d-bit quantization: %-14s load_weight %s -> %s "
              "(%.2fx)\n",
              bits, wq.beneficial ? "BENEFICIAL" : "not beneficial",
              util::format_seconds(wq.seconds_without).c_str(),
              util::format_seconds(wq.seconds_with).c_str(), wq.gain());
  std::printf("KV %d-bit quantization:     %-14s cache path  %s -> %s "
              "(%.2fx)\n",
              bits, kq.beneficial ? "BENEFICIAL" : "not beneficial",
              util::format_seconds(kq.seconds_without).c_str(),
              util::format_seconds(kq.seconds_with).c_str(), kq.gain());
  std::printf("attention placement:       %-14s per layer-step: cpu %s vs "
              "gpu %s\n",
              place.offload_to_cpu ? "OFFLOAD TO CPU" : "KEEP ON GPU",
              util::format_seconds(place.cpu_seconds).c_str(),
              util::format_seconds(place.gpu_seconds).c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  // Online-serving simulation: requests from --trace CSV (arrival_seconds,
  // prompt_len, gen_len) or a Poisson profile (--rate, --requests).
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-13b"));
  const auto platform = load_platform(args);

  std::vector<serve::Request> requests;
  const std::string trace = args.get("trace", "");
  const std::int64_t templates = args.get_int("templates", 0);
  if (!trace.empty()) {
    requests = serve::requests_from_csv(trace);
  } else if (templates > 0) {
    // Shared-prefix workload: N templates × unique suffixes, so prefix
    // sharing has something to hit. Token-level prompts ride along even
    // with sharing off (they are then simply ignored).
    serve::SharedPrefixProfile profile;
    profile.base.arrival_rate = std::stod(args.get("rate", "2.0"));
    profile.num_templates = templates;
    profile.template_tokens = args.get_int("template-tokens", 64);
    requests = serve::generate_shared_prefix_requests(
        profile, args.get_int("requests", 100), 2024);
  } else {
    serve::RequestProfile profile;
    profile.arrival_rate = std::stod(args.get("rate", "2.0"));
    requests = serve::generate_requests(
        profile, args.get_int("requests", 100), 2024);
  }

  perfmodel::Policy policy;
  const std::string plan_path = args.get("plan", "");
  if (!plan_path.empty()) {
    policy = core::load_plan(plan_path).policy;
  } else {
    policy.weights_on_gpu = 0.5;
    policy.attention_on_cpu = false;
    policy.activations_on_gpu = 1.0;
    policy.weight_bits = 4;
    policy.kv_bits = 4;
    policy.parallelism_control = true;
  }

  serve::ServeConfig config;
  config.max_batch = args.get_int("max-batch", 16);
  config.prefill_chunk = args.get_int("chunk", 0);
  config.batching = args.get("batching", "continuous") == "static"
                        ? serve::Batching::kStatic
                        : serve::Batching::kContinuous;
  config.prefix_share = args.get_int("prefix-share", 0) != 0;
  config.kv_block_tokens = args.get_int("kv-block-tokens", 16);

  // Overload protection: bounded admission plus the degradation ladder
  // over a modelled KV pool (see docs/robustness.md).
  config.deadline_seconds = std::stod(args.get("deadline", "0"));
  config.max_retries = static_cast<int>(args.get_int("retries", 0));
  config.admission =
      overload::admission_policy_from_string(args.get("admission",
                                                      "unbounded"));
  config.max_queue = static_cast<std::size_t>(args.get_int("max-queue", 0));
  const std::int64_t kv_pool_mb = args.get_int("kv-pool-mb", 0);
  if (kv_pool_mb > 0) {
    config.overload.enabled = true;
    config.overload.kv_pool_bytes =
        static_cast<std::size_t>(kv_pool_mb) << 20;
  }

  // Online adaptive parallelism control: the engine closes the loop from
  // observed task spans back into the Algorithm-3 thread allocation.
  config.adaptive.enabled = args.get_int("adaptive", 0) != 0;
  config.adaptive.window_steps =
      static_cast<int>(args.get_int("window-steps", 8));

  // End-to-end integrity accounting (see docs/robustness.md): --verify
  // off|sample|always charges each step the checksum time for its host
  // fetches; --corrupt "T:ID[,T:ID...]" injects silent-corruption events
  // the engine repairs by checkpoint rollback (or, under verify=off,
  // counts as undetected).
  config.integrity.policy =
      integrity::verify_policy_from_string(args.get("verify", "off"));
  config.integrity.sample_period = args.get_int("verify-sample", 16);
  config.ckpt_interval_tokens = args.get_int("ckpt-interval", 32);
  const std::string corrupt = args.get("corrupt", "");
  for (std::size_t pos = 0; pos < corrupt.size();) {
    const auto comma = corrupt.find(',', pos);
    const std::string item = corrupt.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto colon = item.find(':');
    LMO_CHECK_MSG(colon != std::string::npos,
                  "--corrupt wants T:ID[,T:ID...], got: " + item);
    config.events.push_back({std::stod(item.substr(0, colon)),
                             serve::ServeEventKind::kCorruption,
                             std::stoll(item.substr(colon + 1))});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace_recorder;
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) trace_recorder.enable();
  const auto m = serve::simulate_serving(
      spec, policy, platform, requests, config, &registry,
      trace_out.empty() ? nullptr : &trace_recorder);
  std::printf("served %zu requests on %s (%s batching%s)\n", m.completed,
              spec.name.c_str(),
              config.batching == serve::Batching::kStatic ? "static"
                                                          : "continuous",
              config.prefill_chunk > 0 ? ", chunked prefill" : "");
  std::printf("duration %.1f s | %.0f tok/s | %.2f req/s | occupancy "
              "%.1f/%lld\n",
              m.duration, m.token_throughput, m.request_throughput,
              m.mean_batch_occupancy,
              static_cast<long long>(config.max_batch));
  std::printf("TTFT p50/p95: %.2f / %.2f s | latency p50/p95: %.2f / "
              "%.2f s\n",
              m.ttft_p50, m.ttft_p95, m.latency_p50, m.latency_p95);
  if (config.prefix_share) {
    const auto total = m.prefix_hit_tokens + m.prefix_miss_tokens;
    std::printf("prefix sharing: %llu/%llu prompt tokens reused (%.0f%%), "
                "%llu prefilled, %s saved, %llu blocks evicted\n",
                static_cast<unsigned long long>(m.prefix_hit_tokens),
                static_cast<unsigned long long>(total),
                total > 0 ? 100.0 * static_cast<double>(m.prefix_hit_tokens) /
                                static_cast<double>(total)
                          : 0.0,
                static_cast<unsigned long long>(m.prefill_tokens),
                util::format_bytes(
                    static_cast<std::size_t>(m.prefix_bytes_saved))
                    .c_str(),
                static_cast<unsigned long long>(m.prefix_evicted_blocks));
  }

  if (config.admission != overload::AdmissionPolicy::kUnbounded ||
      config.overload.enabled) {
    std::printf("overload (%s): %zu shed, %zu rejected, %zu escalations / "
                "%zu de-escalations, %zu demoted, %zu preempted | goodput "
                "%.2f req/s\n",
                overload::to_string(config.admission), m.shed, m.rejected,
                m.overload_escalations, m.overload_deescalations,
                m.demoted_sessions, m.overload_preemptions,
                m.request_goodput);
  }

  if (config.integrity.enabled() || !config.events.empty()) {
    std::printf("integrity (verify=%s): %zu corruption(s) detected, %zu "
                "undetected | %llu tokens re-decoded after rollback | "
                "%.2f s verifying\n",
                integrity::to_string(config.integrity.policy),
                m.corruption_detected, m.corruption_undetected,
                static_cast<unsigned long long>(m.rollback_tokens),
                m.verify_seconds);
  }

  if (config.adaptive.enabled) {
    std::printf("adaptive parallelism: %llu attempts, %llu applied, %llu "
                "reverted, %llu held | threads %g/%g/%g "
                "(intra/inter/io) | step factor %.3f\n",
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.attempts").value()),
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.applied").value()),
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.reverted").value()),
                static_cast<unsigned long long>(
                    registry.counter("parallel.replan.held").value()),
                registry.gauge("parallel.threads.intra").value(),
                registry.gauge("parallel.threads.inter").value(),
                registry.gauge("parallel.threads.io_total").value(),
                registry.gauge("parallel.adaptive.step_factor").value());
  }

  save_metrics(args, registry, "serve");
  if (!trace_out.empty()) {
    trace_recorder.save(trace_out);
    std::printf("wrote request-lifecycle trace to %s\n", trace_out.c_str());
  }
  return 0;
}

/// "full" or "window-N": which KV rows a configuration keeps.
std::string kv_label(const runtime::RuntimeConfig& config) {
  return config.window_tokens > 0
             ? "window-" + std::to_string(config.window_tokens)
             : std::string("full");
}

/// `lmo checkpoint --verify FILE`: validate a checkpoint without restoring
/// it. Two passes, each reporting a typed verdict: the envelope (magic,
/// format version, payload kind, length, CRC-32 trailer — see
/// ckpt/format.hpp for the error taxonomy and check order), then the
/// payload's section ordering (config fingerprint + progress decode, the
/// same probe `lmo resume` runs). No pools are touched and no Generator is
/// built, so a corrupt file can be triaged on a machine that could never
/// host the model.
int cmd_checkpoint_verify(const Args& args) {
  const std::string path = args.get("verify", "");
  std::printf("verifying checkpoint %s\n", path.c_str());

  std::size_t payload_bytes = 0;
  try {
    payload_bytes =
        ckpt::read_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState)
            .size();
  } catch (const util::CheckpointTruncated& e) {
    std::printf("envelope: TRUNCATED — %s\n", e.what());
    return 1;
  } catch (const util::CheckpointVersionMismatch& e) {
    std::printf("envelope: VERSION MISMATCH — %s\n", e.what());
    return 1;
  } catch (const util::CheckpointMismatch& e) {
    std::printf("envelope: WRONG PAYLOAD KIND — %s\n", e.what());
    return 1;
  } catch (const util::CheckpointCorrupt& e) {
    std::printf("envelope: CORRUPT — %s\n", e.what());
    return 1;
  }
  std::printf("envelope: ok — magic, format v%u, generator-state payload "
              "(%zu bytes), CRC-32 intact\n",
              ckpt::kFormatVersion, payload_bytes);

  try {
    const auto meta = runtime::read_checkpoint_meta(path);
    std::printf("sections: ok — config fingerprint and progress decode "
                "in order\n");
    std::printf("contents: %s, %s KV, %zu sequence(s) at token %lld/%lld\n",
                meta.config.spec.name.c_str(),
                kv_label(meta.config).c_str(),
                meta.num_sequences, static_cast<long long>(meta.produced),
                static_cast<long long>(meta.gen_len));
  } catch (const util::CheckpointError& e) {
    std::printf("sections: INVALID — %s\n", e.what());
    return 1;
  } catch (const util::CheckError& e) {
    std::printf("sections: INVALID — %s\n", e.what());
    return 1;
  }
  std::printf("checkpoint is valid; restore with: lmo resume --from %s\n",
              path.c_str());
  return 0;
}

/// `lmo checkpoint`: run the tiny generator partway and snapshot its state
/// to a file `lmo resume` can pick up — the smallest end-to-end exercise of
/// the crash-resume path. With --verify FILE, validate an existing
/// checkpoint instead (no generation, no restore).
int cmd_checkpoint(const Args& args) {
  if (!args.get("verify", "").empty()) return cmd_checkpoint_verify(args);
  const std::string out = args.get("out", "lmo_generation.ckpt");
  const std::int64_t gen_len = args.get_int("len", 12);
  const std::int64_t at =
      std::max<std::int64_t>(1, args.get_int("at", gen_len / 2));
  runtime::RuntimeConfig config = chaos::tiny_runtime();
  config.window_tokens = args.get_int("window", 0);
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};

  runtime::Generator gen(config);
  gen.begin(prompts, gen_len);
  while (gen.step_index() < at && !gen.done()) gen.step();
  const std::size_t payload_bytes = gen.snapshot(out);

  std::printf("checkpointed %lld/%lld tokens (%s, %s KV) to %s "
              "(%zu payload bytes)\n",
              static_cast<long long>(gen.step_index()),
              static_cast<long long>(gen_len), config.spec.name.c_str(),
              kv_label(config).c_str(), out.c_str(),
              payload_bytes);
  std::printf("continue with: lmo resume --from %s\n", out.c_str());
  return 0;
}

/// `lmo resume`: reconstruct a Generator from a checkpoint file and run the
/// interrupted generation to completion. The runtime configuration comes
/// from the checkpoint itself (read_checkpoint_meta), so no flags beyond
/// --from are needed — and none can silently mismatch.
int cmd_resume(const Args& args) {
  const std::string from = args.get("from", "lmo_generation.ckpt");
  const auto meta = runtime::read_checkpoint_meta(from);
  std::printf("checkpoint %s: %s, %s KV, %zu sequence(s) at token "
              "%lld/%lld\n",
              from.c_str(), meta.config.spec.name.c_str(),
              kv_label(meta.config).c_str(), meta.num_sequences,
              static_cast<long long>(meta.produced),
              static_cast<long long>(meta.gen_len));

  runtime::Generator gen(meta.config);
  gen.resume(from);
  while (!gen.done()) gen.step();
  const auto result = gen.finish();

  print_tokens(result.tokens);
  std::printf("resumed run: %.1f tok/s (%lld tokens finished after "
              "restore)\n",
              result.tokens_per_second,
              static_cast<long long>(meta.gen_len - meta.produced));

  save_metrics(args, gen.manager().metrics(), "resume-run");
  return 0;
}

/// `lmo recover --dir D`: restore the last durable state a supervised run
/// (RecoveryManager) left in a recovery directory — WAL replay, spill-block
/// adoption, checkpoint restore — and finish the generation under continued
/// supervision. The runtime configuration comes from the checkpoint itself.
int cmd_recover(const Args& args) {
  const std::string dir = args.get("dir", "");
  LMO_CHECK_MSG(!dir.empty(), "recover needs --dir D");
  recover::RecoveryManager manager({dir});
  recover::RecoveredSession session = manager.recover();
  runtime::Generator& gen = *session.generator;
  std::printf("recovered %s: epoch %llu, %llu WAL record(s) replayed, "
              "%llu orphan block(s) freed, %llu torn byte(s) truncated, "
              "%llu stale payload(s) swept (%.3f ms replay)\n",
              dir.c_str(), static_cast<unsigned long long>(session.epoch),
              static_cast<unsigned long long>(session.replay_records),
              static_cast<unsigned long long>(session.orphan_blocks),
              static_cast<unsigned long long>(session.truncated_bytes),
              static_cast<unsigned long long>(session.stale_payloads),
              session.replay_seconds * 1e3);
  while (!gen.done()) {
    gen.step();
    manager.note_step(gen);
  }
  print_tokens(gen.finish().tokens);
  save_metrics(args, gen.manager().metrics(), "recovery-run");
  return 0;
}

/// `lmo chaos --profile NAME`: run one drill of the chaos table and exit
/// 0 when every invariant holds, 1 otherwise, 2 for an unknown name.
int cmd_chaos(const Args& args) {
  const std::string name = args.get("profile", "flaky-pcie");
  const chaos::Drill* drill = chaos::find(name);
  if (drill == nullptr) {
    std::fprintf(stderr, "unknown chaos profile: %s\nprofiles:", name.c_str());
    for (const auto& d : chaos::drills()) {
      std::fprintf(stderr, " %s", d.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  chaos::Outcomes outcomes;
  const int rc = chaos::run(*drill, std::cout, &outcomes);
  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    // The registry of the drill's last run that recorded one.
    for (auto it = drill->runs.rbegin(); it != drill->runs.rend(); ++it) {
      const auto found = outcomes.find(it->name);
      if (found == outcomes.end() || found->second.metrics_json.empty()) {
        continue;
      }
      std::ofstream file(metrics_out);
      LMO_CHECK_MSG(file << found->second.metrics_json << "\n",
                    "cannot write metrics output file: " + metrics_out);
      std::printf("wrote run '%s' metrics to %s\n", it->name.c_str(),
                  metrics_out.c_str());
      break;
    }
  }
  return rc;
}

int cmd_graph(const Args& args) {
  // Emit the attention compute-task op graph (paper Fig. 6) as DOT.
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  const auto workload = load_workload(args);
  perfmodel::Policy policy;  // graph structure is policy-light
  policy.kv_bits = static_cast<int>(args.get_int("kv-bits", 16));
  auto graph = core::LMOffload::compute_graph(spec, workload, policy);
  const std::string out = args.get("out", "fig6.dot");
  std::ofstream file(out);
  LMO_CHECK_MSG(file.good(), "cannot open output: " + out);
  file << model::to_dot(graph, spec.name + " attention compute task");
  std::printf("wrote %zu ops (max concurrency %zu) to %s — render with "
              "`dot -Tsvg %s`\n",
              graph.size(), graph.max_concurrency(), out.c_str(),
              out.c_str());
  return 0;
}

int cmd_calibrate(const Args& args) {
  // Observations CSV columns: model, prompt, gen_len, gpu_batch,
  // num_batches, wg, attn (cpu|gpu), weight_bits, kv_bits, control (0|1),
  // tput.
  const std::string path = args.get("obs", "");
  LMO_CHECK_MSG(!path.empty(), "calibrate needs --obs observations.csv");
  const auto csv = util::CsvReader::load(path);

  std::vector<perfmodel::Observation> observations;
  for (std::size_t i = 0; i < csv.rows(); ++i) {
    perfmodel::Observation obs;
    obs.spec = model::ModelSpec::by_name(csv.at(i, "model"));
    obs.workload.prompt_len = std::stoll(csv.at(i, "prompt"));
    obs.workload.gen_len = std::stoll(csv.at(i, "gen_len"));
    obs.workload.gpu_batch = std::stoll(csv.at(i, "gpu_batch"));
    obs.workload.num_batches = std::stoll(csv.at(i, "num_batches"));
    obs.policy.weights_on_gpu = std::stod(csv.at(i, "wg"));
    obs.policy.attention_on_cpu = csv.at(i, "attn") == "cpu";
    obs.policy.activations_on_gpu =
        obs.policy.attention_on_cpu ? 0.0 : 1.0;
    obs.policy.weight_bits =
        static_cast<int>(std::stoll(csv.at(i, "weight_bits")));
    obs.policy.kv_bits = static_cast<int>(std::stoll(csv.at(i, "kv_bits")));
    obs.policy.parallelism_control = csv.at(i, "control") == "1";
    obs.measured_throughput = std::stod(csv.at(i, "tput"));
    observations.push_back(std::move(obs));
  }
  std::printf("fitting %zu observations from %s\n", observations.size(),
              path.c_str());

  const auto fit =
      perfmodel::calibrate(load_platform(args), observations);
  std::printf("loss: %.4f -> %.4f in %d rounds\n", fit.initial_loss,
              fit.final_loss, fit.rounds);
  std::printf("\n# fitted constants (paste into a platform config)\n");
  std::printf("eff.pcie = %.4f\n", fit.platform.eff.pcie);
  std::printf("eff.gpu_matmul = %.4f\n", fit.platform.eff.gpu_matmul);
  std::printf("eff.cpu_attention_default = %.4f\n",
              fit.platform.eff.cpu_attention_default);
  std::printf("eff.cpu_attention_tuned = %.4f\n",
              fit.platform.eff.cpu_attention_tuned);
  std::printf("# task_overhead = %.2f ms (not a config key; edit code)\n",
              fit.platform.eff.task_overhead * 1e3);
  std::printf("\npredicted/measured per observation:");
  for (double ratio : fit.fit_ratios) std::printf(" %.2f", ratio);
  std::printf("\n");
  return 0;
}

/// `lmo trace --runtime 1`: capture a *measured* timeline from a real tiny
/// Generator run — the six Algorithm-1 task spans (load_weight on prefetch
/// worker rows overlapping compute on the main row), diffable against the
/// simulator's predicted timeline from the default mode.
int cmd_trace_runtime(const Args& args) {
  const std::string out = args.get("out", "lmo_trace.json");
  const std::int64_t gen_len = args.get_int("len", 12);

  runtime::RuntimeConfig config = chaos::tiny_runtime();  // every layer
  config.prefetch_threads = 2;  // streams, on worker rows beside the main row
  // --adaptive 1: close the loop — the controller folds this run's own
  // measured spans back into Algorithm 3 and re-plans between windows.
  // Token outputs are unaffected; replan decisions land as
  // "parallel.replan:*" spans on pid 2 of the same timeline.
  config.adaptive.enabled = args.get_int("adaptive", 0) != 0;
  config.adaptive.window_steps =
      static_cast<int>(args.get_int("window-steps", 4));
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};

  auto& trace = telemetry::TraceRecorder::global();
  trace.set_process_name(0, "lmo-runtime");
  trace.set_process_name(parallel::kParallelTracePid, "lmo-adaptive");
  trace.enable();
  runtime::Generator generator(config);
  const auto result = generator.generate(prompts, gen_len);
  trace.disable();
  trace.save(out);

  std::printf("wrote %zu span events to %s (open in chrome://tracing or "
              "https://ui.perfetto.dev)\n",
              trace.event_count(), out.c_str());
  std::printf("run: %.1f tok/s, %llu fetches, %llu staging hits\n",
              result.tokens_per_second,
              static_cast<unsigned long long>(result.offload.fetches),
              static_cast<unsigned long long>(result.offload.staging_hits));
  if (config.adaptive.enabled) {
    auto& reg = generator.manager().metrics();
    std::printf("adaptive parallelism: %llu attempts, %llu applied, %llu "
                "reverted, %llu held | calibrated copy bw %.2f GB/s/thread\n",
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.attempts").value()),
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.applied").value()),
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.reverted").value()),
                static_cast<unsigned long long>(
                    reg.counter("parallel.replan.held").value()),
                reg.gauge("parallel.calibration.copy_bw").value() / 1e9);
  }

  save_metrics(args, generator.manager().metrics(), "offload");
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.get_int("runtime", 0) != 0) return cmd_trace_runtime(args);
  const auto spec = model::ModelSpec::by_name(args.get("model", "opt-30b"));
  model::Workload workload = load_workload(args);
  workload.gen_len = std::min<std::int64_t>(workload.gen_len, 8);
  const auto platform = load_platform(args);
  const std::string out = args.get("out", "lmo_trace.json");

  const auto report = core::LMOffload::run(spec, workload, platform);
  sim::save_chrome_trace(report.run, out);
  std::printf("wrote %zu tasks to %s (open in chrome://tracing)\n",
              report.run.tasks.size(), out.c_str());

  telemetry::MetricsRegistry registry;
  sim::export_metrics(report.run, registry);
  save_metrics(args, registry, "predicted-run");
  return 0;
}

/// One verb: its handler and every option it reads (space-separated).
struct Verb {
  const char* name;
  int (*run)(const Args&);
  std::string options;

  bool takes(const std::string& option) const {
    return (" " + options + " ").find(" " + option + " ") != std::string::npos;
  }
};

const std::vector<Verb>& verbs() {
  const std::string workload = "model prompt len batch batches bls";
  static const std::vector<Verb> table = {
      {"plan", cmd_plan, workload + " platform auto-block save"},
      {"compare", cmd_compare, workload + " platform plan"},
      {"sweep", cmd_sweep, "model platform"},
      {"decide", cmd_decide, workload + " platform wg attn bits"},
      {"calibrate", cmd_calibrate, "obs platform"},
      {"graph", cmd_graph, workload + " kv-bits out"},
      {"serve", cmd_serve,
       "model platform trace templates rate template-tokens requests plan "
       "max-batch chunk batching prefix-share kv-block-tokens deadline "
       "retries admission max-queue kv-pool-mb adaptive window-steps verify "
       "verify-sample ckpt-interval corrupt trace-out metrics-out"},
      {"chaos", cmd_chaos, "profile metrics-out"},
      {"trace", cmd_trace,
       workload + " platform runtime out adaptive window-steps metrics-out"},
      {"checkpoint", cmd_checkpoint, "verify out len at window"},
      {"resume", cmd_resume, "from metrics-out"},
      {"recover", cmd_recover, "dir metrics-out"},
      {"models", cmd_models, ""},
  };
  return table;
}

int usage() {
  std::fprintf(stderr, "usage: lmo <verb> [--option value ...]\n");
  for (const Verb& verb : verbs()) {
    std::string flags;
    for (char c : " " + verb.options) {
      flags += c == ' ' ? std::string(" --") : std::string(1, c);
    }
    std::fprintf(stderr, "  %-10s%s\n", verb.name,
                 verb.options.empty() ? " (no options)" : flags.c_str());
  }
  std::fprintf(
      stderr,
      "platform presets: a100-single, v100-quad, h100-single, "
      "rtx4090-desktop (or a key=value platform config file)\n"
      "chaos --profile NAME runs one drill and exits 0 when every invariant "
      "holds:\n");
  for (const auto& drill : chaos::drills()) {
    std::fprintf(stderr, "  %-22s %s\n", drill.name.c_str(),
                 drill.summary.c_str());
  }
  std::fprintf(
      stderr,
      "serve: --prefix-share 1 shares prompt KV across requests; "
      "--admission unbounded|fifo-reject|deadline-shed|token-budget with "
      "--kv-pool-mb N arms the degradation ladder; --verify "
      "off|sample|always --corrupt T:ID[,T:ID...] charges checksum time and "
      "repairs injected corruption; --adaptive 1 re-plans threads online\n"
      "checkpoint: snapshot a generation mid-decode, or validate a file "
      "with --verify FILE; resume --from FILE finishes it; recover --dir D "
      "restores a supervised run\n"
      "trace: predicted timeline by default; --runtime 1 records a real "
      "Generator run's spans\n"
      "--metrics-out FILE exports the run's metrics registry as JSON; serve "
      "--trace-out FILE captures request-lifecycle spans\n");
  return 2;
}

/// Exit 2 with `message` before anything runs.
int bad_option(const std::string& message) {
  std::fprintf(stderr, "error: %s (run lmo with no arguments for usage)\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  const Verb* verb = nullptr;
  for (const Verb& v : verbs()) {
    if (command == v.name) verb = &v;
  }
  if (verb == nullptr) return usage();

  Args args;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return bad_option("expected --option, got: " + flag);
    }
    if (!verb->takes(flag.substr(2))) {
      return bad_option("lmo " + command + " does not take " + flag);
    }
    if (i + 1 == argc) return bad_option("option " + flag + " needs a value");
    args.options[flag.substr(2)] = argv[i + 1];
  }
  try {
    return verb->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
