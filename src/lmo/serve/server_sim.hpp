// Step-level online-serving simulation over the offloading engine.
//
// The engine advances in decode steps (one token for every in-flight
// sequence per step, plus prefill work for newly admitted ones); the step
// duration comes from the same per-layer cost model the offline
// experiments use (Eq. 2 applied to the *current* batch composition).
// Two admission policies:
//   * static batching — wait for the running batch to fully drain, then
//     admit up to max_batch queued requests at once (FlexGen's offline
//     regime exposed to arrivals);
//   * continuous batching — admit queued requests at every step boundary
//     while capacity allows (the vLLM-style regime).
//
// Metrics are the latency quantities offline throughput hides: time to
// first token (TTFT) and end-to-end request latency percentiles.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "lmo/hw/platform.hpp"
#include "lmo/integrity/integrity.hpp"
#include "lmo/model/llm_config.hpp"
#include "lmo/overload/admission.hpp"
#include "lmo/parallel/adaptive_controller.hpp"
#include "lmo/overload/ladder.hpp"
#include "lmo/overload/watermark.hpp"
#include "lmo/perfmodel/policy.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"

namespace lmo::serve {

enum class Batching { kStatic, kContinuous };

/// A bandwidth-degradation interval: while the engine clock is inside
/// [begin, end), step durations are stretched by 1 / bandwidth_factor —
/// the cost-model analogue of a contended or flapping PCIe link.
struct FaultWindow {
  double begin = 0.0;
  double end = 0.0;
  double bandwidth_factor = 1.0;  ///< fraction of nominal speed, in (0, 1]
};

/// What a scheduled ServeEvent does to the engine.
enum class ServeEventKind {
  /// Request `request_id`'s offloaded KV rots. Verification detects it and
  /// rolls the session back (see ServeConfig::integrity); under verify=off
  /// it counts as undetected, the analogue of silent token divergence.
  kCorruption,
  /// The engine dies (the serving analogue of the lmo/recover kill -9
  /// drills), stalls recover_spill_bytes / recover_disk_gbps replaying the
  /// spill store and restoring checkpoints, and rolls every in-flight
  /// session back.
  kCrash,
};

/// A scheduled engine event. It fires at the first step boundary at or
/// after `at_seconds`; events due at one boundary fire in `at_seconds`
/// order, ties in list order. A rolled-back session drops its device KV,
/// keeps floor(generated / ckpt_interval_tokens) * ckpt_interval_tokens
/// tokens and re-enters through the swap-in path. A corruption event
/// naming a request that is neither in the batch nor suspended (queued,
/// finished or unknown) is inert under every verify policy.
struct ServeEvent {
  double at_seconds = 0.0;
  ServeEventKind kind = ServeEventKind::kCorruption;
  std::int64_t request_id = -1;  ///< kCorruption only
};

/// Overload protection for the serving engine: a modelled KV memory pool
/// with pressure watermarks drives the degradation ladder — under
/// sustained pressure the server escalates shrink-cache -> demote-kv ->
/// preempt -> shed, one rung at a time, and de-escalates hysteretically on
/// recovery. Every transition lands as a typed overload.* metric and a
/// "serve.overload" trace span. See docs/robustness.md.
struct OverloadConfig {
  bool enabled = false;
  /// Capacity of the modelled KV pool all in-flight private KV (and, with
  /// prefix sharing on, the shared block store) is charged against.
  /// Required > 0 when enabled.
  std::size_t kv_pool_bytes = 0;
  overload::WatermarkConfig watermarks;
  overload::LadderConfig ladder;
  /// Rung >= demote-kv: new sessions are admitted with this KV bit-width
  /// (accounting model of the quantized KV flavor). Clamped to the
  /// policy's kv_bits — demotion never *widens* KV.
  int demoted_kv_bits = 4;
  /// Rung >= shrink-cache: the prefix cache is evicted down to this
  /// fraction of its budget (prefix_cache_bytes when set, else the KV
  /// pool capacity).
  double shrink_cache_fraction = 0.5;

  void validate() const;
};

struct ServeConfig {
  std::int64_t max_batch = 32;  ///< engine capacity, sequences
  Batching batching = Batching::kContinuous;
  /// Chunked prefill (Sarathi-style): 0 = prefill a request's whole prompt
  /// at admission, stalling in-flight decodes for its duration; > 0 = feed
  /// at most this many prompt tokens per request per engine step,
  /// piggybacked on the decode steps, so running requests keep emitting
  /// tokens while newcomers warm up.
  std::int64_t prefill_chunk = 0;

  /// Per-attempt SLO: a request whose attempt has been in the system
  /// longer than this is aborted (and possibly retried). 0 disables.
  double deadline_seconds = 0.0;
  /// Re-admissions allowed after a deadline abort (client-resubmit model;
  /// each retry restarts the attempt clock at the abort time).
  int max_retries = 0;
  /// Bandwidth-degradation intervals applied to the step cost model.
  std::vector<FaultWindow> fault_windows;

  /// Swap-based preemption (continuous batching only). With the engine
  /// full and the head of the queue waiting longer than
  /// preempt_wait_seconds, the lowest-priority decoding request (ties: the
  /// most remaining work) is swapped out: its KV cache is checkpointed to
  /// host memory at device→host bandwidth cost, the slot goes to the
  /// waiter, and the victim is re-admitted later (KV restored at
  /// host→device cost), resuming exactly where it stopped — never aborted,
  /// never recomputed.
  bool preempt = false;
  double preempt_wait_seconds = 0.0;
  /// Swap-out ceiling per request, bounding ping-pong thrash.
  int max_preemptions_per_request = 2;

  /// Cross-request KV prefix sharing (the kvshare radix tree, in
  /// accounting-only mode). At admission a request's prompt_tokens are
  /// matched against previously served prompts: the prefill cost covers
  /// only the unmatched suffix (TTFT drops on hits), preemption swaps move
  /// only the private KV tail (shared blocks are reference-dropped, not
  /// copied), and kvshare.* metrics land in the run's registry. Requests
  /// without prompt_tokens never match.
  bool prefix_share = false;
  std::int64_t kv_block_tokens = 16;  ///< tokens per shared block
  /// Modelled byte budget of the shared block store (drives LRU eviction);
  /// 0 = unbounded.
  std::size_t prefix_cache_bytes = 0;

  /// Bounded admission: wait-queue bound enforced by `admission` (0 only
  /// with kUnbounded; a zero bound with shedding enabled is a config
  /// error). Arrivals and deadline-abort retries both pass through the
  /// admission controller.
  std::size_t max_queue = 0;
  overload::AdmissionPolicy admission =
      overload::AdmissionPolicy::kUnbounded;
  OverloadConfig overload;

  /// Online adaptive parallelism control (paper Algorithm 3, closed-loop):
  /// the engine seeds an AdaptiveController with the policy's believed
  /// thread allocation, observes each window's simulated task spans under
  /// the *effective* link bandwidth (fault windows included), and scales
  /// step durations by how close the re-planned allocation gets to the
  /// believed optimum. Deterministic: decisions depend only on the
  /// modelled spans. parallel.* metrics/spans land in the run's registry
  /// and trace.
  parallel::AdaptiveConfig adaptive;

  /// End-to-end integrity on the serving path (accounting model). With
  /// verification on, every decode step is charged the checksum time for
  /// the bytes it fetches from host storage (offloaded weight stream +
  /// at-rest KV of decoding sequences) at integrity.checksum_gbps, scaled
  /// by the policy's sampling fraction — verify=off charges exactly zero.
  /// Detected corruption repairs by checkpoint rollback: the session's
  /// generated count rolls back to the last ckpt_interval_tokens multiple,
  /// its (corrupt) KV charge is dropped, and it re-enters through the
  /// swap-in path — restoring checkpointed KV at link cost — then re-
  /// decodes the lost tail. integrity.* counters account every event.
  integrity::IntegrityConfig integrity;
  /// Scheduled corruption and crash events (see ServeEvent).
  std::vector<ServeEvent> events;
  /// Checkpoint cadence every rollback rounds down to, in generated tokens.
  std::int64_t ckpt_interval_tokens = 32;

  /// Crash recovery stall: WAL replay + checkpoint restore of
  /// `recover_spill_bytes` at `recover_disk_gbps` (GB/s, > 0 when a crash
  /// is scheduled).
  double recover_disk_gbps = 1.0;
  std::size_t recover_spill_bytes = 0;

  void validate() const;
};

struct RequestOutcome {
  std::int64_t id = 0;
  double ttft = 0.0;     ///< first token emitted − arrival (0 if none)
  double latency = 0.0;  ///< last token / abort − original arrival
  std::int64_t tokens = 0;
  int attempts = 1;          ///< 1 + re-admissions consumed
  int preemptions = 0;       ///< swap-outs suffered (always resumed)
  bool completed = true;     ///< produced its full gen_len
  bool met_deadline = true;  ///< completed within the SLO (true when no SLO)
  /// Refused or dropped by overload protection (bounded admission, the
  /// shed rung, or an unservable KV footprint) — never completed.
  bool shed = false;
};

/// Snapshot view of the serving run's "serve.*" telemetry (see
/// docs/observability.md for the field ↔ metric mapping). A
/// default-constructed ServeMetrics describes *no trace*, so ratio fields
/// are NaN — a zero-request run must read as "no data", never as a perfect
/// 100% SLO.
struct ServeMetrics {
  double duration = 0.0;            ///< makespan of the whole trace
  double token_throughput = 0.0;    ///< generated tokens / duration
  double request_throughput = 0.0;  ///< completed requests / duration
  double goodput = 0.0;             ///< tokens of SLO-met requests / duration
  /// SLO-met completions / duration — the goodput currency the overload
  /// bench compares admission policies in (requests, not tokens).
  double request_goodput = 0.0;
  /// SLO-met completions / requests; NaN until a request was observed.
  double slo_attainment = std::numeric_limits<double>::quiet_NaN();
  double ttft_p50 = 0.0;
  double ttft_p95 = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double mean_batch_occupancy = 0.0;  ///< time-averaged in-flight sequences
  std::size_t completed = 0;
  std::size_t deadline_misses = 0;  ///< aborted attempts
  std::size_t retries = 0;          ///< re-admissions after aborts
  std::size_t preemptions = 0;      ///< swap-outs across all requests
  /// Swap-ins: re-entries from the suspended queue after a preemption, a
  /// corruption rollback or a crash. A session shed at re-admission never
  /// resumes.
  std::size_t preempt_resumes = 0;
  double preempt_swap_seconds = 0.0;  ///< engine time spent swapping KV
  /// Prompt tokens actually pushed through prefill (drops on prefix hits).
  std::uint64_t prefill_tokens = 0;
  double kv_swap_bytes = 0.0;  ///< KV bytes moved by preemption swaps
  /// kvshare.* reads (0 unless config.prefix_share).
  std::uint64_t prefix_hit_tokens = 0;
  std::uint64_t prefix_miss_tokens = 0;
  std::uint64_t prefix_evicted_blocks = 0;
  double prefix_bytes_saved = 0.0;
  /// overload.* reads (0 unless bounded admission / overload enabled).
  std::size_t shed = 0;      ///< queued or in-flight work dropped
  std::size_t rejected = 0;  ///< arrivals refused outright at admission
  std::size_t overload_escalations = 0;
  std::size_t overload_deescalations = 0;
  /// Ladder rung-3 swap-outs (counted inside `preemptions` too).
  std::size_t overload_preemptions = 0;
  std::size_t demoted_sessions = 0;  ///< admitted with quantized KV
  /// integrity.* reads (0 unless config.integrity / corruption events).
  std::size_t corruption_detected = 0;    ///< events caught by verification
  std::size_t corruption_undetected = 0;  ///< events missed (verify off)
  std::uint64_t rollback_tokens = 0;  ///< re-decoded after ckpt rollback
  double verify_seconds = 0.0;        ///< engine time spent checksumming
  /// serve.crash.* reads (0 unless a crash event fired).
  std::size_t crashes = 0;                 ///< engine crash/recover cycles
  double crash_recovery_seconds = 0.0;     ///< stall paid replaying/restoring
  std::uint64_t crash_rolled_back_tokens = 0;  ///< re-decoded after crashes
  std::vector<RequestOutcome> outcomes;  ///< per request, by id order
};

/// Simulate serving `requests` (sorted by arrival) on one engine running
/// `policy` on `platform`. Deterministic.
///
/// Telemetry: the run records into a "serve.*" metrics namespace and the
/// returned ServeMetrics is materialized from those registry reads. Pass
/// `metrics_out` (must be fresh — no prior "serve.*" entries) to keep the
/// registry for export; pass `trace` (enabled) to capture per-request
/// lifecycle spans and fault windows on the engine timeline (pid
/// kServeTracePid, tid = request id + 1).
ServeMetrics simulate_serving(const model::ModelSpec& spec,
                              const perfmodel::Policy& policy,
                              const hw::Platform& platform,
                              const std::vector<Request>& requests,
                              const ServeConfig& config,
                              telemetry::MetricsRegistry* metrics_out = nullptr,
                              telemetry::TraceRecorder* trace = nullptr);

/// Trace "process" id the serving engine emits events under.
inline constexpr int kServeTracePid = 1;

}  // namespace lmo::serve
