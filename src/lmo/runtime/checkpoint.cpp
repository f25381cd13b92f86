#include "lmo/runtime/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <set>

#include "lmo/ckpt/format.hpp"
#include "lmo/ckpt/tensor_codec.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

void encode_i64_vec(ckpt::ByteWriter& writer,
                    const std::vector<std::int64_t>& values) {
  writer.u64(values.size());
  for (std::int64_t v : values) writer.i64(v);
}

/// Read a u64 element count and reject it before anything is allocated when
/// the remaining payload cannot hold `min_bytes` per element — a hostile
/// count must surface as CheckpointCorrupt, not length_error / bad_alloc.
std::uint64_t read_count(ckpt::ByteReader& reader, std::size_t min_bytes,
                         const char* what) {
  const std::uint64_t count = reader.u64();
  if (count > reader.remaining() / min_bytes) {
    throw util::CheckpointCorrupt(
        std::string("checkpoint ") + what + " count " + std::to_string(count) +
        " exceeds the " + std::to_string(reader.remaining()) +
        " payload bytes left");
  }
  return count;
}

std::vector<std::int64_t> decode_i64_vec(ckpt::ByteReader& reader) {
  const std::uint64_t count = read_count(reader, sizeof(std::int64_t), "token");
  std::vector<std::int64_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(reader.i64());
  return values;
}

void encode_fault_states(ckpt::ByteWriter& writer) {
  const std::vector<util::FaultSiteState> states =
      util::FaultInjector::instance().site_states();
  writer.u64(states.size());
  for (const util::FaultSiteState& s : states) {
    writer.string(s.site);
    writer.i64(s.ops);
    writer.i64(s.failures);
    writer.i64(s.allocs_denied);
    writer.u64(s.draws);
  }
}

std::vector<util::FaultSiteState> decode_fault_states(
    ckpt::ByteReader& reader) {
  // Each state holds at least a string length prefix and four 8-byte
  // counters.
  const std::uint64_t count = read_count(reader, 5 * 8, "fault-site state");
  std::vector<util::FaultSiteState> states;
  states.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    util::FaultSiteState s;
    s.site = reader.string();
    s.ops = reader.i64();
    s.failures = reader.i64();
    s.allocs_denied = reader.i64();
    s.draws = reader.u64();
    states.push_back(std::move(s));
  }
  return states;
}

/// Restore whatever saved sites are still armed; saved sites the current
/// process has not armed are skipped (the caller chose a different chaos
/// profile — that is their prerogative, not corruption).
void apply_fault_states(const std::vector<util::FaultSiteState>& states) {
  auto& injector = util::FaultInjector::instance();
  if (!injector.enabled()) return;
  std::set<std::string> armed;
  for (const auto& s : injector.site_states()) armed.insert(s.site);
  for (const auto& s : states) {
    if (armed.count(s.site) != 0) injector.restore_site_state(s);
  }
}

}  // namespace

void encode_runtime_config(ckpt::ByteWriter& writer,
                           const RuntimeConfig& config) {
  const model::ModelSpec& spec = config.spec;
  writer.string(spec.name);
  writer.i64(spec.num_layers);
  writer.i64(spec.hidden);
  writer.i64(spec.mlp_hidden);
  writer.i64(spec.num_heads);
  writer.i64(spec.vocab);
  writer.u8(static_cast<std::uint8_t>(spec.mlp_matrices));
  writer.u8(static_cast<std::uint8_t>(spec.activation));

  writer.i64(config.device_layers);
  writer.u8(static_cast<std::uint8_t>(config.weight_bits));
  writer.u8(static_cast<std::uint8_t>(config.kv_bits));
  writer.i64(config.quant_group);
  writer.u64(config.device_capacity);
  writer.u64(config.host_capacity);
  // Disk-tier fingerprint (format v3): disk_layers and capacity change the
  // transfer schedule and fault-site draw order, so resuming under a
  // different disk shape must be a CheckpointMismatch. spill_path stays
  // out — it names *where* the store lives, not how generation behaves.
  writer.i64(config.disk_layers);
  writer.u64(config.disk_capacity);
  writer.u64(config.spill_block_bytes);
  writer.i64(config.window_tokens);
  writer.u8(config.prefix_share ? 1 : 0);
  writer.i64(config.kv_block_tokens);
  writer.i64(config.prefetch_threads);
  writer.i64(config.recovery.max_transfer_attempts);
  writer.f64(config.recovery.retry_backoff_seconds);
  writer.f64(config.recovery.prefetch_wait_seconds);
  writer.u8(config.recovery.allow_degradation ? 1 : 0);
  writer.i64(config.compute_threads);
  writer.u64(config.seed);
  writer.f64(config.sampling.temperature);
  writer.i64(config.sampling.top_k);
  writer.f64(config.sampling.top_p);
  writer.u64(config.sampling.seed);
}

RuntimeConfig decode_runtime_config(ckpt::ByteReader& reader) {
  RuntimeConfig config;
  model::ModelSpec& spec = config.spec;
  spec.name = reader.string();
  spec.num_layers = reader.i64();
  spec.hidden = reader.i64();
  spec.mlp_hidden = reader.i64();
  spec.num_heads = reader.i64();
  spec.vocab = reader.i64();
  spec.mlp_matrices = reader.u8();
  const std::uint8_t activation = reader.u8();
  if (activation > static_cast<std::uint8_t>(model::Activation::kSilu)) {
    throw util::CheckpointCorrupt("checkpoint has unknown activation tag " +
                                  std::to_string(activation));
  }
  spec.activation = static_cast<model::Activation>(activation);

  config.device_layers = reader.i64();
  config.weight_bits = reader.u8();
  config.kv_bits = reader.u8();
  config.quant_group = reader.i64();
  config.device_capacity = static_cast<std::size_t>(reader.u64());
  config.host_capacity = static_cast<std::size_t>(reader.u64());
  config.disk_layers = reader.i64();
  config.disk_capacity = static_cast<std::size_t>(reader.u64());
  config.spill_block_bytes = static_cast<std::size_t>(reader.u64());
  config.window_tokens = reader.i64();
  config.prefix_share = reader.u8() != 0;
  config.kv_block_tokens = reader.i64();
  config.prefetch_threads = static_cast<int>(reader.i64());
  config.recovery.max_transfer_attempts = static_cast<int>(reader.i64());
  config.recovery.retry_backoff_seconds = reader.f64();
  config.recovery.prefetch_wait_seconds = reader.f64();
  config.recovery.allow_degradation = reader.u8() != 0;
  config.compute_threads = static_cast<int>(reader.i64());
  config.seed = reader.u64();
  config.sampling.temperature = reader.f64();
  config.sampling.top_k = static_cast<int>(reader.i64());
  config.sampling.top_p = reader.f64();
  config.sampling.seed = reader.u64();
  return config;
}

bool runtime_config_equal(const RuntimeConfig& a, const RuntimeConfig& b) {
  return a.spec.name == b.spec.name &&
         a.spec.num_layers == b.spec.num_layers &&
         a.spec.hidden == b.spec.hidden &&
         a.spec.mlp_hidden == b.spec.mlp_hidden &&
         a.spec.num_heads == b.spec.num_heads &&
         a.spec.vocab == b.spec.vocab &&
         a.spec.mlp_matrices == b.spec.mlp_matrices &&
         a.spec.activation == b.spec.activation &&
         a.device_layers == b.device_layers &&
         a.weight_bits == b.weight_bits && a.kv_bits == b.kv_bits &&
         a.quant_group == b.quant_group &&
         a.device_capacity == b.device_capacity &&
         a.host_capacity == b.host_capacity &&
         a.disk_layers == b.disk_layers &&
         a.disk_capacity == b.disk_capacity &&
         a.spill_block_bytes == b.spill_block_bytes &&
         a.window_tokens == b.window_tokens &&
         a.prefix_share == b.prefix_share &&
         a.kv_block_tokens == b.kv_block_tokens &&
         a.prefetch_threads == b.prefetch_threads &&
         a.recovery.max_transfer_attempts ==
             b.recovery.max_transfer_attempts &&
         a.recovery.retry_backoff_seconds ==
             b.recovery.retry_backoff_seconds &&
         a.recovery.prefetch_wait_seconds ==
             b.recovery.prefetch_wait_seconds &&
         a.recovery.allow_degradation == b.recovery.allow_degradation &&
         a.compute_threads == b.compute_threads && a.seed == b.seed &&
         a.sampling.temperature == b.sampling.temperature &&
         a.sampling.top_k == b.sampling.top_k &&
         a.sampling.top_p == b.sampling.top_p &&
         a.sampling.seed == b.sampling.seed;
}

void encode_kv_cache(ckpt::ByteWriter& writer, const KVCache& cache) {
  writer.i64(cache.hidden());
  writer.u8(static_cast<std::uint8_t>(cache.bits()));
  writer.i64(cache.group_size());
  writer.i64(cache.first_row());
  writer.u64(static_cast<std::uint64_t>(cache.length()));
  for (const bool key : {true, false}) {
    for (std::int64_t i = 0; i < cache.length(); ++i) {
      const KVCache::RowView row = cache.row(key, i);
      if (row.quantized != nullptr) {
        ckpt::encode_quantized(writer, *row.quantized);
      } else {
        writer.f32_array(row.plain);
      }
    }
  }
}

void decode_kv_cache(ckpt::ByteReader& reader, KVCache& cache) {
  const std::int64_t hidden = reader.i64();
  const int bits = reader.u8();
  const std::int64_t group = reader.i64();
  const std::int64_t first = reader.i64();
  if (hidden != cache.hidden() || bits != cache.bits() ||
      group != cache.group_size()) {
    throw util::CheckpointCorrupt(
        "KV checkpoint geometry (hidden " + std::to_string(hidden) +
        ", bits " + std::to_string(bits) + ", group " + std::to_string(group) +
        ") does not match the cache (hidden " +
        std::to_string(cache.hidden()) + ", bits " +
        std::to_string(cache.bits()) + ", group " +
        std::to_string(cache.group_size()) + ")");
  }
  // Positions count appended tokens, so any real sequence sits far below
  // this bound; it keeps position arithmetic clear of overflow.
  constexpr std::int64_t kMaxFirstRow = std::int64_t{1} << 48;
  if (first < 0 || first > kMaxFirstRow) {
    throw util::CheckpointCorrupt("KV checkpoint first row " +
                                  std::to_string(first) + " is out of range");
  }
  // Every row holds at least an 8-byte length prefix, K and V each.
  const std::uint64_t length = read_count(reader, 2 * 8, "KV row");
  const auto decode_rows = [&] {
    std::vector<KVCache::Row> rows(static_cast<std::size_t>(length));
    for (KVCache::Row& row : rows) {
      if (bits == 16) {
        row.plain = reader.f32_array();
      } else {
        row.quantized = ckpt::decode_quantized(reader);
      }
    }
    return rows;
  };
  std::vector<KVCache::Row> k = decode_rows();
  std::vector<KVCache::Row> v = decode_rows();
  try {
    cache.restore(first, std::move(k), std::move(v));
  } catch (const util::CheckError& e) {
    throw util::CheckpointCorrupt(
        std::string("KV checkpoint is inconsistent: ") + e.what());
  }
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  const std::vector<std::byte> payload =
      ckpt::read_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState);
  ckpt::ByteReader reader(payload);
  CheckpointMeta meta;
  meta.config = decode_runtime_config(reader);
  meta.num_sequences = static_cast<std::size_t>(reader.u64());
  meta.gen_len = reader.i64();
  meta.produced = reader.i64();
  return meta;
}

std::size_t Generator::snapshot(const std::string& path) {
  LMO_CHECK_MSG(session_ != nullptr, "no active session to snapshot");
  auto& trace = telemetry::TraceRecorder::global();
  telemetry::ScopedSpan span(trace, "ckpt.snapshot", "checkpoint");

  // Barrier: no prefetch may be mid-transfer while we serialize, or the
  // staging set captured implicitly by the fault-site draw counts would
  // not match what the resumed process rebuilds.
  const std::size_t waited = manager_->quiesce();

  const Session& session = *session_;
  ckpt::ByteWriter writer;
  encode_runtime_config(writer, config_);
  writer.u64(session.prompts.size());
  writer.i64(session.gen_len);
  writer.i64(session.produced);
  writer.f64(session.prefill_seconds);
  writer.f64(session.decode_seconds);
  for (std::size_t s = 0; s < session.prompts.size(); ++s) {
    encode_i64_vec(writer, session.prompts[s]);
    encode_i64_vec(writer, session.tokens[s]);
    writer.i64(session.next[s]);
  }
  const auto rng_state = sampling_rng_.state();
  for (std::uint64_t word : rng_state) writer.u64(word);
  encode_fault_states(writer);
  for (const SequenceCache& cache : session.caches) {
    for (const KVCache& layer_cache : cache) {
      encode_kv_cache(writer, layer_cache);
    }
  }

  const std::vector<std::byte> payload = writer.take();
  ckpt::write_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState,
                              payload);

  auto& metrics = manager_->metrics();
  metrics.counter("ckpt.snapshot.total").add();
  metrics.gauge("ckpt.snapshot.bytes").add(static_cast<double>(payload.size()));
  metrics.counter("ckpt.quiesce.waited_transfers")
      .add(static_cast<std::uint64_t>(waited));
  return payload.size();
}

void Generator::resume(const std::string& path) {
  LMO_CHECK_MSG(session_ == nullptr,
                "cannot resume while a session is active");
  auto& trace = telemetry::TraceRecorder::global();
  telemetry::ScopedSpan span(trace, "ckpt.restore", "checkpoint");

  const std::vector<std::byte> payload =
      ckpt::read_checkpoint_file(path, ckpt::PayloadKind::kGeneratorState);
  ckpt::ByteReader reader(payload);

  const RuntimeConfig saved = decode_runtime_config(reader);
  if (!runtime_config_equal(saved, config_)) {
    throw util::CheckpointMismatch(
        path + ": checkpoint config fingerprint does not match this "
               "generator (model/quantization/KV/seed settings differ)");
  }

  auto session = std::make_unique<Session>();
  const std::uint64_t num_sequences = reader.u64();
  if (num_sequences == 0) {
    throw util::CheckpointCorrupt(path + ": checkpoint has zero sequences");
  }
  session->gen_len = reader.i64();
  session->produced = reader.i64();
  session->prefill_seconds = reader.f64();
  session->decode_seconds = reader.f64();
  if (session->gen_len <= 0 || session->produced <= 0 ||
      session->produced > session->gen_len) {
    throw util::CheckpointCorrupt(path +
                                  ": checkpoint progress is inconsistent");
  }
  for (std::uint64_t s = 0; s < num_sequences; ++s) {
    session->prompts.push_back(decode_i64_vec(reader));
    session->tokens.push_back(decode_i64_vec(reader));
    session->next.push_back(reader.i64());
    if (session->prompts.back().empty() ||
        static_cast<std::int64_t>(session->tokens.back().size()) !=
            session->produced) {
      throw util::CheckpointCorrupt(
          path + ": sequence " + std::to_string(s) +
          " token progress does not match the produced counter");
    }
  }

  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  const std::vector<util::FaultSiteState> fault_states =
      decode_fault_states(reader);

  for (std::uint64_t s = 0; s < num_sequences; ++s) {
    // Restored caches are built exactly like a fresh session's (integrity
    // attached, so rows are re-fingerprinted), minus the prefix match:
    // borrowed rows come back as private rows.
    std::int64_t matched = 0;
    SequenceCache cache = make_sequence_cache({}, matched);
    // Every prompt token and every produced token but the pending `next`
    // has been appended.
    const std::int64_t appended =
        static_cast<std::int64_t>(session->prompts[s].size()) +
        session->produced - 1;
    for (KVCache& layer_cache : cache) {
      decode_kv_cache(reader, layer_cache);
      if (layer_cache.first_row() + layer_cache.length() != appended) {
        throw util::CheckpointCorrupt(
            path + ": sequence " + std::to_string(s) +
            " KV rows do not match its token history");
      }
    }
    session->caches.push_back(std::move(cache));
  }
  if (!reader.exhausted()) {
    throw util::CheckpointCorrupt(
        path + ": " + std::to_string(reader.remaining()) +
        " trailing bytes after the generator state");
  }

  // All-or-nothing: mutate the generator only after the full payload
  // decoded cleanly, so a corrupt file never leaves a half-restored
  // session behind.
  sampling_rng_.set_state(rng_state);
  apply_fault_states(fault_states);
  for (auto& c : session->caches) session->cache_ptrs.push_back(&c);
  session_ = std::move(session);

  auto& metrics = manager_->metrics();
  metrics.counter("ckpt.restore.total").add();
  metrics.gauge("ckpt.restore.bytes").add(static_cast<double>(payload.size()));
}

}  // namespace lmo::runtime
