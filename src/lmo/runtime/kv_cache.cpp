#include "lmo/runtime/kv_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

// Bit-flip injection on private KV rows as they are read back for
// attention.
constexpr const char* kKvFlipSite = "integrity.kv.flip";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::span<const std::byte> payload_bytes(const tensor::QuantizedTensor& q) {
  return std::as_bytes(
      std::span<const std::uint8_t>(q.payload().data(), q.payload().size()));
}

std::span<const std::byte> float_bytes(const float* data, std::int64_t n) {
  return std::as_bytes(
      std::span<const float>(data, static_cast<std::size_t>(n)));
}

std::size_t row_bytes(const KVCache::Row& row) {
  return row.quantized.defined() ? row.quantized.byte_size()
                                 : row.plain.size() * sizeof(float);
}

/// A copy of `q` with bit `flip` of its payload inverted — the "wire" copy
/// a bit-rot fault would deliver. The stored row is never mutated.
tensor::QuantizedTensor flip_payload(const tensor::QuantizedTensor& q,
                                     std::int64_t flip) {
  std::vector<std::uint8_t> payload = q.payload();
  payload[static_cast<std::size_t>(flip / 8)] ^=
      static_cast<std::uint8_t>(1u << (flip % 8));
  return tensor::QuantizedTensor::from_parts(
      q.original_shape(), tensor::QuantConfig{q.bits(), q.group_size()},
      q.padded_numel(), std::move(payload), q.group_min(), q.group_scale());
}

}  // namespace

std::size_t kv_bytes_per_token(std::int64_t hidden, int bits) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(2.0 * static_cast<double>(hidden) *
                                  (static_cast<double>(bits) / 8.0)));
}

KVCache::KVCache(std::int64_t hidden, int bits, std::int64_t group_size,
                 MemoryPool& pool, std::int64_t block_tokens,
                 std::int64_t window_tokens)
    : hidden_(hidden),
      bits_(bits),
      group_size_(group_size),
      block_tokens_(block_tokens),
      window_tokens_(window_tokens),
      pool_(&pool) {
  LMO_CHECK_GT(hidden, 0);
  LMO_CHECK(bits == 16 || bits == 8 || bits == 4);
  LMO_CHECK_GT(group_size, 0);
  LMO_CHECK_GT(block_tokens, 0);
  LMO_CHECK_GE(window_tokens, 0);
  LMO_CHECK_MSG(window_tokens == 0 || bits == 16,
                "windowed KV caches store f32 rows; bits must be 16");
}

KVCache::~KVCache() { release(stored_bytes_); }

KVCache::KVCache(KVCache&& other) noexcept
    : hidden_(other.hidden_),
      bits_(other.bits_),
      group_size_(other.group_size_),
      block_tokens_(other.block_tokens_),
      window_tokens_(other.window_tokens_),
      pool_(other.pool_),
      blocks_(std::move(other.blocks_)),
      lease_(std::move(other.lease_)),
      borrowed_(std::exchange(other.borrowed_, 0)),
      base_(std::exchange(other.base_, 0)),
      first_(std::exchange(other.first_, 0)),
      length_(std::exchange(other.length_, 0)),
      stored_bytes_(std::exchange(other.stored_bytes_, 0)),
      quantize_seconds_(other.quantize_seconds_),
      dequantize_seconds_(other.dequantize_seconds_),
      integrity_(other.integrity_),
      region_(std::move(other.region_)) {
  other.blocks_.clear();
}

void KVCache::release(std::size_t bytes) {
  if (pool_ != nullptr && bytes > 0) pool_->release(bytes);
  stored_bytes_ -= bytes;
}

bool KVCache::verifying() const {
  return integrity_ != nullptr && integrity_->enabled();
}

void KVCache::set_integrity(integrity::ChecksumRegistry* registry,
                            std::string region) {
  LMO_CHECK_MSG(blocks_.empty(),
                "set_integrity must precede appends so every row gets a "
                "fingerprint");
  integrity_ = registry;
  region_ = std::move(region);
}

void KVCache::borrow(std::shared_ptr<kvshare::PrefixLease> lease,
                     std::int64_t layer, std::int64_t tokens) {
  LMO_CHECK(lease != nullptr);
  LMO_CHECK_MSG(blocks_.empty(), "borrow requires an empty cache");
  LMO_CHECK_MSG(bits_ == 16 && window_tokens_ == 0,
                "borrowed rows are f32 and never slide out of a window");
  LMO_CHECK_EQ(lease->matched_tokens(),
               static_cast<std::int64_t>(lease->blocks()) * block_tokens_);
  LMO_CHECK_GE(tokens, 0);
  LMO_CHECK_LE(tokens, lease->matched_tokens());
  LMO_CHECK_EQ(tokens % block_tokens_, 0);
  for (std::int64_t b = 0; b < tokens / block_tokens_; ++b) {
    Block block;
    block.borrowed_k = lease->k_plane(static_cast<std::size_t>(b), layer);
    block.borrowed_v = lease->v_plane(static_cast<std::size_t>(b), layer);
    LMO_CHECK_MSG(block.borrowed_k != nullptr,
                  "borrowing requires a materialized prefix cache");
    blocks_.push_back(block);
  }
  borrowed_ = blocks_.size();
  length_ = tokens;
  if (borrowed_ > 0) lease_ = std::move(lease);
}

void KVCache::push_row(Row k, Row v, std::size_t bytes) {
  const std::int64_t offset = first_ + length_ - base_;
  if (offset == static_cast<std::int64_t>(blocks_.size()) * block_tokens_) {
    Block& fresh = blocks_.emplace_back();
    const auto rows = static_cast<std::size_t>(block_tokens_);
    if (bits_ == 16) {
      fresh.k.reserve(rows * static_cast<std::size_t>(hidden_));
      fresh.v.reserve(rows * static_cast<std::size_t>(hidden_));
    } else {
      fresh.qk.reserve(rows);
      fresh.qv.reserve(rows);
    }
  }
  Block& block = blocks_.back();
  if (verifying()) {
    const auto crc = [](const Row& row) {
      return util::crc32(row.quantized.defined()
                             ? payload_bytes(row.quantized)
                             : float_bytes(row.plain.data(),
                                           static_cast<std::int64_t>(
                                               row.plain.size())));
    };
    block.k_crcs.push_back(crc(k));
    block.v_crcs.push_back(crc(v));
  }
  if (bits_ == 16) {
    block.k.insert(block.k.end(), k.plain.begin(), k.plain.end());
    block.v.insert(block.v.end(), v.plain.begin(), v.plain.end());
  } else {
    block.qk.push_back(std::move(k.quantized));
    block.qv.push_back(std::move(v.quantized));
  }
  block.bytes += bytes;
  stored_bytes_ += bytes;
  if (window_tokens_ > 0 && length_ == window_tokens_) {
    ++first_;
    drop_slid_blocks();
  } else {
    ++length_;
  }
}

void KVCache::append(const tensor::Tensor& k_row,
                     const tensor::Tensor& v_row) {
  LMO_CHECK_EQ(k_row.shape().rank(), 1u);
  LMO_CHECK_EQ(k_row.shape()[0], hidden_);
  LMO_CHECK(k_row.shape() == v_row.shape());
  Row k, v;
  if (bits_ == 16) {
    const auto ks = k_row.f32();
    const auto vs = v_row.f32();
    k.plain.assign(ks.begin(), ks.end());
    v.plain.assign(vs.begin(), vs.end());
  } else {
    const auto start = std::chrono::steady_clock::now();
    const tensor::QuantConfig config{bits_, group_size_};
    k.quantized = tensor::quantize(k_row, config);
    v.quantized = tensor::quantize(v_row, config);
    quantize_seconds_ += seconds_since(start);
  }
  // Charge before storing so a denied charge (pool pressure or fault
  // injection) leaves the cache untouched.
  const std::size_t bytes = row_bytes(k) + row_bytes(v);
  pool_->charge(bytes);
  push_row(std::move(k), std::move(v), bytes);
}

void KVCache::drop_slid_blocks() {
  while (!blocks_.empty() && base_ + block_tokens_ <= first_) {
    release(blocks_.front().bytes);
    if (blocks_.front().borrowed()) --borrowed_;
    blocks_.erase(blocks_.begin());
    base_ += block_tokens_;
  }
  if (borrowed_ == 0) lease_.reset();
}

void KVCache::read_private(const Block& block, bool key, std::int64_t slot,
                           std::int64_t position, float* dst) const {
  auto& injector = util::FaultInjector::instance();
  const bool inject = injector.enabled();
  const std::vector<std::uint32_t>& crcs = key ? block.k_crcs : block.v_crcs;
  const bool check =
      verifying() && !crcs.empty() &&
      integrity_->config().should_verify(static_cast<std::uint64_t>(position));
  const auto fail = [&] {
    // The stored row itself may be rot (not just the wire copy), so
    // re-reading cannot repair it; the Generator recomputes the cache from
    // the token history.
    throw util::DataCorruption(
        "KV row " + std::to_string(position) + " of " +
        (region_.empty() ? "<unnamed>" : region_) + " failed verification");
  };
  const std::uint32_t crc =
      check ? crcs[static_cast<std::size_t>(slot)] : 0;

  if (bits_ == 16) {
    const std::vector<float>& rows = key ? block.k : block.v;
    std::memcpy(dst, rows.data() + slot * hidden_,
                static_cast<std::size_t>(hidden_) * sizeof(float));
    // The read-back crosses the same fragile path the write took; model
    // bit rot on the output copy, never on the stored row.
    if (inject) {
      const std::int64_t flip = injector.corrupt_bit(
          kKvFlipSite, 8 * static_cast<std::uint64_t>(hidden_) * sizeof(float));
      if (flip >= 0) {
        reinterpret_cast<std::uint8_t*>(dst)[flip / 8] ^=
            static_cast<std::uint8_t>(1u << (flip % 8));
      }
    }
    if (check && !integrity_->verify_value(float_bytes(dst, hidden_), crc)) {
      fail();
    }
    return;
  }

  const tensor::QuantizedTensor& stored =
      (key ? block.qk : block.qv)[static_cast<std::size_t>(slot)];
  const tensor::QuantizedTensor* src = &stored;
  tensor::QuantizedTensor wire;
  if (inject) {
    // The flip domain is the fingerprinted payload — byte_size() also
    // counts quantization metadata the wire copy does not carry.
    const std::int64_t flip = injector.corrupt_bit(
        kKvFlipSite, 8 * static_cast<std::uint64_t>(stored.payload().size()));
    if (flip >= 0) {
      wire = flip_payload(stored, flip);
      src = &wire;
    }
  }
  if (check && !integrity_->verify_value(payload_bytes(*src), crc)) fail();
  tensor::dequantize_into(
      *src, std::span<float>(dst, static_cast<std::size_t>(hidden_)));
}

void KVCache::materialize(bool key, float* dst) const {
  const bool plain_copy = bits_ == 16 && !verifying() &&
                          !util::FaultInjector::instance().enabled();
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t end = first_ + length_;
  for (std::int64_t position = first_; position < end;) {
    const std::int64_t offset = position - base_;
    const Block& block =
        blocks_[static_cast<std::size_t>(offset / block_tokens_)];
    const std::int64_t slot = offset % block_tokens_;
    const std::int64_t rows = std::min(block_tokens_ - slot, end - position);
    const std::size_t run_bytes =
        static_cast<std::size_t>(rows * hidden_) * sizeof(float);
    if (block.borrowed()) {
      const float* plane = key ? block.borrowed_k : block.borrowed_v;
      std::memcpy(dst, plane + slot * hidden_, run_bytes);
    } else if (plain_copy) {
      const std::vector<float>& plane = key ? block.k : block.v;
      std::memcpy(dst, plane.data() + slot * hidden_, run_bytes);
    } else {
      for (std::int64_t r = 0; r < rows; ++r) {
        read_private(block, key, slot + r, position + r, dst + r * hidden_);
      }
    }
    position += rows;
    dst += rows * hidden_;
  }
  if (bits_ != 16) dequantize_seconds_ += seconds_since(start);
}

tensor::Tensor KVCache::keys() const {
  tensor::Tensor out = tensor::Tensor::zeros({length_, hidden_});
  materialize(true, out.f32().data());
  return out;
}

tensor::Tensor KVCache::values() const {
  tensor::Tensor out = tensor::Tensor::zeros({length_, hidden_});
  materialize(false, out.f32().data());
  return out;
}

KVCache::RowView KVCache::row(bool key, std::int64_t i) const {
  LMO_CHECK_GE(i, 0);
  LMO_CHECK_LT(i, length_);
  const std::int64_t offset = first_ + i - base_;
  const Block& block =
      blocks_[static_cast<std::size_t>(offset / block_tokens_)];
  const std::int64_t slot = offset % block_tokens_;
  RowView view;
  if (block.borrowed()) {
    view.plain = {(key ? block.borrowed_k : block.borrowed_v) + slot * hidden_,
                  static_cast<std::size_t>(hidden_)};
  } else if (bits_ == 16) {
    view.plain = {(key ? block.k : block.v).data() + slot * hidden_,
                  static_cast<std::size_t>(hidden_)};
  } else {
    view.quantized = &(key ? block.qk : block.qv)[static_cast<std::size_t>(slot)];
  }
  return view;
}

void KVCache::copy_row(bool key, std::int64_t i, float* dst) const {
  const RowView view = row(key, i);
  if (view.quantized != nullptr) {
    tensor::dequantize_into(
        *view.quantized, std::span<float>(dst, static_cast<std::size_t>(hidden_)));
  } else {
    std::memcpy(dst, view.plain.data(), view.plain.size_bytes());
  }
}

void KVCache::make_private(Block& block, std::int64_t rows) {
  // Copy-on-write: the surviving rows of a borrowed block move into a
  // private block; the shared planes are never written.
  const std::size_t floats = static_cast<std::size_t>(rows * hidden_);
  const std::size_t bytes = 2 * floats * sizeof(float);
  pool_->charge(bytes);
  Block copy;
  copy.k.assign(block.borrowed_k, block.borrowed_k + floats);
  copy.v.assign(block.borrowed_v, block.borrowed_v + floats);
  if (verifying()) {
    for (std::int64_t r = 0; r < rows; ++r) {
      copy.k_crcs.push_back(
          util::crc32(float_bytes(copy.k.data() + r * hidden_, hidden_)));
      copy.v_crcs.push_back(
          util::crc32(float_bytes(copy.v.data() + r * hidden_, hidden_)));
    }
  }
  copy.bytes = bytes;
  stored_bytes_ += bytes;
  block = std::move(copy);
  --borrowed_;
}

void KVCache::pop_rows(Block& block, std::int64_t keep) {
  const auto kept = static_cast<std::size_t>(keep);
  std::size_t freed = 0;
  if (bits_ == 16) {
    const std::size_t floats = kept * static_cast<std::size_t>(hidden_);
    freed = 2 * (block.k.size() - floats) * sizeof(float);
    block.k.resize(floats);
    block.v.resize(floats);
  } else {
    for (std::size_t r = kept; r < block.qk.size(); ++r) {
      freed += block.qk[r].byte_size() + block.qv[r].byte_size();
    }
    block.qk.resize(kept);
    block.qv.resize(kept);
  }
  if (!block.k_crcs.empty()) {
    block.k_crcs.resize(kept);
    block.v_crcs.resize(kept);
  }
  release(freed);
  block.bytes -= freed;
}

void KVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, length_);
  // Stored rows that survive: everything from the table's base up to the
  // new end. A window may hold slid-out rows ahead of first_; they go too
  // when no visible row is left.
  const std::int64_t keep = new_length == 0 ? 0 : first_ + new_length - base_;
  const auto needed =
      static_cast<std::size_t>((keep + block_tokens_ - 1) / block_tokens_);
  while (blocks_.size() > needed) {
    Block& last = blocks_.back();
    release(last.bytes);
    if (last.borrowed()) --borrowed_;
    blocks_.pop_back();
  }
  if (needed > 0) {
    const std::int64_t rows =
        keep - static_cast<std::int64_t>(needed - 1) * block_tokens_;
    Block& last = blocks_.back();
    if (!last.borrowed()) {
      pop_rows(last, rows);
    } else if (rows < block_tokens_) {
      make_private(last, rows);
    }
  }
  if (blocks_.empty()) base_ = first_;
  length_ = new_length;
  if (borrowed_ == 0) lease_.reset();
}

KVCache KVCache::clone() const {
  KVCache copy(hidden_, bits_, group_size_, *pool_, block_tokens_,
               window_tokens_);
  // Charge the duplicate private residency *before* populating the copy:
  // if the charge throws (pool pressure or fault injection), the copy must
  // not carry bytes its destructor would release without ever having
  // charged.
  pool_->charge(stored_bytes_);
  copy.blocks_ = blocks_;
  copy.lease_ = lease_;
  copy.borrowed_ = borrowed_;
  copy.base_ = base_;
  copy.first_ = first_;
  copy.length_ = length_;
  copy.stored_bytes_ = stored_bytes_;
  copy.integrity_ = integrity_;
  copy.region_ = region_;
  return copy;
}

void KVCache::restore(std::int64_t first, std::vector<Row> k,
                      std::vector<Row> v) {
  LMO_CHECK_MSG(blocks_.empty() && length_ == 0,
                "restore requires an empty cache");
  LMO_CHECK_EQ(k.size(), v.size());
  LMO_CHECK_GE(first, 0);
  const auto rows = static_cast<std::int64_t>(k.size());
  if (window_tokens_ == 0) {
    LMO_CHECK_MSG(first == 0, "only a windowed cache starts past row 0");
  } else {
    LMO_CHECK_LE(rows, window_tokens_);
  }
  std::size_t bytes = 0;
  for (const auto* side : {&k, &v}) {
    for (const Row& row : *side) {
      if (bits_ == 16) {
        LMO_CHECK_MSG(!row.quantized.defined(),
                      "restored row compression does not match bits=16 cache");
        LMO_CHECK_EQ(static_cast<std::int64_t>(row.plain.size()), hidden_);
      } else {
        LMO_CHECK_MSG(row.quantized.defined() && row.plain.empty(),
                      "restored row compression does not match quantized "
                      "cache");
        LMO_CHECK_EQ(row.quantized.bits(), bits_);
        LMO_CHECK_EQ(row.quantized.group_size(), group_size_);
        LMO_CHECK_EQ(row.quantized.original_shape().numel(), hidden_);
      }
      bytes += row_bytes(row);
    }
  }
  pool_->charge(bytes);
  base_ = first_ = first;
  for (std::size_t r = 0; r < k.size(); ++r) {
    const std::size_t pair = row_bytes(k[r]) + row_bytes(v[r]);
    push_row(std::move(k[r]), std::move(v[r]), pair);
  }
}

}  // namespace lmo::runtime
