// Real KV cache for one (layer, sequence), kept as a block table in the
// style of vLLM's PagedAttention: rows live in `block_tokens`-row blocks,
// and each block is one of two kinds.
//
//  * Private blocks hold the rows this sequence appended. Appends quantize
//    the incoming K/V rows with the real group-wise quantizer when
//    bits < 16 (matching the paper: "the KV cache is updated throughout
//    token generation and quantized at each transformer layer"), one
//    QuantizedTensor per row, so codes never depend on block layout.
//  * Borrowed blocks are read-only f32 planes of a shared prefix chain,
//    pinned through a kvshare::PrefixLease. A truncate that cuts into one
//    copies its surviving rows into a private block first (copy-on-write),
//    so a writer never touches a block another request reads.
//
// With `window_tokens` > 0 the cache is a sliding window: only the most
// recent `window_tokens` rows are visible, and whole head blocks are
// dropped once every row in them has slid out. Reads expand the visible
// rows back to f32 in one pass — compute never runs on packed payloads.
// The pool is charged per stored private row, never per reserved block.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/tensor/quantize.hpp"
#include "lmo/tensor/tensor.hpp"

namespace lmo::kvshare {
class PrefixLease;
}  // namespace lmo::kvshare

namespace lmo::runtime {

class KVCache {
 public:
  /// `bits` = 16 keeps rows in f32; 4/8 stores each appended row
  /// compressed. `pool` is charged with the stored bytes. `window_tokens`
  /// = 0 keeps every row; > 0 keeps only that many most recent rows
  /// visible (f32 only).
  KVCache(std::int64_t hidden, int bits, std::int64_t group_size,
          MemoryPool& pool, std::int64_t block_tokens = 16,
          std::int64_t window_tokens = 0);
  ~KVCache();
  /// Moves hand the pool charge and the lease to the destination.
  KVCache(KVCache&& other) noexcept;
  KVCache& operator=(KVCache&&) = delete;
  KVCache(const KVCache&) = delete;
  KVCache& operator=(const KVCache&) = delete;

  /// Seed an empty f32 cache with the first `tokens` rows (whole blocks)
  /// of `layer` from `lease`'s chain. The lease's block size must equal
  /// block_tokens() and its planes must be materialized.
  void borrow(std::shared_ptr<kvshare::PrefixLease> lease, std::int64_t layer,
              std::int64_t tokens);

  /// Append one token's key and value rows (rank-1, extent = hidden).
  void append(const tensor::Tensor& k_row, const tensor::Tensor& v_row);

  /// Visible rows (≤ window_tokens() when windowed).
  std::int64_t length() const { return length_; }
  std::int64_t hidden() const { return hidden_; }
  int bits() const { return bits_; }
  std::int64_t group_size() const { return group_size_; }
  std::int64_t block_tokens() const { return block_tokens_; }
  std::int64_t window_tokens() const { return window_tokens_; }
  /// Absolute position of the first visible row: 0 unless a window slid.
  std::int64_t first_row() const { return first_; }
  /// Leading rows served from borrowed blocks.
  std::int64_t borrowed_rows() const {
    return static_cast<std::int64_t>(borrowed_) * block_tokens_;
  }
  /// Block-table entries currently held, borrowed and private.
  std::size_t blocks() const { return blocks_.size(); }

  /// Materialize the visible K (or V) matrix [length, hidden] in f32,
  /// dequantizing stored rows as needed.
  tensor::Tensor keys() const;
  tensor::Tensor values() const;
  /// Copy visible row `i` (borrowed or private) into `dst[hidden]` in f32 —
  /// used when publishing prompt rows into the prefix cache.
  void copy_row(bool key, std::int64_t i, float* dst) const;

  /// Roll the cache back to `new_length` visible rows (speculative-decoding
  /// rejection, beam pruning). new_length ≤ length().
  void truncate(std::int64_t new_length);
  /// Copy for beam forking: borrowed blocks are shared, private rows are
  /// copied and charged to the pool again.
  KVCache clone() const;

  /// Private-row bytes currently charged to the pool.
  std::size_t stored_bytes() const { return stored_bytes_; }

  /// Cumulative time spent quantizing appended rows, and in read passes
  /// that dequantize rows, seconds.
  double quantize_seconds() const { return quantize_seconds_; }
  double dequantize_seconds() const { return dequantize_seconds_; }

  /// Attach the integrity layer (owned by the caller; may be null). Each
  /// private row's stored payload is fingerprinted; keys()/values()
  /// re-check rows per the registry's policy (ordinal = absolute row
  /// position) and throw DataCorruption on mismatch — the Generator repairs
  /// by recomputing the cache from the token history. Borrowed blocks are
  /// verified by the prefix cache instead. `region` labels this cache in
  /// errors (e.g. "kv.layer3"). Must be called while the cache is empty.
  void set_integrity(integrity::ChecksumRegistry* registry,
                     std::string region);

  // -- checkpoint surface --------------------------------------------------

  /// Visible row `i` as stored: `quantized` for a quantized cache (rows
  /// round-trip bit-exactly; re-quantizing a dequantized row would drift),
  /// otherwise `plain` spans the row's `hidden` f32 values.
  struct RowView {
    std::span<const float> plain;
    const tensor::QuantizedTensor* quantized = nullptr;
  };
  RowView row(bool key, std::int64_t i) const;

  /// One restored row: `plain` (hidden f32 values) when bits == 16,
  /// otherwise `quantized`.
  struct Row {
    std::vector<float> plain;
    tensor::QuantizedTensor quantized;
  };
  /// Adopt restored rows verbatim as private rows of an empty cache, the
  /// first at absolute position `first`, charging the pool. Rows must
  /// match this cache's geometry, compression and window; throws
  /// CheckError otherwise.
  void restore(std::int64_t first, std::vector<Row> k, std::vector<Row> v);

 private:
  struct Block {
    /// Lease planes [block_tokens × hidden]; null for a private block.
    const float* borrowed_k = nullptr;
    const float* borrowed_v = nullptr;
    std::vector<float> k, v;                      ///< private f32 rows
    std::vector<tensor::QuantizedTensor> qk, qv;  ///< private quantized rows
    /// Per-row fingerprints of the stored payload (integrity on only).
    std::vector<std::uint32_t> k_crcs, v_crcs;
    std::size_t bytes = 0;  ///< charged to the pool
    bool borrowed() const { return borrowed_k != nullptr; }
  };

  bool verifying() const;
  /// Store one row pair at the next position (pool already charged).
  void push_row(Row k, Row v, std::size_t bytes);
  void drop_slid_blocks();
  void make_private(Block& block, std::int64_t rows);
  void pop_rows(Block& block, std::int64_t keep);
  void materialize(bool key, float* dst) const;
  void read_private(const Block& block, bool key, std::int64_t slot,
                    std::int64_t position, float* dst) const;
  /// Return `bytes` of private residency to the pool.
  void release(std::size_t bytes);

  std::int64_t hidden_;
  int bits_;
  std::int64_t group_size_;
  std::int64_t block_tokens_;
  std::int64_t window_tokens_;
  MemoryPool* pool_;
  std::vector<Block> blocks_;
  std::shared_ptr<kvshare::PrefixLease> lease_;
  std::size_t borrowed_ = 0;  ///< leading borrowed blocks
  std::int64_t base_ = 0;     ///< absolute position of blocks_[0]'s row 0
  std::int64_t first_ = 0;    ///< absolute position of visible row 0
  std::int64_t length_ = 0;
  std::size_t stored_bytes_ = 0;
  double quantize_seconds_ = 0.0;
  mutable double dequantize_seconds_ = 0.0;
  integrity::ChecksumRegistry* integrity_ = nullptr;
  std::string region_;
};

/// All KV caches for one sequence, one per layer.
using SequenceCache = std::vector<KVCache>;

/// At-rest bytes one token's K + V rows occupy: 2 · hidden · bits / 8,
/// floored at 1. The formula the serving simulator's pool accounting and
/// the prefix cache's block charging share.
std::size_t kv_bytes_per_token(std::int64_t hidden, int bits);

}  // namespace lmo::runtime
