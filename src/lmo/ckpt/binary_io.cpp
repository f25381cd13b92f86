#include "lmo/ckpt/binary_io.hpp"

#include <cstring>

#include "lmo/util/checksum.hpp"
#include "lmo/util/status.hpp"

namespace lmo::ckpt {

std::uint32_t crc32(std::span<const std::byte> data) {
  return util::crc32(data);
}

std::uint32_t crc32(const std::vector<std::byte>& data) {
  return util::crc32(data);
}

void ByteWriter::u8(std::uint8_t value) {
  buffer_.push_back(static_cast<std::byte>(value));
}

void ByteWriter::u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    u8(static_cast<std::uint8_t>(value >> shift));
  }
}

void ByteWriter::u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    u8(static_cast<std::uint8_t>(value >> shift));
  }
}

void ByteWriter::i64(std::int64_t value) {
  u64(static_cast<std::uint64_t>(value));
}

void ByteWriter::f32(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  u32(bits);
}

void ByteWriter::f64(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  u64(bits);
}

void ByteWriter::bytes(std::span<const std::byte> value) {
  u64(value.size());
  buffer_.insert(buffer_.end(), value.begin(), value.end());
}

void ByteWriter::string(const std::string& value) {
  bytes(std::as_bytes(std::span<const char>(value.data(), value.size())));
}

void ByteWriter::f32_array(std::span<const float> values) {
  u64(values.size());
  const std::size_t start = buffer_.size();
  buffer_.resize(start + values.size() * sizeof(float));
  // Packed copy of the IEEE bit patterns; faster than per-element f32()
  // for KV payloads, identical layout on little-endian hosts.
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      buffer_[start + i * 4 + static_cast<std::size_t>(b)] =
          static_cast<std::byte>(bits >> (8 * b));
    }
  }
}

std::span<const std::byte> ByteReader::take(std::size_t count) {
  if (count > remaining()) {
    throw util::CheckpointTruncated(
        "checkpoint payload truncated: need " + std::to_string(count) +
        " bytes at offset " + std::to_string(cursor_) + ", have " +
        std::to_string(remaining()));
  }
  const std::span<const std::byte> out = data_.subspan(cursor_, count);
  cursor_ += count;
  return out;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(take(1)[0]);
}

std::uint32_t ByteReader::u32() {
  const auto raw = take(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(raw[i]))
             << (8 * i);
  }
  return value;
}

std::uint64_t ByteReader::u64() {
  const auto raw = take(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(raw[i]))
             << (8 * i);
  }
  return value;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

float ByteReader::f32() {
  const std::uint32_t bits = u32();
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<std::byte> ByteReader::bytes() {
  const std::uint64_t count = u64();
  // An absurd length (e.g. garbage interpreted as a size) must fail as
  // truncation, not as a bad_alloc from resize.
  const auto raw = take(static_cast<std::size_t>(count));
  return std::vector<std::byte>(raw.begin(), raw.end());
}

std::string ByteReader::string() {
  const std::uint64_t count = u64();
  const auto raw = take(static_cast<std::size_t>(count));
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

std::vector<float> ByteReader::f32_array() {
  const std::uint64_t count = u64();
  // Compare before multiplying: count * 4 can wrap to a small size.
  if (count > remaining() / sizeof(float)) {
    throw util::CheckpointTruncated(
        "checkpoint payload truncated: f32 array of " + std::to_string(count) +
        " values at offset " + std::to_string(cursor_) + ", have " +
        std::to_string(remaining()) + " bytes");
  }
  const auto raw = take(static_cast<std::size_t>(count) * sizeof(float));
  std::vector<float> values(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t bits = 0;
    for (int b = 0; b < 4; ++b) {
      bits |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(raw[i * 4 + static_cast<std::size_t>(b)]))
              << (8 * b);
    }
    std::memcpy(&values[i], &bits, sizeof(float));
  }
  return values;
}

}  // namespace lmo::ckpt
