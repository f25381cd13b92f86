#include "lmo/ckpt/format.hpp"

#include <fstream>

#include "lmo/ckpt/binary_io.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/durable.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::ckpt {
namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t kTrailerBytes = 4;

}  // namespace

void write_checkpoint_file(const std::string& path, PayloadKind kind,
                           const std::vector<std::byte>& payload) {
  ByteWriter header;
  header.u64(kMagic);
  header.u32(kFormatVersion);
  header.u32(static_cast<std::uint32_t>(kind));
  header.u64(payload.size());

  ByteWriter trailer;
  trailer.u32(crc32(payload));

  auto& injector = util::FaultInjector::instance();
  // Crash before the temp file exists: recovery must find the previous
  // published checkpoint untouched.
  injector.maybe_crash(kPublishSite);

  // A crash with a complete, durable temp file but before the rename: the
  // previous checkpoint still rules; the orphan .tmp is inert garbage.
  util::publish_file(path, {header.buffer(), payload, trailer.buffer()},
                     [&injector] { injector.maybe_crash(kPublishSite); });
}

std::vector<std::byte> read_checkpoint_file(const std::string& path,
                                            PayloadKind expected_kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw util::CheckpointTruncated("cannot open checkpoint: " + path);
  }
  std::vector<std::byte> raw;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  raw.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (!in.good() && !in.eof()) {
    throw util::CheckpointTruncated("read failed for checkpoint: " + path);
  }

  if (raw.size() < kHeaderBytes + kTrailerBytes) {
    throw util::CheckpointTruncated(
        path + ": " + std::to_string(raw.size()) +
        " bytes is shorter than the checkpoint envelope");
  }
  ByteReader header(std::span<const std::byte>(raw.data(), kHeaderBytes));
  const std::uint64_t magic = header.u64();
  if (magic != kMagic) {
    throw util::CheckpointCorrupt(path + ": bad magic (not a checkpoint)");
  }
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    throw util::CheckpointVersionMismatch(
        path + ": format version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kFormatVersion));
  }
  const std::uint32_t kind = header.u32();
  if (kind != static_cast<std::uint32_t>(expected_kind)) {
    throw util::CheckpointMismatch(
        path + ": payload kind " + std::to_string(kind) + ", expected " +
        std::to_string(static_cast<std::uint32_t>(expected_kind)));
  }
  const std::uint64_t declared = header.u64();
  const std::size_t body = raw.size() - kHeaderBytes - kTrailerBytes;
  if (declared != body) {
    throw util::CheckpointTruncated(
        path + ": payload declares " + std::to_string(declared) +
        " bytes, file holds " + std::to_string(body));
  }

  const std::span<const std::byte> payload(raw.data() + kHeaderBytes, body);
  ByteReader trailer(std::span<const std::byte>(
      raw.data() + kHeaderBytes + body, kTrailerBytes));
  const std::uint32_t stored_crc = trailer.u32();
  const std::uint32_t computed_crc = crc32(payload);
  if (stored_crc != computed_crc) {
    throw util::CheckpointCorrupt(path + ": CRC mismatch (stored " +
                                  std::to_string(stored_crc) + ", computed " +
                                  std::to_string(computed_crc) + ")");
  }
  return std::vector<std::byte>(payload.begin(), payload.end());
}

}  // namespace lmo::ckpt
