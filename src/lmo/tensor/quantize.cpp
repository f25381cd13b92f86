#include "lmo/tensor/quantize.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "lmo/util/check.hpp"

namespace lmo::tensor {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void QuantConfig::validate() const {
  LMO_CHECK_MSG(bits == 4 || bits == 8, "quantization bits must be 4 or 8");
  LMO_CHECK_GT(group_size, 0);
  if (bits == 4) {
    LMO_CHECK_MSG(group_size % 2 == 0,
                  "4-bit groups must have even size for byte packing");
  }
}

std::size_t QuantizedTensor::byte_size() const {
  return payload_.size() + (group_min_.size() + group_scale_.size()) *
                               sizeof(float);
}

double QuantizedTensor::compression_ratio_vs_f16() const {
  if (!defined()) return 0.0;
  const double original =
      static_cast<double>(original_shape_.numel()) * sizeof(Half);
  return original / static_cast<double>(byte_size());
}

QuantizedTensor QuantizedTensor::from_parts(Shape original_shape,
                                            QuantConfig config,
                                            std::int64_t padded_numel,
                                            std::vector<std::uint8_t> payload,
                                            std::vector<float> group_min,
                                            std::vector<float> group_scale) {
  config.validate();
  LMO_CHECK_GT(padded_numel, 0);
  LMO_CHECK_EQ(padded_numel % config.group_size, 0);
  LMO_CHECK_GE(padded_numel, original_shape.numel());
  LMO_CHECK_LT(padded_numel - config.group_size, original_shape.numel());
  const std::size_t groups =
      static_cast<std::size_t>(padded_numel / config.group_size);
  LMO_CHECK_EQ(group_min.size(), groups);
  LMO_CHECK_EQ(group_scale.size(), groups);
  const std::size_t expected_payload = static_cast<std::size_t>(
      config.bits == 4 ? padded_numel / 2 : padded_numel);
  LMO_CHECK_EQ(payload.size(), expected_payload);

  QuantizedTensor out;
  out.original_shape_ = std::move(original_shape);
  out.config_ = config;
  out.padded_numel_ = padded_numel;
  out.payload_ = std::move(payload);
  out.group_min_ = std::move(group_min);
  out.group_scale_ = std::move(group_scale);
  return out;
}

QuantizedTensor quantize(const Tensor& input, const QuantConfig& config) {
  return quantize_profiled(input, config, nullptr);
}

QuantizedTensor quantize_profiled(const Tensor& input,
                                  const QuantConfig& config,
                                  QuantPhaseTimes* times) {
  LMO_CHECK(input.defined());
  LMO_CHECK_MSG(input.dtype() == DType::kF32,
                "quantizer input must be f32 (compute precision)");
  config.validate();

  QuantizedTensor out;
  out.original_shape_ = input.shape();
  out.config_ = config;

  const std::int64_t numel = input.numel();
  const std::int64_t gs = config.group_size;
  const std::int64_t padded = (numel + gs - 1) / gs * gs;
  out.padded_numel_ = padded;
  const std::int64_t num_groups = padded / gs;

  // Phase 1: pad — copy into a padded working buffer (Lines 5-6 of Alg. 2).
  auto t0 = Clock::now();
  std::vector<float> work(static_cast<std::size_t>(padded), 0.0f);
  {
    auto src = input.f32();
    std::memcpy(work.data(), src.data(), src.size() * sizeof(float));
  }
  if (times) times->pad = elapsed(t0);

  // Phase 2: per-group min/max (Lines 9-10).
  t0 = Clock::now();
  out.group_min_.resize(static_cast<std::size_t>(num_groups));
  out.group_scale_.resize(static_cast<std::size_t>(num_groups));
  const int levels = (1 << config.bits) - 1;
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const float* p = work.data() + g * gs;
    float mn = p[0];
    float mx = p[0];
    for (std::int64_t i = 1; i < gs; ++i) {
      mn = std::min(mn, p[i]);
      mx = std::max(mx, p[i]);
    }
    out.group_min_[static_cast<std::size_t>(g)] = mn;
    out.group_scale_[static_cast<std::size_t>(g)] =
        (mx - mn) / static_cast<float>(levels);
  }
  if (times) times->minmax = elapsed(t0);

  // Phase 3: min-max normalization + clamp (Eq. 10, Lines 12 and 14).
  t0 = Clock::now();
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(padded));
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const float mn = out.group_min_[static_cast<std::size_t>(g)];
    const float scale = out.group_scale_[static_cast<std::size_t>(g)];
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    const float* p = work.data() + g * gs;
    std::uint8_t* c = codes.data() + g * gs;
    for (std::int64_t i = 0; i < gs; ++i) {
      const float normalized = (p[i] - mn) * inv;
      const int q = static_cast<int>(std::lround(normalized));
      c[i] = static_cast<std::uint8_t>(std::clamp(q, 0, levels));
    }
  }
  if (times) times->normalize = elapsed(t0);

  // Phase 4: pack + reshape (Lines 16 and 18).
  t0 = Clock::now();
  if (config.bits == 8) {
    out.payload_ = std::move(codes);
  } else {
    out.payload_.resize(static_cast<std::size_t>(padded / 2));
    for (std::int64_t i = 0; i < padded; i += 2) {
      out.payload_[static_cast<std::size_t>(i / 2)] = static_cast<std::uint8_t>(
          (codes[static_cast<std::size_t>(i)] & 0x0f) |
          (codes[static_cast<std::size_t>(i + 1)] << 4));
    }
  }
  if (times) times->pack = elapsed(t0);

  return out;
}

void dequantize_into(const QuantizedTensor& quantized, std::span<float> out) {
  LMO_CHECK(quantized.defined());
  const std::int64_t numel = quantized.original_shape().numel();
  LMO_CHECK_EQ(static_cast<std::int64_t>(out.size()), numel);
  const std::int64_t gs = quantized.group_size();

  // Eq. 11: x = q * scale + min (scale already folds in (max-min)/(2^b-1)).
  // 4-bit codes are read in place, low nibble first. Codes past `numel` are
  // padding and are not written.
  const std::uint8_t* codes = quantized.payload().data();
  const bool packed = quantized.bits() == 4;
  float* values = out.data();
  for (std::int64_t g = 0; g * gs < numel; ++g) {
    const float mn = quantized.group_min()[static_cast<std::size_t>(g)];
    const float scale = quantized.group_scale()[static_cast<std::size_t>(g)];
    const std::int64_t end = std::min(numel, (g + 1) * gs);
    if (packed) {
      for (std::int64_t i = g * gs; i < end; ++i) {
        const std::uint8_t code = (codes[i >> 1] >> ((i & 1) * 4)) & 0x0f;
        values[i] = static_cast<float>(code) * scale + mn;
      }
    } else {
      for (std::int64_t i = g * gs; i < end; ++i) {
        values[i] = static_cast<float>(codes[i]) * scale + mn;
      }
    }
  }
}

Tensor dequantize(const QuantizedTensor& quantized) {
  LMO_CHECK(quantized.defined());
  const Shape& shape = quantized.original_shape();
  std::vector<float> values(static_cast<std::size_t>(shape.numel()));
  dequantize_into(quantized, values);
  return Tensor::from_values(shape, std::move(values));
}

double max_quant_error(double min, double max, int bits) {
  const double levels = static_cast<double>((1 << bits) - 1);
  return (max - min) / levels * 0.5;
}

}  // namespace lmo::tensor
