#include "tw/pcm/params.hpp"

#include "tw/common/strings.hpp"
#include "tw/pcm/line.hpp"

namespace tw::pcm {

const char* channel_interleave_name(ChannelInterleave i) {
  switch (i) {
    case ChannelInterleave::kLine: return "line";
    case ChannelInterleave::kBank: return "bank";
    case ChannelInterleave::kRow: return "row";
  }
  return "unknown";
}

std::string GeometryParams::error() const {
  const auto pow2_msg = [](const char* what, u64 v) {
    return std::string(what) + " must be a power of two, got " +
           std::to_string(v);
  };
  if (chips_per_bank == 0) return "chips_per_bank must be >= 1";
  if (chip_write_bits == 0) return "chip_write_bits must be >= 1";
  if (data_unit_bits == 0 || data_unit_bits > 64 || !is_pow2(data_unit_bits)) {
    return "data_unit_bits must be a power of two in [1, 64], got " +
           std::to_string(data_unit_bits);
  }
  if (cache_line_bytes < 8 || !is_pow2(cache_line_bytes)) {
    return "cache_line_bytes must be a power of two >= 8, got " +
           std::to_string(cache_line_bytes);
  }
  if ((cache_line_bytes * 8) % data_unit_bits != 0) {
    return "cache line (" + std::to_string(cache_line_bytes * 8) +
           " bits) must be a whole number of data units (" +
           std::to_string(data_unit_bits) + " bits each)";
  }
  if (units_per_line() > kMaxUnitsPerLine) {
    return "a cache line holds at most 32 data units (256 B of 64-bit units)";
  }
  if (banks == 0 || !is_pow2(banks)) return pow2_msg("banks", banks);
  if (ranks == 0) return "ranks must be >= 1";
  if (subarrays_per_bank == 0 || !is_pow2(subarrays_per_bank)) {
    return pow2_msg("subarrays_per_bank", subarrays_per_bank) +
           " (the row decoder extracts log2(subarrays_per_bank) address "
           "bits to select the partition within a bank)";
  }
  if (channels == 0 || !is_pow2(channels)) {
    return pow2_msg("channels", channels) +
           " (the channel decoder extracts log2(channels) address bits)";
  }
  if (capacity_bytes < u64{cache_line_bytes} * channels) {
    return "capacity_bytes (" + std::to_string(capacity_bytes) +
           ") must hold at least one " + std::to_string(cache_line_bytes) +
           "B line per channel";
  }
  if (channels > 1 && channel_interleave == ChannelInterleave::kRow &&
      !is_pow2(capacity_bytes / cache_line_bytes)) {
    return "row-interleaved channels need a power-of-two line count: "
           "capacity_bytes/cache_line_bytes = " +
           std::to_string(capacity_bytes / cache_line_bytes);
  }
  return "";
}

void PcmConfig::validate() const {
  if (!timing.valid()) TW_FAIL("invalid PCM timing parameters");
  if (!power.valid()) TW_FAIL("invalid PCM power parameters");
  const std::string geo = geometry.error();
  if (!geo.empty()) TW_FAIL(("invalid PCM geometry: " + geo).c_str());
  if (!energy.valid()) TW_FAIL("invalid PCM energy parameters");
}

std::string PcmConfig::describe() const {
  return std::to_string(geometry.chips_per_bank) + "xX" +
         std::to_string(geometry.chip_write_bits) + " chips/bank, " +
         std::to_string(geometry.banks) + " banks, line=" +
         std::to_string(geometry.cache_line_bytes) + "B, Tread=" +
         fixed(to_ns(timing.t_read), 0) + "ns Treset=" +
         fixed(to_ns(timing.t_reset), 0) + "ns Tset=" +
         fixed(to_ns(timing.t_set), 0) + "ns, K=" + std::to_string(k()) +
         " L=" + std::to_string(l()) +
         " budget=" + std::to_string(bank_power_budget()) + " (" +
         (power.global_charge_pump ? "GCP" : "per-chip") + ")";
}

PcmConfig table2_config() {
  return PcmConfig{};  // defaults encode Table II
}

}  // namespace tw::pcm
