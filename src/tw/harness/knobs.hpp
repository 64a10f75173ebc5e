#pragma once
// The knob table: every SystemConfig field that a config file or a
// command line can set, declared once as one row (key, field, type,
// help). Config files (config_file.hpp), `--<key>=<value>` on every bench
// binary and example, the old short flags (`--channels`, `--palp`,
// `--dram-mb`, ...) and the generated --help all read it. Settings apply
// in order and are then checked as a whole with the library's own
// consistency checks, so every entry point rejects the same configs.

#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tw/harness/experiment.hpp"

namespace tw::harness {

/// One row of the knob table.
struct Knob {
  std::string_view key;  ///< dotted config key; also the --<key> flag
  std::string type;      ///< value syntax shown by --help
  std::string_view help;
  /// Parse `value` into the field; throws std::invalid_argument.
  std::function<void(SystemConfig&, std::string_view)> set;
  /// Format the field so `set` reads it back. Empty for presets, which
  /// replace a whole sub-config and are never written out.
  std::function<std::string(const SystemConfig&)> get = {};
  /// Old short flag ("" = none): `--<flag>=V` sets key = V, or key =
  /// flag_value when that is given (the flag then takes no value).
  /// flag_implies names another old flag that is expanded first.
  std::string_view flag = {};
  std::string_view flag_value = {};
  std::string_view flag_implies = {};

  Knob alias(std::string_view name, std::string_view value = {},
             std::string_view implies = {}) &&;
};

/// Every knob, in dump order.
const std::vector<Knob>& knob_table();

/// The row for `key`, or nullptr.
const Knob* find_knob(std::string_view key);

/// Whether write_system_config prints `k` for `cfg`: not for presets, the
/// palp/dram/encode/fault sections only while that feature is on, and
/// tetris.pack_order only off the paper's first-fit decreasing.
bool knob_dumped(const Knob& k, const SystemConfig& cfg);

/// One `key = value` assignment and where it came from ("config line 3
/// (pcm.banks)", "--channels=4"); error messages start with the origin.
struct Setting {
  std::string key;
  std::string value;
  std::string origin;
};

/// Expand one command-line argument (`--<key>=<value>` or an old short
/// flag) into settings. False when `arg` names neither; throws
/// std::invalid_argument when a known flag lacks its value or is given
/// one it does not take.
bool expand_flag(std::string_view arg, std::vector<Setting>& out);

/// Apply `settings` to `cfg` in order, then run config_error. Throws
/// std::runtime_error "<origin>: <reason>" naming the setting that did
/// not parse, or else the latest one that turned the config invalid.
void apply_settings(SystemConfig& cfg, std::span<const Setting> settings);

/// Empty when `cfg` passes every library check; otherwise the first
/// violated constraint.
std::string config_error(const SystemConfig& cfg);

/// One "--<key>=<type>  help [--old-flag]" line per row.
void print_knob_help(std::ostream& out);

/// Strict unsigned decimal: digits only (no sign, space or trailing
/// junk) and no overflow.
std::optional<u64> parse_u64(std::string_view s);

}  // namespace tw::harness
