#pragma once
// INI-style experiment configuration files: every knob of the knob table
// (knobs.hpp) as a dotted "key = value" line, with round-trip
// serialization so experiment setups can be archived next to their
// results.
//
//   # example.cfg
//   pcm.t_set_ns = 430
//   pcm.chip_budget = 32
//   controller.drain = strict
//   sys.cores = 4
//
// Unknown keys, malformed values and configs that fail the library's
// consistency checks throw std::runtime_error naming the offending line.

#include <iosfwd>
#include <string>

#include "tw/harness/experiment.hpp"

namespace tw::harness {

/// Parse a config stream into a SystemConfig (starting from defaults).
SystemConfig parse_system_config(std::istream& in);

/// Load a config file. Throws std::runtime_error on I/O or parse errors.
SystemConfig load_system_config(const std::string& path);

/// Serialize every knob as "key = value" lines (parse round-trips); the
/// PALP, DRAM, encoder and fault groups only while that feature is on.
void write_system_config(const SystemConfig& cfg, std::ostream& out);

}  // namespace tw::harness
