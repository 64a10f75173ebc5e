#include "tw/harness/config_file.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "tw/harness/knobs.hpp"

namespace tw::harness {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

SystemConfig parse_system_config(std::istream& in) {
  std::vector<Setting> settings;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::string where = "config line " + std::to_string(lineno);
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error(where + ": expected key = value");
    }
    const std::string key = trim(trimmed.substr(0, eq));
    settings.push_back(
        {key, trim(trimmed.substr(eq + 1)), where + " (" + key + ")"});
  }
  SystemConfig cfg;
  apply_settings(cfg, settings);
  return cfg;
}

SystemConfig load_system_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  return parse_system_config(in);
}

void write_system_config(const SystemConfig& cfg, std::ostream& out) {
  out << "# tetriswrite experiment configuration\n";
  for (const Knob& k : knob_table()) {
    if (knob_dumped(k, cfg)) out << k.key << " = " << k.get(cfg) << "\n";
  }
}

}  // namespace tw::harness
