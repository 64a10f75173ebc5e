#pragma once
// Named statistic registry: components register counters/accumulators under
// hierarchical dotted names; reporters dump everything as a table or CSV.

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <variant>

#include "tw/stats/accumulator.hpp"
#include "tw/stats/counter.hpp"
#include "tw/stats/histogram.hpp"

namespace tw::stats {

/// Owns named statistics. Components hold references returned by the
/// register_* calls; the registry must outlive them.
class Registry {
 public:
  /// Register (or fetch) a counter under `name`.
  Counter& counter(const std::string& name);

  /// Register (or fetch) an accumulator under `name`.
  Accumulator& accumulator(const std::string& name);

  /// Register (or fetch) a histogram under `name`.
  Log2Histogram& histogram(const std::string& name);

  /// The counter / accumulator registered under `name`, or nullptr.
  /// Unlike counter() and accumulator(), these never create one.
  const Counter* find_counter(const std::string& name) const;
  const Accumulator* find_accumulator(const std::string& name) const;

  /// Print all stats, sorted by name, as "name value" lines.
  void report(std::ostream& out, const std::string& prefix = "") const;

  /// Merge another registry into this one: counters add, accumulators
  /// combine (Chan et al.), histograms sum buckets. Stats present only in
  /// `o` are created here. Used to fold per-channel registries into the
  /// main registry in deterministic channel order.
  void merge_from(const Registry& o);

  /// Reset every registered stat to zero.
  void reset();

  std::size_t size() const {
    return counters_.size() + accs_.size() + hists_.size();
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Accumulator>> accs_;
  std::map<std::string, std::unique_ptr<Log2Histogram>> hists_;
};

}  // namespace tw::stats
