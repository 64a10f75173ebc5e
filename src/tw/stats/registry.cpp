#include "tw/stats/registry.hpp"

#include "tw/common/strings.hpp"

namespace tw::stats {

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Accumulator& Registry::accumulator(const std::string& name) {
  auto& slot = accs_[name];
  if (!slot) slot = std::make_unique<Accumulator>();
  return *slot;
}

Log2Histogram& Registry::histogram(const std::string& name) {
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<Log2Histogram>();
  return *slot;
}

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Accumulator* Registry::find_accumulator(const std::string& name) const {
  const auto it = accs_.find(name);
  return it == accs_.end() ? nullptr : it->second.get();
}

void Registry::report(std::ostream& out, const std::string& prefix) const {
  for (const auto& [name, c] : counters_) {
    out << prefix << name << " " << c->value() << "\n";
  }
  for (const auto& [name, a] : accs_) {
    out << prefix << name << " mean=" << fixed(a->mean(), 3)
        << " n=" << a->count() << " min=" << fixed(a->min(), 3)
        << " max=" << fixed(a->max(), 3) << "\n";
  }
  for (const auto& [name, h] : hists_) {
    out << prefix << name << " " << h->summary() << "\n";
  }
}

void Registry::merge_from(const Registry& o) {
  for (const auto& [name, c] : o.counters_) counter(name).inc(c->value());
  for (const auto& [name, a] : o.accs_) accumulator(name).merge(*a);
  for (const auto& [name, h] : o.hists_) histogram(name).merge(*h);
}

void Registry::reset() {
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, a] : accs_) a->reset();
  for (auto& [_, h] : hists_) h->reset();
}

}  // namespace tw::stats
