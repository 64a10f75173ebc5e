#pragma once
// Reference FRFCFS controller: the pre-index linear-scan implementation,
// preserved verbatim (modulo namespace) as the scheduling oracle for the
// differential test. The production controller replaced the O(queue)
// deque scans with bank-indexed intrusive lists; this copy keeps the
// original semantics — linear read/write queue sweeps, the
// `write_q_.begin()` restart after a batch erase, the unordered_map
// leveler lookup — so any divergence in issue order, stats, or timing
// between the two is a bug in the index, not in the test.
//
// Do not "improve" this file: its value is that it stays frozen.

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/controller.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/mem/request.hpp"
#include "tw/mem/start_gap.hpp"
#include "tw/pcm/bank.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/pcm/wear.hpp"
#include "tw/schemes/write_scheme.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"

namespace tw::mem::ref {

/// The original linear-scan FRFCFS controller (see file comment).
class ReferenceController {
 public:
  using ReadCallback = std::function<void(const MemoryRequest&)>;
  using WriteCallback = std::function<void(const MemoryRequest&)>;
  using SpaceCallback = std::function<void()>;

  ReferenceController(sim::Simulator& sim, const pcm::PcmConfig& pcm_cfg,
                      ControllerConfig cfg, schemes::WriteScheme& scheme,
                      stats::Registry& registry, u64 data_seed = 1,
                      double ones_bias = 0.5)
      : sim_(sim),
        pcm_(pcm_cfg),
        cfg_(cfg),
        scheme_(scheme),
        map_(pcm_cfg.geometry),
        store_(pcm_cfg.geometry.units_per_line(), data_seed, ones_bias),
        banks_(map_.total_banks()),
        subarrays_(map_.total_subarrays()),
        energy_(pcm_cfg.energy),
        active_write_(map_.total_banks()),
        paused_write_(map_.total_banks()),
        bank_epoch_(map_.total_banks(), 0),
        c_reads_(registry.counter("mem.reads")),
        c_writes_(registry.counter("mem.writes")),
        c_forwarded_(registry.counter("mem.reads_forwarded")),
        c_coalesced_(registry.counter("mem.writes_coalesced")),
        c_silent_(registry.counter("mem.writes_silent")),
        c_flipped_units_(registry.counter("mem.units_flipped")),
        c_pauses_(registry.counter("mem.write_pauses")),
        c_gap_moves_(registry.counter("mem.gap_moves")),
        c_batched_(registry.counter("mem.writes_batched")),
        a_read_latency_(registry.accumulator("mem.read_latency_ns")),
        a_write_latency_(registry.accumulator("mem.write_latency_ns")),
        a_write_units_(registry.accumulator("mem.write_units")),
        a_write_service_(registry.accumulator("mem.write_service_ns")),
        a_batch_lines_(registry.accumulator("mem.batch_lines")),
        a_batch_occupancy_(registry.accumulator("mem.batch_occupancy")),
        h_read_latency_(registry.histogram("mem.read_latency_hist_ns")),
        h_write_latency_(registry.histogram("mem.write_latency_hist_ns")) {
    TW_EXPECTS(cfg_.valid());
    pcm_.validate();
  }

  bool enqueue(MemoryRequest req) {
    req.addr = map_.line_of(req.addr);
    req.enqueue_tick = sim_.now();
    req.id = next_id_++;

    if (req.is_write()) {
      TW_EXPECTS(req.data.units() == store_.units_per_line());
      if (cfg_.write_coalescing) {
        for (auto& w : write_q_) {
          if (w.addr == req.addr) {
            w.data = req.data;
            c_coalesced_.inc();
            return true;
          }
        }
      }
      if (write_q_.size() >= cfg_.write_queue_entries) return false;
      write_q_.push_back(std::move(req));
      if (write_q_.size() >= cfg_.write_queue_entries) draining_ = true;
    } else {
      if (cfg_.read_forwarding) {
        for (auto it = write_q_.rbegin(); it != write_q_.rend(); ++it) {
          if (it->addr == req.addr) {
            c_forwarded_.inc();
            c_reads_.inc();
            MemoryRequest done = req;
            done.start_tick = sim_.now();
            done.complete_tick = sim_.now() + cfg_.forward_latency;
            const double lat_ns = to_ns(cfg_.forward_latency);
            a_read_latency_.add(lat_ns);
            h_read_latency_.add(static_cast<u64>(lat_ns));
            const u32 slot = acquire_read_slot(std::move(done));
            sim_.schedule_in(
                cfg_.forward_latency,
                [this, slot] {
                  const MemoryRequest fwd = take_read_slot(slot);
                  if (on_read_) on_read_(fwd);
                },
                sim::Priority::kDeviceComplete);
            return true;
          }
        }
      }
      if (read_q_.size() >= cfg_.read_queue_entries) return false;
      read_q_.push_back(std::move(req));
    }

    if (!dispatch_scheduled_) {
      dispatch_scheduled_ = true;
      sim_.schedule_in(0, [this] { dispatch(); }, sim::Priority::kController);
    }
    return true;
  }

  void set_read_callback(ReadCallback cb) { on_read_ = std::move(cb); }
  void set_write_callback(WriteCallback cb) { on_write_ = std::move(cb); }
  void set_space_callback(SpaceCallback cb) { on_space_ = std::move(cb); }

  bool idle() const {
    bool paused = false;
    for (const auto& p : paused_write_) paused = paused || p.has_value();
    return read_q_.empty() && write_q_.empty() && inflight_ == 0 && !paused;
  }

  u32 read_queue_depth() const { return static_cast<u32>(read_q_.size()); }
  u32 write_queue_depth() const { return static_cast<u32>(write_q_.size()); }

  Addr physical_of(Addr logical_line_addr) {
    if (!cfg_.wear_leveling) return logical_line_addr;
    const u64 li = map_.line_index(logical_line_addr);
    const u64 n = cfg_.start_gap.region_lines;
    const u64 region = li / n;
    const u64 within = li % n;
    const u64 slot = leveler_for(region).map(within);
    const u64 phys_line = region * (n + 1) + slot;
    return phys_line * map_.line_bytes();
  }

  DataStore& store() { return store_; }
  const pcm::EnergyModel& energy() const { return energy_; }
  const pcm::WearTracker& wear() const { return wear_; }
  u64 gap_moves() const { return c_gap_moves_.value(); }

 private:
  struct ActiveWrite {
    MemoryRequest req;
    Tick start = 0;
    Tick end = 0;
    u64 epoch = 0;
    Tick service = 0;
    u32 subarray = 0;
  };
  struct PausedWrite {
    MemoryRequest req;
    Tick remaining = 0;
    u32 subarray = 0;
  };

  u32 acquire_read_slot(MemoryRequest&& req) {
    if (!free_read_slots_.empty()) {
      const u32 slot = free_read_slots_.back();
      free_read_slots_.pop_back();
      read_pool_[slot] = std::move(req);
      return slot;
    }
    read_pool_.push_back(std::move(req));
    return static_cast<u32>(read_pool_.size() - 1);
  }

  MemoryRequest take_read_slot(u32 slot) {
    MemoryRequest req = std::move(read_pool_[slot]);
    free_read_slots_.push_back(slot);
    return req;
  }

  StartGapLeveler& leveler_for(u64 region) {
    auto it = levelers_.find(region);
    if (it == levelers_.end()) {
      it = levelers_.emplace(region, StartGapLeveler(cfg_.start_gap)).first;
    }
    return it->second;
  }

  bool read_waiting_for_subarray(u32 subarray) {
    for (const auto& r : read_q_) {
      if (map_.flat_subarray(physical_of(r.addr)) == subarray) return true;
    }
    return false;
  }

  void schedule_dispatch() {
    if (dispatch_scheduled_) return;
    dispatch_scheduled_ = true;
    sim_.schedule_in(0, [this] { dispatch(); }, sim::Priority::kController);
  }

  void dispatch() {
    dispatch_scheduled_ = false;
    const Tick now = sim_.now();

    for (auto it = read_q_.begin(); it != read_q_.end();) {
      const Addr phys = physical_of(it->addr);
      const u32 subarray = map_.flat_subarray(phys);
      if (subarrays_[subarray].idle_at(now)) {
        MemoryRequest req = std::move(*it);
        it = read_q_.erase(it);
        issue_read(std::move(req));
        notify_space();
      } else {
        if (cfg_.write_pausing) try_pause(map_.flat_bank(phys), subarray);
        ++it;
      }
    }

    if (draining_ && write_q_.size() <= cfg_.drain_low_watermark) {
      draining_ = false;
    }
    const bool issue_writes =
        draining_ ||
        (cfg_.drain == ControllerConfig::DrainPolicy::kOpportunistic &&
         read_q_.empty() && !write_q_.empty());
    if (issue_writes) {
      for (auto it = write_q_.begin(); it != write_q_.end();) {
        if (!draining_ &&
            cfg_.drain != ControllerConfig::DrainPolicy::kOpportunistic) {
          break;
        }
        const Addr phys_w = physical_of(it->addr);
        const u32 bank = map_.flat_bank(phys_w);
        const u32 subarray_w = map_.flat_subarray(phys_w);
        if (banks_[bank].idle_at(now) && subarrays_[subarray_w].idle_at(now) &&
            !paused_write_[bank].has_value()) {
          MemoryRequest req = std::move(*it);
          it = write_q_.erase(it);
          if (cfg_.write_batch > 1) {
            std::vector<MemoryRequest> batch;
            batch.push_back(std::move(req));
            for (auto scan = it;
                 scan != write_q_.end() && batch.size() < cfg_.write_batch;) {
              if (map_.flat_bank(physical_of(scan->addr)) == bank) {
                batch.push_back(std::move(*scan));
                scan = write_q_.erase(scan);
              } else {
                ++scan;
              }
            }
            it = write_q_.begin();  // erase invalidated the iterator chain
            if (batch.size() > 1) {
              issue_write_batch(std::move(batch));
            } else {
              issue_write(std::move(batch.front()));
            }
          } else {
            issue_write(std::move(req));
          }
          notify_space();
          if (draining_ && write_q_.size() <= cfg_.drain_low_watermark) {
            draining_ = false;
          }
        } else {
          ++it;
        }
      }
    }

    for (u32 bank = 0; bank < paused_write_.size(); ++bank) {
      if (paused_write_[bank].has_value() && banks_[bank].idle_at(now) &&
          subarrays_[paused_write_[bank]->subarray].idle_at(now) &&
          !read_waiting_for_subarray(paused_write_[bank]->subarray)) {
        resume_paused(bank);
      }
    }
  }

  void issue_read(MemoryRequest req) {
    const Tick now = sim_.now();
    const u32 subarray = map_.flat_subarray(physical_of(req.addr));
    const Tick service = scheme_.read_latency() + cfg_.read_bus_time;
    subarrays_[subarray].occupy(now, service);
    ++inflight_;
    c_reads_.inc();
    energy_.add_read(store_.units_per_line() * pcm_.geometry.data_unit_bits);

    req.start_tick = now;
    req.complete_tick = now + service;
    const double lat_ns = to_ns(req.complete_tick - req.enqueue_tick);
    a_read_latency_.add(lat_ns);
    h_read_latency_.add(static_cast<u64>(lat_ns));

    const u32 slot = acquire_read_slot(std::move(req));
    sim_.schedule_in(
        service,
        [this, slot] {
          --inflight_;
          const MemoryRequest done = take_read_slot(slot);
          if (on_read_) on_read_(done);
          schedule_dispatch();
        },
        sim::Priority::kDeviceComplete);
  }

  void issue_write(MemoryRequest req, Tick service_override = 0) {
    const Tick now = sim_.now();
    const Addr phys = physical_of(req.addr);
    const u32 bank = map_.flat_bank(phys);
    const u32 subarray = map_.flat_subarray(phys);

    Tick service = service_override;
    if (service == 0) {
      pcm::LineBuf line = store_.line(phys);
      const schemes::ServicePlan plan = scheme_.plan_write(line, req.data);
      service = plan.latency;

      c_writes_.inc();
      if (plan.silent) c_silent_.inc();
      c_flipped_units_.inc(plan.flipped_units);
      energy_.add_write(plan.programmed);
      if (plan.background.total() > 0) {
        energy_.add_write(plan.background);
        wear_.record(phys, plan.background);
      }
      if (plan.read_before_write) {
        energy_.add_read(store_.units_per_line() *
                         pcm_.geometry.data_unit_bits);
      }
      wear_.record(phys, plan.programmed);
      a_write_units_.add(plan.write_units);
      a_write_service_.add(to_ns(plan.latency));
    }

    banks_[bank].occupy(now, service);
    subarrays_[subarray].occupy(now, service);
    ++inflight_;

    TW_ASSERT(!active_write_[bank].has_value());
    const u64 epoch = ++bank_epoch_[bank];
    ActiveWrite active;
    active.req = std::move(req);
    active.start = now;
    active.end = now + service;
    active.epoch = epoch;
    active.service = service;
    active.subarray = subarray;
    active_write_[bank] = std::move(active);

    sim_.schedule_in(
        service, [this, bank, epoch] { complete_write(bank, epoch); },
        sim::Priority::kDeviceComplete);

    if (cfg_.wear_leveling && service_override == 0) {
      const u64 region = map_.line_index(active_write_[bank]->req.addr) /
                         cfg_.start_gap.region_lines;
      StartGapLeveler& leveler = leveler_for(region);
      if (const auto move = leveler.on_write()) {
        apply_gap_move(region, *move);
      }
    }
  }

  void issue_write_batch(std::vector<MemoryRequest> reqs) {
    TW_EXPECTS(reqs.size() >= 2);
    const Tick now = sim_.now();
    const u32 bank = map_.flat_bank(physical_of(reqs.front().addr));

    std::vector<pcm::LineBuf> views;
    std::vector<pcm::LineBuf*> lines;
    std::vector<pcm::LogicalLine> datas;
    std::vector<Addr> phys;
    views.reserve(reqs.size());
    lines.reserve(reqs.size());
    datas.reserve(reqs.size());
    for (const auto& r : reqs) {
      const Addr p = physical_of(r.addr);
      TW_ASSERT(map_.flat_bank(p) == bank);
      phys.push_back(p);
      views.push_back(store_.line(p));
      datas.push_back(r.data);
    }
    for (pcm::LineBuf& v : views) lines.push_back(&v);

    const schemes::BatchServicePlan batch = scheme_.plan_write_batch(
        {lines.data(), lines.size()}, {datas.data(), datas.size()});
    TW_ASSERT(batch.per_line.size() == reqs.size());
    a_batch_lines_.add(static_cast<double>(reqs.size()));
    if (batch.packed_lines > 0 && batch.occupancy > 0.0) {
      a_batch_occupancy_.add(batch.occupancy);
    }

    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const schemes::ServicePlan& plan = batch.per_line[i];
      c_writes_.inc();
      c_batched_.inc();
      if (plan.silent) c_silent_.inc();
      c_flipped_units_.inc(plan.flipped_units);
      energy_.add_write(plan.programmed);
      if (plan.background.total() > 0) {
        energy_.add_write(plan.background);
        wear_.record(phys[i], plan.background);
      }
      if (plan.read_before_write) {
        energy_.add_read(store_.units_per_line() *
                         pcm_.geometry.data_unit_bits);
      }
      wear_.record(phys[i], plan.programmed);
      a_write_units_.add(plan.write_units);
      a_write_service_.add(to_ns(batch.latency));

      if (cfg_.wear_leveling) {
        const u64 region =
            map_.line_index(reqs[i].addr) / cfg_.start_gap.region_lines;
        if (const auto move = leveler_for(region).on_write()) {
          apply_gap_move(region, *move);
        }
      }
    }

    Tick start = std::max(now, banks_[bank].free_at());
    std::vector<u32> sub_ids;
    for (const Addr p : phys) {
      const u32 sa = map_.flat_subarray(p);
      if (std::find(sub_ids.begin(), sub_ids.end(), sa) == sub_ids.end()) {
        sub_ids.push_back(sa);
        start = std::max(start, subarrays_[sa].free_at());
      }
    }
    banks_[bank].occupy(start, batch.latency);
    for (const u32 sa : sub_ids) subarrays_[sa].occupy(start, batch.latency);
    ++inflight_;
    const Tick done_in = start + batch.latency - now;
    sim_.schedule_in(
        done_in,
        [this, reqs = std::move(reqs)]() mutable {
          --inflight_;
          for (auto& r : reqs) {
            r.complete_tick = sim_.now();
            const double lat_ns = to_ns(r.complete_tick - r.enqueue_tick);
            a_write_latency_.add(lat_ns);
            h_write_latency_.add(static_cast<u64>(lat_ns));
            if (on_write_) on_write_(r);
          }
          schedule_dispatch();
        },
        sim::Priority::kDeviceComplete);
  }

  void apply_gap_move(u64 region, const GapMove& move) {
    const u64 n = cfg_.start_gap.region_lines;
    const Addr src =
        (region * (n + 1) + move.from_physical) * map_.line_bytes();
    const Addr dst =
        (region * (n + 1) + move.to_physical) * map_.line_bytes();

    const pcm::LogicalLine content = store_.read_logical(src);
    pcm::LineBuf dst_line = store_.line(dst);
    const schemes::ServicePlan plan = scheme_.plan_write(dst_line, content);
    energy_.add_write(plan.programmed);
    wear_.record(dst, plan.programmed);
    c_gap_moves_.inc();

    const u32 bank = map_.flat_bank(dst);
    const u32 subarray = map_.flat_subarray(dst);
    const Tick start = std::max({sim_.now(), banks_[bank].free_at(),
                                 subarrays_[subarray].free_at()});
    banks_[bank].occupy(start, plan.latency);
    subarrays_[subarray].occupy(start, plan.latency);
    const Tick done_in = start + plan.latency - sim_.now();
    sim_.schedule_in(done_in, [this] { schedule_dispatch(); },
                     sim::Priority::kDeviceComplete);
  }

  void complete_write(u32 bank, u64 epoch) {
    auto& active = active_write_[bank];
    if (!active.has_value() || active->epoch != epoch) return;

    MemoryRequest req = std::move(active->req);
    active.reset();
    --inflight_;
    req.complete_tick = sim_.now();
    const double lat_ns = to_ns(req.complete_tick - req.enqueue_tick);
    a_write_latency_.add(lat_ns);
    h_write_latency_.add(static_cast<u64>(lat_ns));
    if (on_write_) on_write_(req);
    schedule_dispatch();
  }

  bool try_pause(u32 bank, u32 wanted_subarray) {
    auto& active = active_write_[bank];
    if (!active.has_value() || paused_write_[bank].has_value()) return false;
    if (active->subarray != wanted_subarray) return false;
    if (banks_[bank].free_at() != active->end) return false;
    if (subarrays_[active->subarray].free_at() != active->end) return false;

    const Tick now = sim_.now();
    const Tick elapsed = now - active->start;
    const Tick boundary =
        active->start +
        ceil_div(elapsed, cfg_.pause_quantum) * cfg_.pause_quantum;
    if (boundary >= active->end) return false;

    banks_[bank].preempt(boundary);
    subarrays_[active->subarray].preempt(boundary);
    PausedWrite paused;
    paused.req = std::move(active->req);
    paused.remaining = active->end - boundary;
    paused.subarray = active->subarray;
    paused_write_[bank] = std::move(paused);
    active.reset();
    ++bank_epoch_[bank];
    c_pauses_.inc();

    sim_.schedule_at(boundary, [this] { schedule_dispatch(); },
                     sim::Priority::kController);
    return true;
  }

  void resume_paused(u32 bank) {
    TW_ASSERT(paused_write_[bank].has_value());
    const Tick now = sim_.now();
    PausedWrite paused = std::move(*paused_write_[bank]);
    paused_write_[bank].reset();

    banks_[bank].occupy(now, paused.remaining);
    subarrays_[paused.subarray].occupy(now, paused.remaining);
    const u64 epoch = ++bank_epoch_[bank];
    ActiveWrite active;
    active.req = std::move(paused.req);
    active.start = now;
    active.end = now + paused.remaining;
    active.epoch = epoch;
    active.service = paused.remaining;
    active.subarray = paused.subarray;
    active_write_[bank] = std::move(active);
    sim_.schedule_in(
        paused.remaining,
        [this, bank, epoch] { complete_write(bank, epoch); },
        sim::Priority::kDeviceComplete);
  }

  void notify_space() {
    if (!on_space_ || space_scheduled_) return;
    space_scheduled_ = true;
    sim_.schedule_in(
        0,
        [this] {
          space_scheduled_ = false;
          if (on_space_) on_space_();
        },
        sim::Priority::kCpu);
  }

  sim::Simulator& sim_;
  pcm::PcmConfig pcm_;
  ControllerConfig cfg_;
  schemes::WriteScheme& scheme_;

  AddressMap map_;
  DataStore store_;
  std::vector<pcm::PcmBank> banks_;
  std::vector<pcm::PcmBank> subarrays_;
  pcm::EnergyModel energy_;
  pcm::WearTracker wear_;

  std::deque<MemoryRequest> read_q_;
  std::deque<MemoryRequest> write_q_;
  bool draining_ = false;
  bool dispatch_scheduled_ = false;
  bool space_scheduled_ = false;
  u64 next_id_ = 1;
  u64 inflight_ = 0;

  std::vector<std::optional<ActiveWrite>> active_write_;
  std::vector<std::optional<PausedWrite>> paused_write_;
  std::vector<u64> bank_epoch_;

  std::unordered_map<u64, StartGapLeveler> levelers_;

  std::vector<MemoryRequest> read_pool_;
  std::vector<u32> free_read_slots_;

  ReadCallback on_read_;
  WriteCallback on_write_;
  SpaceCallback on_space_;

  stats::Counter& c_reads_;
  stats::Counter& c_writes_;
  stats::Counter& c_forwarded_;
  stats::Counter& c_coalesced_;
  stats::Counter& c_silent_;
  stats::Counter& c_flipped_units_;
  stats::Counter& c_pauses_;
  stats::Counter& c_gap_moves_;
  stats::Counter& c_batched_;
  stats::Accumulator& a_read_latency_;
  stats::Accumulator& a_write_latency_;
  stats::Accumulator& a_write_units_;
  stats::Accumulator& a_write_service_;
  stats::Accumulator& a_batch_lines_;
  stats::Accumulator& a_batch_occupancy_;
  stats::Log2Histogram& h_read_latency_;
  stats::Log2Histogram& h_write_latency_;
};

}  // namespace tw::mem::ref
