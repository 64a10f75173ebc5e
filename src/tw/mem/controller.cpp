#include "tw/mem/controller.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "tw/common/assert.hpp"
#include "tw/common/bits.hpp"
#include "tw/common/env.hpp"
#include "tw/common/inline_vec.hpp"
#include "tw/trace/emit.hpp"

namespace tw::mem {

namespace {
// Shorthand for the controller's emission sites; every record is gated on
// the kController category.
constexpr auto kCat = trace::Category::kController;
// Track instance indices are offset by the controller's track_base so a
// MemorySystem can namespace each channel's tracks (base 0 keeps
// single-channel traces byte-identical to before).
constexpr u32 read_queue_track(u32 base) {
  return trace::track_id(trace::Track::kQueue, base + 0);
}
constexpr u32 write_queue_track(u32 base) {
  return trace::track_id(trace::Track::kQueue, base + 1);
}
constexpr u32 bank_track(u32 base, u32 bank) {
  return trace::track_id(trace::Track::kBank, base + bank);
}
constexpr u32 sub_track(u32 base, u32 sub) {
  return trace::track_id(trace::Track::kSubarray, base + sub);
}
constexpr auto kFaultCat = trace::Category::kFault;
constexpr u32 fault_track(u32 base) {
  return trace::track_id(trace::Track::kFault, base);
}
// PALP emissions (partition occupancy spans, overlapped reads, pump
// stalls) live in their own category so partition studies can be traced
// without the full controller firehose. All emission sites are gated on
// palp_on_, keeping PALP-off trace bytes identical to before.
constexpr auto kPalpCat = trace::Category::kPalp;
constexpr u32 palp_track(u32 base, u32 bank) {
  return trace::track_id(trace::Track::kPalp, base + bank);
}
// Content-encoder pre-stage emissions. Gated on plan.enc.active, so
// encoder-off runs emit nothing and their trace bytes stay identical to
// builds without the encoder stage.
constexpr auto kEncodeCat = trace::Category::kEncode;
constexpr u32 encode_track(u32 base, u32 bank) {
  return trace::track_id(trace::Track::kEncode, base + bank);
}
}  // namespace

Controller::Controller(sim::Simulator& sim, const pcm::PcmConfig& pcm_cfg,
                       ControllerConfig cfg, schemes::WriteScheme& scheme,
                       stats::Registry& registry, u64 data_seed,
                       double ones_bias, const fault::FaultModel* fault)
    : sim_(sim),
      pcm_(pcm_cfg),
      cfg_(cfg),
      scheme_(scheme),
      reg_(registry),
      fault_(fault),
      map_(pcm_cfg.geometry),
      remap_(map_, cfg.wear_leveling, cfg.start_gap, fault),
      store_(pcm_cfg.geometry.units_per_line(), data_seed, ones_bias),
      banks_(map_.total_banks()),
      subarrays_(map_.total_subarrays()),
      pumps_(map_.total_banks()),
      energy_(pcm_cfg.energy),
      read_by_sub_(map_.total_subarrays()),
      write_by_bank_(map_.total_banks()),
      subs_with_reads_((map_.total_subarrays() + 63) / 64, 0),
      banks_with_writes_((map_.total_banks() + 63) / 64, 0),
      open_row_(map_.total_banks()),
      in_service_(map_.total_banks()),
      paused_write_(map_.total_banks()),
      bank_epoch_(map_.total_banks(), 0),
      palp_on_(cfg.palp.enabled && pcm_cfg.geometry.subarrays_per_bank > 1),
      verify_palp_(palp_on_ && verify_env_enabled()),
      c_reads_(registry.counter("mem.reads")),
      c_writes_(registry.counter("mem.writes")),
      c_forwarded_(registry.counter("mem.reads_forwarded")),
      c_coalesced_(registry.counter("mem.writes_coalesced")),
      c_silent_(registry.counter("mem.writes_silent")),
      c_flipped_units_(registry.counter("mem.units_flipped")),
      c_pauses_(registry.counter("mem.write_pauses")),
      c_gap_moves_(registry.counter("mem.gap_moves")),
      c_batched_(registry.counter("mem.writes_batched")),
      c_row_hits_(registry.counter("mem.row_hits")),
      c_row_misses_(registry.counter("mem.row_misses")),
      c_dispatches_(registry.counter("mem.dispatch_rounds")),
      c_fault_retries_(registry.counter("mem.fault_retries")),
      c_failed_lines_(registry.counter("mem.failed_lines")),
      c_brownout_writes_(registry.counter("mem.brownout_writes")),
      c_stuck_remaps_(registry.counter("mem.stuck_remaps")),
      c_palp_overlap_reads_(registry.counter("mem.palp_overlapped_reads")),
      c_palp_pump_stalls_(registry.counter("mem.palp_pump_stalls")),
      c_palp_write_overlaps_(registry.counter("mem.palp_write_overlaps")),
      c_enc_writes_(registry.counter("mem.enc_writes")),
      c_enc_coded_units_(registry.counter("mem.enc_coded_units")),
      c_enc_tag_bits_(registry.counter("mem.enc_tag_bits")),
      a_read_latency_(registry.accumulator("mem.read_latency_ns")),
      a_write_latency_(registry.accumulator("mem.write_latency_ns")),
      a_write_units_(registry.accumulator("mem.write_units")),
      a_write_service_(registry.accumulator("mem.write_service_ns")),
      a_power_util_(registry.accumulator("mem.power_utilization")),
      a_batch_lines_(registry.accumulator("mem.batch_lines")),
      a_batch_occupancy_(registry.accumulator("mem.batch_occupancy")),
      a_palp_batch_spread_(registry.accumulator("mem.palp_batch_spread")),
      h_read_latency_(registry.histogram("mem.read_latency_hist_ns")),
      h_write_latency_(registry.histogram("mem.write_latency_hist_ns")) {
  TW_EXPECTS(cfg_.valid());
  pcm_.validate();
  if (scheme_.transforms_content()) {
    // The scheme stores a coded image (content-encoder pre-stage): route
    // every logical readback — demand reads, gap-move migration, the
    // generator's read-modify-write stream — through its decoder.
    store_.set_decoder(&scheme_,
                       [](const void* ctx, const pcm::LineBuf& l) {
                         return static_cast<const schemes::WriteScheme*>(ctx)
                             ->decode_stored(l);
                       });
  }
  read_ready_.reserve(map_.total_subarrays());
  pause_askers_.reserve(map_.total_banks());
  for (auto& v : in_service_) v.reserve(palp_on_ ? cfg_.palp.write_ways : 1);
}

// -- Node plumbing --------------------------------------------------------

u32 Controller::make_node(MemoryRequest&& req, const Placement& at) {
  const u32 id = nodes_.alloc();
  ReqNode& n = nodes_[id];
  n.req = std::move(req);
  n.at = at;
  return id;
}

MemoryRequest Controller::take_node(u32 id) {
  MemoryRequest req = std::move(nodes_[id].req);
  nodes_.release(id);
  return req;
}

void Controller::link_read(u32 id) {
  read_age_.push_back(nodes_, id);
  const u32 sub = nodes_[id].at.sub;
  read_by_sub_[sub].push_back(nodes_, id);
  bitmap_set(subs_with_reads_, sub);
  read_q_peak_ = std::max(read_q_peak_, read_age_.size());
}

void Controller::unlink_read(u32 id) {
  const u32 sub = nodes_[id].at.sub;
  read_age_.erase(nodes_, id);
  read_by_sub_[sub].erase(nodes_, id);
  if (read_by_sub_[sub].empty()) bitmap_clear(subs_with_reads_, sub);
}

void Controller::link_write(u32 id) {
  write_age_.push_back(nodes_, id);
  const u32 bank = nodes_[id].at.bank;
  write_by_bank_[bank].push_back(nodes_, id);
  bitmap_set(banks_with_writes_, bank);
  write_q_peak_ = std::max(write_q_peak_, write_age_.size());
}

void Controller::unlink_write(u32 id) {
  const u32 bank = nodes_[id].at.bank;
  write_age_.erase(nodes_, id);
  write_by_bank_[bank].erase(nodes_, id);
  if (write_by_bank_[bank].empty()) bitmap_clear(banks_with_writes_, bank);
}

// -- Open-row tracking ----------------------------------------------------

void Controller::note_row_activate(u32 bank, Addr phys) {
  OpenRow& open = open_row_[bank];
  const u64 row = map_.decode(phys).row;
  if (open.valid && open.row == row) {
    c_row_hits_.inc();
  } else {
    c_row_misses_.inc();
  }
  open.row = row;
  open.valid = true;
}

// -- Enqueue --------------------------------------------------------------

bool Controller::enqueue(MemoryRequest req) {
  req.addr = map_.line_of(req.addr);
  req.enqueue_tick = sim_.now();
  req.id = next_id_++;

  // Requests are bucketed by where their line is served now. All queued
  // requests to one line share that placement, so same-line lookups scan
  // a single bank's write bucket.
  const Placement at = remap_.locate(req.addr);
  if (req.is_write()) {
    TW_EXPECTS(req.data.units() == store_.units_per_line());
    if (cfg_.write_coalescing) {
      const BucketList& list = write_by_bank_[at.bank];
      for (u32 id = list.head(); id != kNilIndex; id = list.next(nodes_, id)) {
        if (nodes_[id].req.addr == req.addr) {
          nodes_[id].req.data = req.data;
          c_coalesced_.inc();
          if (trace::on<kCat>()) {
            trace::emit_instant(kCat, trace::Op::kWriteCoalesce,
                                write_queue_track(cfg_.track_base), sim_.now(), req.id,
                                nodes_[id].req.id);
          }
          return true;
        }
      }
    }
    if (write_age_.size() >= cfg_.write_queue_entries) return false;
    const u64 req_id = req.id;
    link_write(make_node(std::move(req), at));
    if (trace::on<kCat>()) {
      trace::emit_instant(kCat, trace::Op::kWriteEnqueue, write_queue_track(cfg_.track_base),
                          sim_.now(), req_id, write_age_.size());
    }
    if (write_age_.size() >= cfg_.write_queue_entries) set_draining(true);
  } else {
    if (cfg_.read_forwarding) {
      // Youngest match wins, as the reference's reverse iteration; the
      // bucket list preserves relative queue order, so scanning it
      // backwards finds the same entry.
      u32 match = kNilIndex;
      const BucketList& list = write_by_bank_[at.bank];
      for (u32 id = list.tail(); id != kNilIndex; id = list.prev(nodes_, id)) {
        if (nodes_[id].req.addr == req.addr) {
          match = id;
          break;
        }
      }
      if (match != kNilIndex) {
        c_forwarded_.inc();
        c_reads_.inc();
        if (trace::on<kCat>()) {
          trace::emit_instant(kCat, trace::Op::kReadForward, read_queue_track(cfg_.track_base),
                              sim_.now(), req.id, nodes_[match].req.id);
        }
        MemoryRequest done = req;
        done.start_tick = sim_.now();
        done.complete_tick = sim_.now() + cfg_.forward_latency;
        record_read_latency(cfg_.forward_latency);
        const u32 slot = read_results_.put(std::move(done));
        sim_.schedule_in(
            cfg_.forward_latency,
            [this, slot] {
              const MemoryRequest fwd = read_results_.take(slot);
              if (on_read_) on_read_(fwd);
            },
            sim::Priority::kDeviceComplete);
        return true;
      }
    }
    if (read_age_.size() >= cfg_.read_queue_entries) return false;
    const u64 req_id = req.id;
    link_read(make_node(std::move(req), at));
    if (trace::on<kCat>()) {
      trace::emit_instant(kCat, trace::Op::kReadEnqueue, read_queue_track(cfg_.track_base),
                          sim_.now(), req_id, read_age_.size());
    }
  }

  schedule_dispatch();
  return true;
}

bool Controller::idle() const {
  return read_age_.empty() && write_age_.empty() && inflight_ == 0 &&
         paused_count_ == 0;
}

u64 Controller::gap_moves() const { return c_gap_moves_.value(); }

void Controller::record_read_latency(Tick latency) {
  const double lat_ns = to_ns(latency);
  a_read_latency_.add(lat_ns);
  h_read_latency_.add(static_cast<u64>(lat_ns));
}

void Controller::finish_write(MemoryRequest& req) {
  req.complete_tick = sim_.now();
  const double lat_ns = to_ns(req.complete_tick - req.enqueue_tick);
  a_write_latency_.add(lat_ns);
  h_write_latency_.add(static_cast<u64>(lat_ns));
  if (on_write_) on_write_(req);
}

void Controller::schedule_dispatch() {
  if (dispatch_scheduled_) return;
  dispatch_scheduled_ = true;
  sim_.schedule_in(0, [this] { dispatch(); }, sim::Priority::kController);
}

// -- Scheduling -----------------------------------------------------------

void Controller::set_draining(bool on) {
  if (draining_ == on) return;
  draining_ = on;
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, on ? trace::Op::kDrainStart : trace::Op::kDrainEnd,
                        write_queue_track(cfg_.track_base), sim_.now(), write_age_.size());
  }
}

void Controller::dispatch() {
  dispatch_scheduled_ = false;
  c_dispatches_.inc();
  const Tick now = sim_.now();
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kDispatch, read_queue_track(cfg_.track_base), now,
                        read_age_.size(), write_age_.size());
  }

  dispatch_reads(now);  // reads first (FRFCFS priority)

  if (draining_ && write_age_.size() <= cfg_.drain_low_watermark) {
    set_draining(false);
  }
  const bool issue_writes =
      draining_ ||
      (cfg_.drain == ControllerConfig::DrainPolicy::kOpportunistic &&
       read_age_.empty() && !write_age_.empty());
  if (issue_writes) dispatch_writes(now);

  if (paused_count_ > 0) {
    for (u32 bank = 0; bank < paused_write_.size(); ++bank) {
      if (paused_write_[bank].has_value() && banks_[bank].idle_at(now) &&
          subarrays_[paused_write_[bank]->subarray].idle_at(now) &&
          read_by_sub_[paused_write_[bank]->subarray].empty()) {
        resume_paused(bank);
      }
    }
  }
}

u32 Controller::write_cursor(u32 bank, u32 from, Tick now) const {
  const BucketList& list = write_by_bank_[bank];
  for (u32 id = from; id != kNilIndex; id = list.next(nodes_, id)) {
    if (subarrays_[nodes_[id].at.sub].idle_at(now)) return id;
  }
  return kNilIndex;
}

void Controller::dispatch_reads(Tick now) {
  // Issue every ready read in age order. Within one dispatch, issuing
  // only occupies the issuing subarray (the ready set shrinks
  // monotonically) and the space callback can only append younger
  // requests, so collecting each ready bucket's head once and issuing
  // the sorted batch reproduces the exact issue order of repeated
  // best-ready selection — O(s + k log s) per round instead of O(k*s).
  //
  // The outer loop always re-collects (new arrivals during the batch are
  // younger than every batch element, so they issue strictly after it —
  // on the next pass) and terminates on an empty collection; the common
  // tail is one empty bitmap scan. A zero-latency service additionally
  // cuts a batch short to force the fresh pass early: it leaves the
  // issued subarray ready with a new head.
  //
  // Write pausing folds into the collection. The oldest read blocked on a
  // subarray asks the bank's in-service write to pause; the outcome
  // depends only on that bank's write, so asking once per blocked bucket
  // matches asking for every blocked read of an age-ordered sweep. A
  // boundary landing on `now` frees the subarray at once, but only for
  // the younger reads behind the asker: the sweep has already passed it,
  // so it waits for the next dispatch.
  const u32 spb = map_.subarrays_per_bank();
  pause_askers_.clear();
  for (;;) {
    read_ready_.clear();
    bitmap_for_each(subs_with_reads_, [&](u32 sub) {
      const BucketList& list = read_by_sub_[sub];
      u32 id = list.head();
      if (!subarrays_[sub].idle_at(now)) {
        if (!cfg_.write_pausing || !try_pause(sub / spb, sub) ||
            !subarrays_[sub].idle_at(now)) {
          return;
        }
        pause_askers_.push_back(id);
      }
      if (!pause_askers_.empty() &&
          std::find(pause_askers_.begin(), pause_askers_.end(), id) !=
              pause_askers_.end()) {
        id = list.next(nodes_, id);
      }
      if (id != kNilIndex) read_ready_.push_back({id, sub});
    });
    if (read_ready_.empty()) break;
    std::sort(read_ready_.begin(), read_ready_.end(),
              [&](const ReadCursor& a, const ReadCursor& b) {
                return nodes_[a.node].req.id < nodes_[b.node].req.id;
              });
    // PALP holds reads back at issue time (a skipped cursor stays linked
    // and is re-collected next pass), so a pass that admits nothing must
    // terminate the loop — the stalled reads re-arm on the pump-unload
    // completion's dispatch.
    bool issued_any = false;
    for (const ReadCursor& cur : read_ready_) {
      const u32 sub = cur.sub;
      if (palp_on_) {
        const u32 bank = sub / spb;
        if (!palp_read_admissible(bank, now)) {
          note_palp_stall(bank, now);
          continue;
        }
      }
      unlink_read(cur.node);
      issue_read(cur.node);
      issued_any = true;
      notify_space();
      if (subarrays_[sub].idle_at(now)) break;
    }
    if (!issued_any) break;
  }
}

void Controller::dispatch_writes(Tick now) {
  // One cursor per ready bank (idle, unpaused, non-empty bucket), then a
  // k-way min-selection by age: the issue order of an age-ordered sweep
  // over the whole queue. Issuing on one bank never invalidates another
  // bank's cursor within a dispatch — distinct banks own disjoint
  // subarrays — so only the issuing bank's cursor is refreshed. A gap
  // movement is the exception (it relocates a line and occupies its
  // destination bank), so it rebuilds every cursor. Like the sweep, a
  // single issue moves on past itself: writes up to `passed` stay passed
  // over even if the move made them issuable. A batch issue restarts the
  // sweep from the head.
  struct Cursor {
    u32 node;
    u32 bank;
  };
  InlineVec<Cursor, 64> ready;
  u64 passed = 0;  // req ids <= passed were passed over (0 = none)
  const auto collect = [&] {
    ready.clear();
    bitmap_for_each(banks_with_writes_, [&](u32 bank) {
      if (!bank_ready_for_write(bank, now) || paused_write_[bank].has_value()) {
        return;
      }
      const BucketList& list = write_by_bank_[bank];
      u32 from = list.head();
      while (from != kNilIndex && nodes_[from].req.id <= passed) {
        from = list.next(nodes_, from);
      }
      const u32 id = write_cursor(bank, from, now);
      if (id != kNilIndex) ready.push_back({id, bank});
    });
  };
  collect();

  while (!ready.empty()) {
    // The strict policy stops the sweep the moment draining clears.
    if (!draining_ &&
        cfg_.drain != ControllerConfig::DrainPolicy::kOpportunistic) {
      break;
    }
    u32 best = 0;
    for (u32 i = 1; i < ready.size(); ++i) {
      if (nodes_[ready[i].node].req.id < nodes_[ready[best].node].req.id) {
        best = i;
      }
    }
    const Cursor cur = ready[best];
    ready[best] = ready[ready.size() - 1];
    ready.pop_back();

    const u32 bank = cur.bank;
    const u64 issued_id = nodes_[cur.node].req.id;
    const u64 gap_moves = c_gap_moves_.value();
    u32 resume_from = kNilIndex;
    // A multi-line batch packs against the full bank budget, so under
    // PALP it needs the pump exclusively; while partition writes are
    // drawing, fall back to issuing the candidate as a single write.
    const bool can_batch =
        cfg_.write_batch > 1 &&
        (!palp_on_ || pumps_[bank].can_admit_exclusive());
    if (can_batch) {
      // Batch formation walks only this bank's list: the candidate plus
      // its same-bank successors up to the batch limit, irrespective of
      // subarray state (matching the reference gather, which filters the
      // global queue by bank only). Under PALP the gather is
      // spread-first: prefer lines in distinct partitions (overlap-
      // friendly schedules leave the other partitions' sense amps free
      // for reads), then fill the remainder in age order. Members are
      // chained through their vacated bucket link.
      BucketList& list = write_by_bank_[bank];
      BucketList batch;
      if (palp_on_) {
        const u32 spb = map_.subarrays_per_bank();
        const u32 sub_base = bank * spb;
        InlineVec<u32, 64> chosen;
        InlineVec<u64, 4> seen;
        seen.resize((spb + 63) / 64, 0);
        const std::span<u64> smask{seen.data(), seen.size()};
        for (u32 id = cur.node;
             id != kNilIndex && chosen.size() < cfg_.write_batch;
             id = list.next(nodes_, id)) {
          const u32 local = nodes_[id].at.sub - sub_base;
          if (bitmap_test(smask, local)) continue;
          bitmap_set(smask, local);
          chosen.push_back(id);
        }
        if (chosen.size() < cfg_.write_batch) {
          for (u32 id = cur.node;
               id != kNilIndex && chosen.size() < cfg_.write_batch;
               id = list.next(nodes_, id)) {
            if (std::find(chosen.begin(), chosen.end(), id) == chosen.end()) {
              chosen.push_back(id);
            }
          }
        }
        // Restore age order (node req ids are monotonic in arrival).
        std::sort(chosen.begin(), chosen.end(), [&](u32 a, u32 b) {
          return nodes_[a].req.id < nodes_[b].req.id;
        });
        for (const u32 id : chosen) {
          unlink_write(id);
          batch.push_back(nodes_, id);
        }
        // Spread picking leaves skipped older entries on the list, so
        // the zero-latency re-derive below rescans from the head.
        resume_from = list.head();
      } else {
        u32 id = cur.node;
        while (id != kNilIndex && batch.size() < cfg_.write_batch) {
          const u32 nxt = list.next(nodes_, id);
          unlink_write(id);
          batch.push_back(nodes_, id);
          id = nxt;
        }
        resume_from = id;
      }
      if (batch.size() > 1) {
        issue_write_batch(batch.head());
      } else {
        issue_write(batch.head());
      }
    } else {
      resume_from = write_by_bank_[bank].next(nodes_, cur.node);
      unlink_write(cur.node);
      issue_write(cur.node);
    }
    notify_space();
    if (draining_ && write_age_.size() <= cfg_.drain_low_watermark) {
      set_draining(false);
    }

    if (c_gap_moves_.value() != gap_moves || (can_batch && passed != 0)) {
      passed = can_batch ? 0 : issued_id;
      collect();
      continue;
    }
    // Normally the bank is now busy until the service completes and it
    // drops out of this round. A zero-latency service plan (e.g. a
    // preset scheme with no RESETs pending) leaves it idle, in which
    // case the age-ordered sweep would keep walking: re-derive this
    // bank's cursor from the issued node's successor (earlier entries
    // were unissuable, and nothing un-occupies within a dispatch).
    // Under PALP the bank re-arms whenever the pump still has a free
    // way — that is the point: a second partition write can start while
    // the first is in flight.
    if (resume_from != kNilIndex && bank_ready_for_write(bank, now) &&
        !paused_write_[bank].has_value()) {
      const u32 id = write_cursor(bank, resume_from, now);
      if (id != kNilIndex) ready.push_back({id, bank});
    }
  }
}

void Controller::relocate_queued(const Relocation& r) {
  const Placement to = remap_.place(r.dst);
  const Placement from = remap_.place(r.src);
  const auto move = [&](std::vector<BucketList>& buckets,
                        std::vector<u64>& nonempty, u32 src, u32 dst) {
    for (u32 id = buckets[src].head(); id != kNilIndex;) {
      const u32 nxt = buckets[src].next(nodes_, id);
      if (nodes_[id].at.phys == r.src) {
        nodes_[id].at = to;
        if (src != dst) {
          buckets[src].erase(nodes_, id);
          // Keep the destination bucket in age order.
          BucketList& list = buckets[dst];
          u32 pos = list.head();
          while (pos != kNilIndex && nodes_[pos].req.id < nodes_[id].req.id) {
            pos = list.next(nodes_, pos);
          }
          list.insert_before(nodes_, pos, id);
          bitmap_set(nonempty, dst);
        }
      }
      id = nxt;
    }
    if (buckets[src].empty()) bitmap_clear(nonempty, src);
  };
  move(write_by_bank_, banks_with_writes_, from.bank, to.bank);
  move(read_by_sub_, subs_with_reads_, from.sub, to.sub);
}

// -- Fault injection ------------------------------------------------------

void Controller::note_stuck_remap(const Placement& at) {
  if (!remap_.redirects()) return;
  const u32 raw = map_.flat_bank(at.phys);
  if (at.bank == raw) return;
  c_stuck_remaps_.inc();
  if (trace::on<kFaultCat>()) {
    trace::emit_instant(kFaultCat, trace::Op::kStuckRemap, fault_track(cfg_.track_base),
                        sim_.now(), raw, at.bank);
  }
}

double Controller::begin_plan_scope(Tick now, u32 ways) {
  // A PALP partition write plans against its share of the pump. ways is
  // the nominal divisor even when brown-out shrinks the admission
  // allowance, so the worst-case concurrent draw stays within
  // factor * budget. Dividing by 1.0 is exact, so single writers see the
  // plain brown-out factor.
  double factor = 1.0;
  if (fault_ != nullptr) {
    factor = fault_->budget_factor(now);
    if (factor != 1.0) c_brownout_writes_.inc();
  }
  const bool brownout = factor != 1.0;
  factor /= static_cast<double>(ways);
  if (factor != 1.0) scheme_.set_budget_scale(factor);
  if (brownout && trace::on<kFaultCat>()) {
    trace::emit_instant(kFaultCat, trace::Op::kBrownoutWrite,
                        fault_track(cfg_.track_base), now,
                        scheme_.effective_budget(),
                        pcm_.bank_power_budget());
  }
  return factor;
}

void Controller::end_plan_scope(double factor) {
  if (factor != 1.0) scheme_.set_budget_scale(1.0);
}

// -- PALP admission -------------------------------------------------------

u32 Controller::palp_write_allowance(Tick now) const {
  if (fault_ == nullptr) return cfg_.palp.write_ways;
  // Brown-out shrinks the concurrent-partition allowance with the same
  // factor that shrinks the packing budget; at least one write way
  // always remains (the legacy serialized behavior).
  return fault_->palp_allowance(cfg_.palp.write_ways, now, 1);
}

u32 Controller::rww_allowance(Tick now) const {
  if (fault_ == nullptr) return cfg_.palp.max_rww_reads;
  // The read cap may shrink to zero: inside a deep brown-out reads wait
  // for the pump to unload entirely (completions re-trigger dispatch,
  // so no forward-progress risk).
  return fault_->palp_allowance(cfg_.palp.max_rww_reads, now, 0);
}

bool Controller::palp_read_admissible(u32 bank, Tick now) const {
  return pumps_[bank].can_admit_read(rww_allowance(now));
}

bool Controller::bank_ready_for_write(u32 bank, Tick now) const {
  if (!palp_on_) return banks_[bank].idle_at(now);
  return pumps_[bank].can_admit_write(palp_write_allowance(now));
}

void Controller::note_palp_stall(u32 bank, Tick now) {
  c_palp_pump_stalls_.inc();
  pumps_[bank].note_stall();
  if (trace::on<kPalpCat>()) {
    trace::emit_instant(kPalpCat, trace::Op::kPalpPumpStall,
                        palp_track(cfg_.track_base, bank), now,
                        pumps_[bank].rww_reads(),
                        pumps_[bank].active_writes());
  }
}

void Controller::check_palp_admission(u32 bank) const {
  if (!verify_palp_) return;
  const std::string err = pumps_[bank].admission_error(
      cfg_.palp.write_ways, cfg_.palp.max_rww_reads);
  if (!err.empty()) {
    TW_FAIL(("PALP admission on bank " + std::to_string(bank) + ": " + err)
                .c_str());
  }
}

Tick Controller::account_write(const Placement& at,
                               const schemes::ServicePlan& plan, Tick now) {
  c_writes_.inc();
  if (plan.silent) c_silent_.inc();
  c_flipped_units_.inc(plan.flipped_units);
  if (plan.enc.active) {
    c_enc_writes_.inc();
    c_enc_coded_units_.inc(plan.enc.coded_units);
    c_enc_tag_bits_.inc(plan.enc.tag_bits);
    if (trace::on<kEncodeCat>()) {
      trace::emit_instant(kEncodeCat, trace::Op::kEncodeLine,
                          encode_track(cfg_.track_base, at.bank), now,
                          plan.enc.coded_units, plan.enc.tag_bits);
    }
  }
  energy_.add_write(plan.programmed);
  if (plan.background.total() > 0) {
    energy_.add_write(plan.background);
    wear_.record(at.phys, plan.background);
  }
  if (plan.read_before_write) {
    energy_.add_read(store_.units_per_line() * pcm_.geometry.data_unit_bits);
  }
  wear_.record(at.phys, plan.programmed);
  const Tick extra = apply_line_faults(at.phys, plan);
  a_write_units_.add(plan.write_units);
  if (plan.power_util > 0.0) a_power_util_.add(plan.power_util);
  note_row_activate(at.bank, at.phys);
  return extra;
}

Tick Controller::apply_line_faults(Addr phys,
                                   const schemes::ServicePlan& plan) {
  if (fault_ == nullptr) return 0;
  const u32 line_bits =
      store_.units_per_line() * pcm_.geometry.data_unit_bits;
  const fault::LineFaultOutcome out = fault_->plan_line_faults(
      phys, ++fault_seq_, plan, scheme_, wear_.line(phys).bits_programmed,
      line_bits);
  if (out.attempts > 0) {
    energy_.add_write(out.retry_pulses);
    wear_.record_retry(phys, out.retry_pulses);
    c_fault_retries_.inc(out.attempts);
    if (trace::on<kFaultCat>()) {
      trace::emit_instant(kFaultCat, trace::Op::kFaultRetry, fault_track(cfg_.track_base),
                          sim_.now(), out.attempts, out.extra_latency);
    }
  }
  if (out.line_failed) {
    // Retries exhausted: surface the FailedLine stat (higher-level ECC's
    // problem) and keep going — resilience means not asserting here.
    c_failed_lines_.inc();
    if (trace::on<kFaultCat>()) {
      trace::emit_instant(kFaultCat, trace::Op::kLineFailed, fault_track(cfg_.track_base),
                          sim_.now(), out.failed_sets + out.failed_resets,
                          phys);
    }
  }
  return out.extra_latency;
}

// -- Device issue paths ---------------------------------------------------

void Controller::issue_read(u32 id) {
  const Tick now = sim_.now();
  const Placement at = nodes_[id].at;
  MemoryRequest req = take_node(id);
  const Addr phys = at.phys;
  const u32 subarray = at.sub;
  const u32 bank = at.bank;
  note_stuck_remap(at);
  const Tick service = scheme_.read_latency() + cfg_.read_bus_time;
  subarrays_[subarray].occupy(now, service);
  ++inflight_;
  c_reads_.inc();
  // A read admitted while the pump is loaded counts against PALP's
  // read-after-write-current limit until its data returns.
  bool rww = false;
  if (palp_on_ && pumps_[bank].loaded()) {
    rww = true;
    pumps_[bank].begin_rww_read();
    check_palp_admission(bank);
    c_palp_overlap_reads_.inc();
    if (trace::on<kPalpCat>()) {
      trace::emit_instant(kPalpCat, trace::Op::kPalpReadOverlap,
                          palp_track(cfg_.track_base, bank), now, req.id,
                          pumps_[bank].active_writes());
    }
  }
  if (trace::on<kCat>()) {
    trace::emit_span(kCat, trace::Op::kReadService, sub_track(cfg_.track_base, subarray), now,
                     service, req.id);
  }
  note_row_activate(bank, phys);
  energy_.add_read(store_.units_per_line() * pcm_.geometry.data_unit_bits);

  req.start_tick = now;
  req.complete_tick = now + service;
  record_read_latency(req.complete_tick - req.enqueue_tick);

  const u32 slot = read_results_.put(std::move(req));
  sim_.schedule_in(
      service,
      [this, slot, bank, rww] {
        --inflight_;
        if (rww) pumps_[bank].end_rww_read();
        const MemoryRequest done = read_results_.take(slot);
        if (on_read_) on_read_(done);
        schedule_dispatch();
      },
      sim::Priority::kDeviceComplete);
}

void Controller::issue_write(u32 id) {
  const Tick now = sim_.now();
  const Placement at = nodes_[id].at;
  MemoryRequest req = take_node(id);
  const Addr logical = req.addr;
  const Addr phys = at.phys;
  const u32 bank = at.bank;
  const u32 subarray = at.sub;

  note_stuck_remap(at);
  Tick service = 0;
  {  // planning scope: the trace context ends with it
    pcm::LineBuf& line = store_.line(phys);
    // The context hands the analysis stage (packer, FSM expansion) an
    // absolute time base + bank track for its own emissions.
    trace::ScopedContext tctx(now, bank_track(cfg_.track_base, bank));
    // Writes planned inside a charge-pump brown-out window pack against
    // the shrunken budget; the scope stays open through the fault pricing
    // so retry sub-requests see the same budget. PALP additionally
    // divides the budget across the pump's write ways, since other
    // partitions may start drawing while this write is in flight.
    const double bscale =
        begin_plan_scope(now, palp_on_ ? cfg_.palp.write_ways : 1);
    const schemes::ServicePlan plan = scheme_.plan_write(line, req.data);
    service = plan.latency + account_write(at, plan, now);
    end_plan_scope(bscale);
    a_write_service_.add(to_ns(service));
  }

  if (palp_on_) {
    // Partition write: the bank interval may overlap other partitions'
    // writes (the pump admitted this way).
    banks_[bank].occupy_overlapping(now, service);
  } else {
    banks_[bank].occupy(now, service);
  }
  subarrays_[subarray].occupy(now, service);
  ++inflight_;
  bool overlapped = false;
  if (palp_on_) {
    pcm::ChargePump& pump = pumps_[bank];
    overlapped = pump.active_writes() > 0;
    pump.begin_write();
    if (overlapped) c_palp_write_overlaps_.inc();
    check_palp_admission(bank);
  }
  if (trace::on<kCat>()) {
    trace::emit_span(kCat, trace::Op::kWriteService,
                     bank_track(cfg_.track_base, bank), now, service, req.id);
  }
  if (palp_on_ && trace::on<kPalpCat>()) {
    trace::emit_span(kPalpCat, trace::Op::kPalpWriteSpan,
                     palp_track(cfg_.track_base, bank), now, service,
                     subarray);
    if (overlapped) {
      trace::emit_instant(kPalpCat, trace::Op::kPalpWriteOverlap,
                          palp_track(cfg_.track_base, bank), now, req.id,
                          pumps_[bank].active_writes());
    }
  }

  TW_ASSERT(palp_on_ || in_service_[bank].empty());
  start_service(bank, {.req = std::move(req),
                       .start = now,
                       .end = now + service,
                       .subarray = subarray});
  if (const auto move = remap_.on_write(logical)) apply_gap_move(*move);
}

void Controller::issue_write_batch(u32 head) {
  const Tick now = sim_.now();
  const u32 bank = nodes_[head].at.bank;

  // Scratch for the scheme call: batches are bounded by write_batch
  // (small), so these stay in inline storage on the steady-state path.
  // Member placements are read once, before any member's gap move.
  InlineVec<u32, 16> ids;
  InlineVec<pcm::LineBuf*, 16> lines;
  InlineVec<pcm::LogicalLine, 16> datas;
  InlineVec<Placement, 16> at;
  for (u32 id = head; id != kNilIndex; id = nodes_[id].by_bucket.next) {
    TW_ASSERT(nodes_[id].at.bank == bank);
    ids.push_back(id);
    at.push_back(nodes_[id].at);
    (void)store_.line(at.back().phys);
    datas.push_back(nodes_[id].req.data);
  }
  TW_EXPECTS(ids.size() >= 2);
  for (const Placement& p : at) lines.push_back(&store_.line(p.phys));

  trace::ScopedContext tctx(now, bank_track(cfg_.track_base, bank));
  const double bscale = begin_plan_scope(now);
  // Under PALP the scheme sees which partition each line lands in, so
  // partition-aware packers can record (and tests can assert on) the
  // spread the controller's gather produced.
  InlineVec<u32, 16> parts;
  if (palp_on_) {
    const u32 sub_base0 = bank * map_.subarrays_per_bank();
    for (const Placement& p : at) parts.push_back(p.sub - sub_base0);
  }
  const schemes::BatchServicePlan batch =
      palp_on_ ? scheme_.plan_write_batch({lines.data(), lines.size()},
                                          {datas.data(), datas.size()},
                                          {parts.data(), parts.size()})
               : scheme_.plan_write_batch({lines.data(), lines.size()},
                                          {datas.data(), datas.size()});
  TW_ASSERT(batch.per_line.size() == ids.size());
  // Batch-occupancy metrics: how many lines actually shared one packed
  // schedule and how full that schedule was (0 for serializing schemes).
  a_batch_lines_.add(static_cast<double>(ids.size()));
  if (batch.packed_lines > 0 && batch.occupancy > 0.0) {
    a_batch_occupancy_.add(batch.occupancy);
  }

  // Fault pricing extends the whole batch's bank occupancy: the retry
  // sub-requests of every member line run on the shared charge pump.
  Tick fault_extra = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const schemes::ServicePlan& plan = batch.per_line[i];
    note_stuck_remap(at[i]);
    c_batched_.inc();
    fault_extra += account_write(at[i], plan, now);
    if (const auto move = remap_.on_write(nodes_[ids[i]].req.addr)) {
      apply_gap_move(*move);
    }
  }
  end_plan_scope(bscale);
  const Tick batch_service = batch.latency + fault_extra;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    a_write_service_.add(to_ns(batch_service));
  }

  Tick start = std::max(now, banks_[bank].free_at());
  // Distinct subarrays touched by the batch, as a bank-local bitmap
  // (replaces the old std::find over a growing vector).
  const u32 spb = map_.subarrays_per_bank();
  const u32 sub_base = bank * spb;
  InlineVec<u64, 4> sub_mask;
  sub_mask.resize((spb + 63) / 64, 0);
  const std::span<u64> mask{sub_mask.data(), sub_mask.size()};
  for (const Placement& p : at) {
    const u32 local = p.sub - sub_base;
    if (!bitmap_test(mask, local)) {
      bitmap_set(mask, local);
      start = std::max(start, subarrays_[sub_base + local].free_at());
    }
  }
  banks_[bank].occupy(start, batch_service);
  u32 spread = 0;
  bitmap_for_each(mask, [&](u32 local) {
    subarrays_[sub_base + local].occupy(start, batch_service);
    ++spread;
  });
  ++inflight_;
  if (palp_on_) {
    // A full-budget batch owns the pump until it completes: partition
    // writes and capped reads both see loaded() for its duration.
    pumps_[bank].begin_exclusive();
    check_palp_admission(bank);
    a_palp_batch_spread_.add(static_cast<double>(spread));
    if (trace::on<kPalpCat>()) {
      trace::emit_instant(kPalpCat, trace::Op::kPalpBatchSpread,
                          palp_track(cfg_.track_base, bank), start,
                          ids.size(), spread);
      trace::emit_span(kPalpCat, trace::Op::kPalpWriteSpan,
                       palp_track(cfg_.track_base, bank), start,
                       batch_service, spread);
    }
  }
  if (trace::on<kCat>()) {
    trace::emit_span(kCat, trace::Op::kBatchService, bank_track(cfg_.track_base, bank), start,
                     batch_service, ids.size());
  }
  const Tick done_in = start + batch_service - now;
  sim_.schedule_in(
      done_in,
      [this, bank, head] {
        --inflight_;
        if (palp_on_) pumps_[bank].end_exclusive();
        for (u32 id = head; id != kNilIndex;) {
          const u32 next = nodes_[id].by_bucket.next;
          MemoryRequest r = take_node(id);
          id = next;
          finish_write(r);
        }
        schedule_dispatch();
      },
      sim::Priority::kDeviceComplete);
}

void Controller::apply_gap_move(const Relocation& r) {
  const Addr dst = r.dst;
  const pcm::LogicalLine content = store_.read_logical(r.src);
  pcm::LineBuf& dst_line = store_.line(dst);
  const double bscale = begin_plan_scope(sim_.now());
  const schemes::ServicePlan plan = scheme_.plan_write(dst_line, content);
  energy_.add_write(plan.programmed);
  wear_.record(dst, plan.programmed);
  const Tick gap_service = plan.latency + apply_line_faults(dst, plan);
  end_plan_scope(bscale);
  c_gap_moves_.inc();

  const Placement to = remap_.place(dst);
  const u32 bank = to.bank;
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kGapMove, bank_track(cfg_.track_base, bank),
                        sim_.now(), r.region, gap_service);
  }
  const u32 subarray = to.sub;
  note_row_activate(bank, dst);
  const Tick start = std::max({sim_.now(), banks_[bank].free_at(),
                               subarrays_[subarray].free_at()});
  banks_[bank].occupy(start, gap_service);
  subarrays_[subarray].occupy(start, gap_service);
  const Tick done_in = start + gap_service - sim_.now();
  sim_.schedule_in(done_in, [this] { schedule_dispatch(); },
                   sim::Priority::kDeviceComplete);
  relocate_queued(r);
}

void Controller::start_service(u32 bank, InService w) {
  w.epoch = ++bank_epoch_[bank];
  const u64 epoch = w.epoch;
  const Tick service = w.end - w.start;
  in_service_[bank].push_back(std::move(w));
  sim_.schedule_in(
      service, [this, bank, epoch] { complete_write(bank, epoch); },
      sim::Priority::kDeviceComplete);
}

void Controller::complete_write(u32 bank, u64 epoch) {
  std::vector<InService>& live = in_service_[bank];
  const auto it = std::find_if(live.begin(), live.end(),
                               [&](const InService& w) {
                                 return w.epoch == epoch;
                               });
  if (it == live.end()) {
    TW_ASSERT(cfg_.write_pausing);  // only a pause supersedes an epoch
    return;
  }
  MemoryRequest req = std::move(it->req);
  const Tick service = it->end - it->start;
  live.erase(it);
  if (palp_on_) pumps_[bank].end_write();
  --inflight_;
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kWriteComplete,
                        bank_track(cfg_.track_base, bank), sim_.now(), req.id,
                        service);
  }
  finish_write(req);
  schedule_dispatch();
}

bool Controller::try_pause(u32 bank, u32 wanted_subarray) {
  // Pausing excludes PALP, so a bank has at most one write in service.
  std::vector<InService>& live = in_service_[bank];
  if (live.empty() || paused_write_[bank].has_value()) return false;
  InService& active = live.front();
  if (active.subarray != wanted_subarray) return false;
  if (banks_[bank].free_at() != active.end) return false;
  if (subarrays_[active.subarray].free_at() != active.end) return false;

  const Tick now = sim_.now();
  const Tick elapsed = now - active.start;
  const Tick boundary =
      active.start + ceil_div(elapsed, cfg_.pause_quantum) * cfg_.pause_quantum;
  if (boundary >= active.end) return false;

  banks_[bank].preempt(boundary);
  subarrays_[active.subarray].preempt(boundary);
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kWritePause,
                        bank_track(cfg_.track_base, bank), boundary,
                        active.req.id, active.end - boundary);
  }
  // The record moves aside with [boundary, end) = the service still owed;
  // its pending completion event no longer finds its epoch.
  active.start = boundary;
  paused_write_[bank] = std::move(active);
  live.clear();
  ++paused_count_;
  c_pauses_.inc();

  sim_.schedule_at(boundary, [this] { schedule_dispatch(); },
                   sim::Priority::kController);
  return true;
}

void Controller::resume_paused(u32 bank) {
  TW_ASSERT(paused_write_[bank].has_value());
  const Tick now = sim_.now();
  InService w = std::move(*paused_write_[bank]);
  paused_write_[bank].reset();
  --paused_count_;

  const Tick remaining = w.end - w.start;
  banks_[bank].occupy(now, remaining);
  subarrays_[w.subarray].occupy(now, remaining);
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kWriteResume,
                        bank_track(cfg_.track_base, bank), now, w.req.id,
                        remaining);
  }
  w.start = now;
  w.end = now + remaining;
  start_service(bank, std::move(w));
}

void Controller::notify_space() {
  if (!on_space_ || space_scheduled_) return;
  space_scheduled_ = true;
  sim_.schedule_in(
      0,
      [this] {
        space_scheduled_ = false;
        if (on_space_) on_space_(kNoCreditPool);
      },
      sim::Priority::kCpu);
}

}  // namespace tw::mem
