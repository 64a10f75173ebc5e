#include "tw/cpu/core.hpp"

#include <cmath>

#include "tw/common/assert.hpp"
#include "tw/mem/request.hpp"
#include "tw/trace/emit.hpp"

namespace tw::cpu {

StallFifo::Queue& StallFifo::of(u32 pool) {
  if (pool == mem::MemoryInterface::kNoCreditPool) return unpooled_;
  // Pools are dense ids (MemoryInterface::credit_pool).
  if (pool >= pools_.size()) pools_.resize(pool + 1);
  return pools_[pool];
}

bool StallFifo::any_pooled() const {
  for (const Queue& q : pools_) {
    if (!q.empty()) return true;
  }
  return false;
}

Core::Core(sim::Simulator& sim, u32 id, CoreConfig cfg,
           mem::MemoryInterface& mem, workload::RequestSource& gen,
           u64 instruction_budget, StallFifo& stalled)
    : sim_(sim),
      id_(id),
      cfg_(cfg),
      clock_(cfg.clock_period),
      ctl_(mem),
      gen_(gen),
      stalled_(stalled),
      budget_(instruction_budget) {
  TW_EXPECTS(cfg.valid());
  TW_EXPECTS(instruction_budget > 0);
}

void Core::start() {
  TW_EXPECTS(state_ == State::kIdle);
  execute_gap();
}

void Core::execute_gap() {
  if (retired_ >= budget_) {
    state_ = State::kDone;
    finish_if_done();
    return;
  }
  if (!has_pending_) {
    // Cache-filtered sources walk the hierarchy inside next(); give their
    // miss/writeback emissions a time base and this core's cache track.
    trace::ScopedContext tctx(sim_.now(),
                              trace::track_id(trace::Track::kCache, id_));
    pending_ = gen_.next(id_);
    if (pending_.is_write) {
      pending_data_ = gen_.make_write_data(
          pending_.addr, ctl_.store_for(pending_.addr), id_);
    }
    has_pending_ = true;
  }
  state_ = State::kExecuting;
  const double cycles =
      std::ceil(static_cast<double>(pending_.gap) / cfg_.peak_ipc);
  const Tick exec = clock_.cycles(static_cast<u64>(cycles));
  sim_.schedule_in(
      exec,
      [this] {
        state_ = State::kIssuing;
        try_issue();
      },
      sim::Priority::kCpu);
}

void Core::try_issue() {
  if (state_ != State::kIssuing && state_ != State::kStallMlp &&
      state_ != State::kStallQueue) {
    return;
  }
  TW_ASSERT(has_pending_);

  mem::MemoryRequest req;
  req.addr = pending_.addr;
  req.core = id_;

  if (pending_.is_write) {
    req.type = mem::ReqType::kWrite;
    req.data = pending_data_;
    if (!ctl_.enqueue(std::move(req))) {
      stall_on_queue();
      return;  // resumed by on_queue_space
    }
    ++writes_issued_;
  } else {
    if (outstanding_reads_ >= cfg_.mlp) {
      if (state_ != State::kStallMlp) ++stall_events_;
      state_ = State::kStallMlp;
      return;  // resumed by on_read_complete
    }
    req.type = mem::ReqType::kRead;
    if (!ctl_.enqueue(std::move(req))) {
      stall_on_queue();
      return;
    }
    ++outstanding_reads_;
    ++reads_issued_;
  }

  // The gap's instructions plus the memory instruction retire.
  retired_ += pending_.gap + 1;
  has_pending_ = false;
  execute_gap();
}

void Core::stall_on_queue() {
  // A refused retry keeps the core's place in the FIFO.
  if (state_ == State::kStallQueue) return;
  ++stall_events_;
  state_ = State::kStallQueue;
  stalled_.push(this, ctl_.credit_pool(pending_.addr, pending_.is_write));
}

void Core::on_read_complete() {
  TW_ASSERT(outstanding_reads_ > 0);
  --outstanding_reads_;
  if (state_ == State::kStallMlp) {
    try_issue();
  } else if (state_ == State::kDone) {
    finish_if_done();
  }
}

bool Core::on_queue_space() {
  if (state_ == State::kStallQueue) try_issue();
  return state_ != State::kStallQueue;
}

void Core::finish_if_done() {
  if (finished_ || state_ != State::kDone) return;
  // Retirement is complete; wait for in-flight reads to drain so the
  // measured runtime includes their latency.
  if (outstanding_reads_ > 0) return;
  finished_ = true;
  finish_tick_ = sim_.now();
}

double Core::ipc() const {
  if (!finished_ || finish_tick_ == 0) return 0.0;
  const double cycles = static_cast<double>(clock_.cycles_at(finish_tick_));
  return cycles <= 0.0 ? 0.0 : static_cast<double>(retired_) / cycles;
}

}  // namespace tw::cpu
