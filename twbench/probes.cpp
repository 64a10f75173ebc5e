#include "probes.hpp"

#include <utility>

namespace twbench {

using Scope = SpanRecorder::Scope;

ProbedSource::ProbedSource(tw::workload::RequestSource& inner,
                           SpanRecorder& rec, tw::u32 cores)
    : inner_(inner), rec_(rec), current_(cores, 0) {}

tw::workload::TraceOp ProbedSource::next(tw::u32 core) {
  // Ids are (core + 1) << 40 | per-core sequence, so 0 stays "none".
  std::uint64_t& id = current_[core];
  id = id == 0 ? (std::uint64_t{core} + 1) << 40 : id + 1;
  const Scope span(rec_, Site::kNext, id);
  return inner_.next(core);
}

tw::pcm::LogicalLine ProbedSource::make_write_data(tw::Addr addr,
                                                   tw::mem::DataStore& store,
                                                   tw::u32 core) {
  const Scope span(rec_, Site::kMakeWriteData, current_[core]);
  return inner_.make_write_data(addr, store, core);
}

ProbedMemory::ProbedMemory(tw::mem::MemoryInterface& inner, SpanRecorder& rec,
                           const ProbedSource& source)
    : inner_(inner), rec_(rec), source_(source) {}

bool ProbedMemory::enqueue(tw::mem::MemoryRequest req) {
  const Scope span(rec_, Site::kEnqueue, source_.request_of(req.core));
  const bool ok = inner_.enqueue(std::move(req));
  if (ok) ++accepted_;
  return ok;
}

// A completion wakes the core stalled on its pending request, so the
// callback span carries that request's id.
void ProbedMemory::set_read_callback(ReadCallback cb) {
  inner_.set_read_callback(
      [this, cb = std::move(cb)](const tw::mem::MemoryRequest& req) {
        const Scope span(rec_, Site::kReadDone, source_.request_of(req.core));
        cb(req);
      });
}

void ProbedMemory::set_write_callback(WriteCallback cb) {
  inner_.set_write_callback(
      [this, cb = std::move(cb)](const tw::mem::MemoryRequest& req) {
        const Scope span(rec_, Site::kWriteDone, source_.request_of(req.core));
        cb(req);
      });
}

// Freed queue space wakes every stalled core, so it belongs to no one
// request.
void ProbedMemory::set_space_callback(SpaceCallback cb) {
  inner_.set_space_callback([this, cb = std::move(cb)] {
    const Scope span(rec_, Site::kSpace, 0);
    cb();
  });
}

tw::mem::DataStore& ProbedMemory::store_for(tw::Addr addr) {
  const Scope span(rec_, Site::kStoreFor, 0);
  return inner_.store_for(addr);
}

ProbedScheme::ProbedScheme(std::unique_ptr<tw::schemes::WriteScheme> inner,
                           SpanRecorder& rec)
    : tw::schemes::WriteScheme(inner->config()),
      inner_(std::move(inner)),
      rec_(rec) {}

tw::schemes::ServicePlan ProbedScheme::plan_write(
    tw::pcm::LineBuf& line, const tw::pcm::LogicalLine& next) const {
  const Scope span(rec_, Site::kPlanWrite, 0);
  ++lines_;
  return inner_->plan_write(line, next);
}

tw::schemes::BatchServicePlan ProbedScheme::plan_write_batch(
    std::span<tw::pcm::LineBuf*> lines,
    std::span<const tw::pcm::LogicalLine> datas) const {
  const Scope span(rec_, Site::kPlanWriteBatch, 0);
  lines_ += lines.size();
  return inner_->plan_write_batch(lines, datas);
}

tw::schemes::BatchServicePlan ProbedScheme::plan_write_batch(
    std::span<tw::pcm::LineBuf*> lines,
    std::span<const tw::pcm::LogicalLine> datas,
    std::span<const tw::u32> partitions) const {
  const Scope span(rec_, Site::kPlanWriteBatchPart, 0);
  lines_ += lines.size();
  return inner_->plan_write_batch(lines, datas, partitions);
}

tw::Tick ProbedScheme::plan_retry(const tw::BitTransitions& failed,
                                  tw::u32 attempt, double widen) const {
  const Scope span(rec_, Site::kPlanRetry, 0);
  return inner_->plan_retry(failed, attempt, widen);
}

tw::pcm::LogicalLine ProbedScheme::decode_stored(
    const tw::pcm::LineBuf& line) const {
  const Scope span(rec_, Site::kDecodeStored, 0);
  return inner_->decode_stored(line);
}

}  // namespace twbench
