#pragma once
// Layer probes attached from outside the library, through the seams
// cpu::MultiCore and mem::MemorySystem already take. Each forwards every
// call unchanged to the object it wraps and records one span around it;
// none of them touches simulated state, so a probed run must reproduce
// the bare run's statistics exactly (transparency_test checks this).

#include <memory>
#include <vector>

#include "span.hpp"
#include "tw/mem/interface.hpp"
#include "tw/schemes/write_scheme.hpp"
#include "tw/workload/source.hpp"

namespace twbench {

/// RequestSource proxy: spans the workload layer and numbers core
/// requests. A core's request begins at next(); its id is shared by every
/// span working for it until that core's following next().
class ProbedSource final : public tw::workload::RequestSource {
 public:
  ProbedSource(tw::workload::RequestSource& inner, SpanRecorder& rec,
               tw::u32 cores);

  tw::workload::TraceOp next(tw::u32 core) override;
  tw::pcm::LogicalLine make_write_data(tw::Addr addr, tw::mem::DataStore& store,
                                       tw::u32 core) override;

  /// Id of `core`'s current request (0 before its first next()).
  std::uint64_t request_of(tw::u32 core) const { return current_[core]; }

 private:
  tw::workload::RequestSource& inner_;
  SpanRecorder& rec_;
  std::vector<std::uint64_t> current_;
};

/// MemoryInterface proxy: spans enqueue/store_for as the mem layer and
/// wraps the callbacks the cores register as the cpu layer.
class ProbedMemory final : public tw::mem::MemoryInterface {
 public:
  ProbedMemory(tw::mem::MemoryInterface& inner, SpanRecorder& rec,
               const ProbedSource& source);
  ProbedMemory(const ProbedMemory&) = delete;
  ProbedMemory& operator=(const ProbedMemory&) = delete;

  bool enqueue(tw::mem::MemoryRequest req) override;
  void set_read_callback(ReadCallback cb) override;
  void set_write_callback(WriteCallback cb) override;
  void set_space_callback(SpaceCallback cb) override;
  bool idle() const override { return inner_.idle(); }
  tw::mem::DataStore& store_for(tw::Addr addr) override;

  std::uint64_t accepted() const { return accepted_; }

 private:
  tw::mem::MemoryInterface& inner_;
  SpanRecorder& rec_;
  const ProbedSource& source_;
  std::uint64_t accepted_ = 0;
};

/// WriteScheme decorator: spans every planning and decoding call as the
/// scheme layer and counts the lines planned. It forwards the brown-out
/// budget scale and transforms_content() too, since the controller reads
/// both through the outermost scheme.
class ProbedScheme final : public tw::schemes::WriteScheme {
 public:
  ProbedScheme(std::unique_ptr<tw::schemes::WriteScheme> inner,
               SpanRecorder& rec);

  std::string_view name() const override { return inner_->name(); }
  tw::schemes::SchemeKind kind() const override { return inner_->kind(); }
  tw::schemes::WriteSemantics semantics() const override {
    return inner_->semantics();
  }
  tw::schemes::ServicePlan plan_write(
      tw::pcm::LineBuf& line, const tw::pcm::LogicalLine& next) const override;
  tw::schemes::BatchServicePlan plan_write_batch(
      std::span<tw::pcm::LineBuf*> lines,
      std::span<const tw::pcm::LogicalLine> datas) const override;
  tw::schemes::BatchServicePlan plan_write_batch(
      std::span<tw::pcm::LineBuf*> lines,
      std::span<const tw::pcm::LogicalLine> datas,
      std::span<const tw::u32> partitions) const override;
  tw::Tick plan_retry(const tw::BitTransitions& failed, tw::u32 attempt,
                      double widen) const override;
  tw::pcm::LogicalLine decode_stored(
      const tw::pcm::LineBuf& line) const override;
  bool transforms_content() const override {
    return inner_->transforms_content();
  }
  void set_budget_scale(double scale) override {
    tw::schemes::WriteScheme::set_budget_scale(scale);
    inner_->set_budget_scale(scale);
  }

  /// Lines handed to plan_write / plan_write_batch. Each channel's
  /// instance is only called from the thread running that channel's
  /// window, so a plain counter suffices.
  std::uint64_t lines() const { return lines_; }

 private:
  std::unique_ptr<tw::schemes::WriteScheme> inner_;
  SpanRecorder& rec_;
  mutable std::uint64_t lines_ = 0;
};

}  // namespace twbench
