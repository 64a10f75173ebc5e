#include "span.hpp"

#include <atomic>

namespace twbench {

namespace {

/// Recorder generations start at 1 so a thread's zero-initialized cache
/// never matches, and a new recorder never reuses a dead one's buffers.
std::atomic<std::uint64_t> g_next_generation{1};

constexpr std::array<Layer, kSiteCount> kSiteLayer = {
    Layer::kWorkload, Layer::kWorkload, Layer::kCpu,    Layer::kCpu,
    Layer::kCpu,      Layer::kMem,      Layer::kMem,    Layer::kScheme,
    Layer::kScheme,   Layer::kScheme,   Layer::kScheme, Layer::kScheme,
};

constexpr std::array<std::string_view, kSiteCount> kSiteName = {
    "workload.next",          "workload.make_write_data",
    "cpu.read_done",          "cpu.write_done",
    "cpu.space",              "mem.enqueue",
    "mem.store_for",          "scheme.plan_write",
    "scheme.plan_write_batch", "scheme.plan_write_batch_partitioned",
    "scheme.plan_retry",      "scheme.decode_stored",
};

}  // namespace

Layer layer_of(Site site) { return kSiteLayer[static_cast<std::size_t>(site)]; }

std::string_view site_name(Site site) {
  return kSiteName[static_cast<std::size_t>(site)];
}

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1)),
      owner_(std::this_thread::get_id()) {}

SpanBuffer& SpanRecorder::register_thread() {
  auto buf = std::make_unique<SpanBuffer>();
  buf->thread = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::move(buf));
  return *buffers_.back();
}

std::vector<ThreadSpans> SpanRecorder::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSpans> out;
  out.reserve(buffers_.size());
  for (auto& buf : buffers_) {
    out.push_back(ThreadSpans{buf->thread == owner_, std::move(buf->spans)});
    buf->spans.clear();
    buf->open = kNoParent;
  }
  return out;
}

Reduction reduce(const std::vector<ThreadSpans>& threads) {
  Reduction r;
  std::vector<std::int64_t> child_ns;
  for (const ThreadSpans& t : threads) {
    const std::vector<Span>& spans = t.spans;
    child_ns.assign(spans.size(), 0);
    // A child always opens after its parent, so a backward sweep has
    // every child's duration summed before its parent is visited.
    for (std::size_t i = spans.size(); i-- > 0;) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::int64_t self = dur - child_ns[i];
      if (self < 0) ++r.negative;
      const Layer layer = layer_of(s.site);
      r.self_ns[static_cast<std::size_t>(layer)] += self;
      ++r.calls[static_cast<std::size_t>(s.site)];
      if (s.parent != kNoParent) {
        child_ns[s.parent] += dur;
      } else if (t.main) {
        r.main_top_ns += dur;
        if (layer != Layer::kScheme) r.front_top_ns += dur;
      }
    }
  }
  return r;
}

}  // namespace twbench
