#pragma once
// Span recording for the benchmark's layer probes.
//
// A span covers one probed call: its site (which names its layer), host
// start and end in steady-clock nanoseconds, the enclosing span on the
// same thread, and the core-request identifier it works for. Each thread
// appends to its own buffer, so probes running on pool threads inside
// the sharded engine's parallel phase never contend; take() merges the
// buffers once every recording thread has gone quiet. A layer's self
// time is its spans' durations minus the durations of their direct
// children.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace twbench {

enum class Layer : std::uint8_t { kWorkload, kCpu, kMem, kScheme };
inline constexpr std::size_t kLayerCount = 4;

/// Probed call sites; each span is named by one.
enum class Site : std::uint8_t {
  kNext,                  ///< RequestSource::next
  kMakeWriteData,         ///< RequestSource::make_write_data
  kReadDone,              ///< read-completion callback
  kWriteDone,             ///< write-completion callback
  kSpace,                 ///< queue-space callback
  kEnqueue,               ///< MemoryInterface::enqueue
  kStoreFor,              ///< MemoryInterface::store_for
  kPlanWrite,             ///< WriteScheme::plan_write
  kPlanWriteBatch,        ///< WriteScheme::plan_write_batch
  kPlanWriteBatchPart,    ///< partition-aware plan_write_batch
  kPlanRetry,             ///< WriteScheme::plan_retry
  kDecodeStored,          ///< WriteScheme::decode_stored
};
inline constexpr std::size_t kSiteCount = 12;

Layer layer_of(Site site);
std::string_view site_name(Site site);

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  ///< core-request id (0 = none)
  std::uint32_t parent = kNoParent;  ///< index in the same thread's spans
  Site site = Site::kNext;
};

/// The spans one thread recorded, in opening order.
struct ThreadSpans {
  bool main = false;  ///< recorded on the thread that built the recorder
  std::vector<Span> spans;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's recording state inside a SpanRecorder.
struct SpanBuffer {
  std::thread::id thread;
  std::vector<Span> spans;
  std::uint32_t open = kNoParent;  ///< innermost open span
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Records one span for the lifetime of the scope, on the calling
  /// thread's buffer.
  class Scope {
   public:
    Scope(SpanRecorder& rec, Site site, std::uint64_t request)
        : buf_(&rec.local()),
          index_(static_cast<std::uint32_t>(buf_->spans.size())) {
      buf_->spans.push_back(Span{now_ns(), 0, request, buf_->open, site});
      buf_->open = index_;
    }
    ~Scope() {
      Span& s = buf_->spans[index_];
      s.end_ns = now_ns();
      buf_->open = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanBuffer* buf_;
    std::uint32_t index_;
  };

  /// Move every thread's spans out (buffers stay registered). Call only
  /// while no thread is recording.
  std::vector<ThreadSpans> take();

 private:
  /// The calling thread's buffer, registered on its first span.
  SpanBuffer& local() {
    thread_local std::uint64_t cached_generation = 0;
    thread_local SpanBuffer* cached = nullptr;
    if (cached_generation != generation_) {
      cached = &register_thread();
      cached_generation = generation_;
    }
    return *cached;
  }
  SpanBuffer& register_thread();

  std::uint64_t generation_;
  std::thread::id owner_;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;  // guarded by mu_
};

/// Per-layer sums over a set of spans.
struct Reduction {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kSiteCount> calls{};
  /// Top-level spans (no parent) on the main thread, all layers.
  std::int64_t main_top_ns = 0;
  /// Top-level workload, cpu and mem spans on the main thread.
  std::int64_t front_top_ns = 0;
  /// Spans whose children cover more than the span itself (must be 0).
  std::uint64_t negative = 0;
};

Reduction reduce(const std::vector<ThreadSpans>& threads);

}  // namespace twbench
