// Self-test of span recording and the self-time arithmetic: synthetic
// nested spans with known timestamps, then live nested spans recorded on
// two threads at once. Exits non-zero when any check fails.

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "span.hpp"

namespace {

using twbench::kNoParent;
using twbench::Layer;
using twbench::Site;
using twbench::Span;
using twbench::ThreadSpans;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "span_test: FAILED %s\n", what);
    ++g_failures;
  }
}

std::int64_t self(const twbench::Reduction& r, Layer l) {
  return r.self_ns[static_cast<std::size_t>(l)];
}

// cpu [0,100) holds next [10,30) and enqueue [40,90); enqueue holds
// plan_write [50,70). A second thread has a top-level plan_write [0,25).
void synthetic_arithmetic() {
  ThreadSpans main_thread;
  main_thread.main = true;
  main_thread.spans = {
      Span{0, 100, 7, kNoParent, Site::kReadDone},
      Span{10, 30, 7, 0, Site::kNext},
      Span{40, 90, 7, 0, Site::kEnqueue},
      Span{50, 70, 0, 2, Site::kPlanWrite},
  };
  ThreadSpans pool_thread;
  pool_thread.spans = {Span{0, 25, 0, kNoParent, Site::kPlanWrite}};

  const twbench::Reduction r = twbench::reduce({main_thread, pool_thread});
  check(self(r, Layer::kCpu) == 100 - 20 - 50, "cpu self = 100 - children");
  check(self(r, Layer::kWorkload) == 20, "workload self = its duration");
  check(self(r, Layer::kMem) == 50 - 20, "mem self = 50 - plan_write");
  check(self(r, Layer::kScheme) == 20 + 25, "scheme self sums both threads");
  check(r.main_top_ns == 100, "main top-level = cpu span only");
  check(r.front_top_ns == 100, "front top-level = cpu span only");
  check(r.calls[static_cast<std::size_t>(Site::kPlanWrite)] == 2,
        "plan_write counted on both threads");
  check(r.negative == 0, "no negative self time in well-nested spans");

  // Children that cover more than their parent are reported, not hidden.
  ThreadSpans bad;
  bad.main = true;
  bad.spans = {Span{0, 10, 0, kNoParent, Site::kSpace},
               Span{0, 20, 0, 0, Site::kNext}};
  check(twbench::reduce({bad}).negative == 1, "overlapping child flagged");
}

void spin_for(std::int64_t ns) {
  const std::int64_t until = twbench::now_ns() + ns;
  while (twbench::now_ns() < until) {
  }
}

// Each thread opens cpu > {workload, mem > scheme} spans many times.
void nested_calls(twbench::SpanRecorder& rec, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const twbench::SpanRecorder::Scope cpu(rec, Site::kSpace, 0);
    spin_for(200);
    {
      const twbench::SpanRecorder::Scope next(rec, Site::kNext, 1);
      spin_for(100);
    }
    const twbench::SpanRecorder::Scope enq(rec, Site::kEnqueue, 1);
    const twbench::SpanRecorder::Scope plan(rec, Site::kPlanWrite, 0);
    spin_for(50);
  }
}

void two_threads_live() {
  constexpr int kRounds = 2000;
  twbench::SpanRecorder rec;
  std::thread other([&] { nested_calls(rec, kRounds); });
  nested_calls(rec, kRounds);
  other.join();

  const std::vector<ThreadSpans> threads = rec.take();
  check(threads.size() == 2, "one buffer per recording thread");
  std::size_t mains = 0;
  for (const ThreadSpans& t : threads) {
    mains += t.main ? 1 : 0;
    check(t.spans.size() == 4 * kRounds, "every span kept");
    bool links_ok = true;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      links_ok = links_ok && s.end_ns >= s.start_ns;
      if (s.parent != kNoParent) {
        const Span& p = t.spans[s.parent];
        links_ok = links_ok && s.parent < i && p.start_ns <= s.start_ns &&
                   s.end_ns <= p.end_ns;
      }
    }
    check(links_ok, "children nest inside their parents");
  }
  check(mains == 1, "exactly the constructing thread is main");

  const twbench::Reduction r = twbench::reduce(threads);
  check(r.negative == 0, "no span with negative self time");
  for (std::size_t l = 0; l < twbench::kLayerCount; ++l) {
    check(r.self_ns[l] > 0, "every layer has positive self time");
  }
  check(r.calls[static_cast<std::size_t>(Site::kNext)] == 2 * kRounds,
        "calls counted across threads");
  std::int64_t main_top = 0;
  std::int64_t all_dur = 0;
  std::int64_t all_self = 0;
  for (const ThreadSpans& t : threads) {
    for (const Span& s : t.spans) {
      if (s.parent == kNoParent) {
        all_dur += s.end_ns - s.start_ns;
        if (t.main) main_top += s.end_ns - s.start_ns;
      }
    }
  }
  for (const std::int64_t ns : r.self_ns) all_self += ns;
  check(r.main_top_ns == main_top, "main top-level = its root spans");
  check(all_self == all_dur, "self times partition the root spans");
  check(rec.take()[0].spans.empty(), "take() drains the buffers");
}

}  // namespace

int main() {
  synthetic_arithmetic();
  two_threads_live();
  if (g_failures == 0) std::puts("span_test: all checks passed");
  return g_failures == 0 ? 0 : 1;
}
