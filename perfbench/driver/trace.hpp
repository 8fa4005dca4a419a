// trace.hpp — in-memory span recorder for the benchmark's traced runs.
//
// A span is (id, parent, run, thread, name, start, end, count): one call
// (or, for replayed layers, `count` back-to-back calls) into a layer's
// public function, timed with steady_clock.  Spans live in per-thread
// buffers owned by the recorder and are written out once, at exit
// (write_csv).  Parents follow the calling thread's open spans; a span
// opened on a thread with none open (the round engine's fill thread, pool
// workers) is parented to the run span set by RunScope.  With tracing
// off every Span is a single relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Record {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint32_t run = 0;     ///< training run the span belongs to (0 = none)
  uint32_t thread = 0;
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 1;  ///< calls the span covers
};

void enable(bool on);
bool enabled();
int64_t now_ns();

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t count = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t count_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ = 0;
};

/// Marks the training run (id, and its root span) that the calling
/// thread's spans are attributed to.  `process_wide` extends it to every
/// thread without a run of its own — for a run whose fill thread or pool
/// workers call into the model; leave it off when runs execute
/// concurrently on their own threads (campaign cells).
class RunScope {
 public:
  RunScope(uint32_t run, uint64_t run_span, bool process_wide);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  bool process_wide_;
  uint32_t prev_run_;
  uint64_t prev_span_;
};

/// Every span recorded so far, in no particular order.
std::vector<Record> snapshot();

/// Write `spans` as CSV (id,parent,run,thread,name,start_ns,end_ns,count).
void write_csv(const std::string& path, const std::vector<Record>& spans);

}  // namespace perfbench::trace
