#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};
std::atomic<uint32_t> g_run{0};
std::atomic<uint64_t> g_run_span{0};

struct Buffer {
  uint32_t thread = 0;
  std::vector<Record> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mutex

struct ThreadState {
  Buffer* buffer = nullptr;
  std::vector<uint64_t> open;  // ids of this thread's open spans
  uint32_t run = 0;            // 0 = use the process-wide run
  uint64_t run_span = 0;
};

ThreadState& state() {
  thread_local ThreadState s;
  if (!s.buffer) {
    auto buf = std::make_unique<Buffer>();
    buf->thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
    buf->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    s.buffer = buf.get();
    g_buffers.push_back(std::move(buf));
  }
  return s;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(const char* name, uint64_t count) : name_(name), count_(count) {
  if (!enabled()) return;
  ThreadState& s = state();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (!s.open.empty())
    parent_ = s.open.back();
  else
    parent_ = s.run ? s.run_span : g_run_span.load(std::memory_order_relaxed);
  s.open.push_back(id_);
  start_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = now_ns();
  ThreadState& s = state();
  s.open.pop_back();
  const uint32_t run = s.run ? s.run : g_run.load(std::memory_order_relaxed);
  s.buffer->spans.push_back(
      Record{id_, parent_, run, s.buffer->thread, name_, start_, end, count_});
}

RunScope::RunScope(uint32_t run, uint64_t run_span, bool process_wide)
    : process_wide_(process_wide) {
  ThreadState& s = state();
  prev_run_ = s.run;
  prev_span_ = s.run_span;
  s.run = run;
  s.run_span = run_span;
  if (process_wide_) {
    g_run.store(run, std::memory_order_relaxed);
    g_run_span.store(run_span, std::memory_order_relaxed);
  }
}

RunScope::~RunScope() {
  ThreadState& s = state();
  s.run = prev_run_;
  s.run_span = prev_span_;
  if (process_wide_) {
    g_run.store(0, std::memory_order_relaxed);
    g_run_span.store(0, std::memory_order_relaxed);
  }
}

std::vector<Record> snapshot() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Record> out;
  for (const auto& b : g_buffers) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

void write_csv(const std::string& path, const std::vector<Record>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  std::fprintf(out, "id,parent,run,thread,name,start_ns,end_ns,count\n");
  for (const Record& r : spans)
    std::fprintf(out, "%llu,%llu,%u,%u,%s,%lld,%lld,%llu\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent), r.run, r.thread, r.name,
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.count));
  if (std::fclose(out) != 0) throw std::runtime_error("trace: cannot write " + path);
}

}  // namespace perfbench::trace
