// Span tracer half of the telemetry layer (obs/): RAII spans stamped
// with BOTH clocks — wall time (steady_clock nanoseconds since the
// tracer's epoch) and, where a clock source is installed, the virtual
// sim_time of the node the span belongs to. Exported as Chrome
// trace-event JSON ("X" complete events, one process track per node),
// loadable in Perfetto / chrome://tracing, so a simulated run and a TCP
// run of the same schedule produce structurally comparable traces.
//
// Hot-path contract:
//  * A Span against a null or disabled tracer is a no-op: one or two
//    branches, no clock reads, no allocation — instrumented paths cost
//    nothing when no sink is installed (pinned by the obs tests and
//    BM_SpanStartStopDisabled).
//  * An enabled span is two clock reads plus a push into a PER-THREAD
//    event buffer (registered once per thread, then wait-free against
//    other threads). Buffers are bounded (set_max_events_per_thread);
//    events past the cap are counted as dropped, never reallocated
//    unboundedly.
//  * kCompute-category spans (GEMM, thread-pool dispatch) are
//    additionally gated by set_capture_compute — they are high-frequency
//    and off by default so protocol traces stay readable.
//
// Event identity: fixed-size name buffer (no heap), a category, the
// owning node id (-1 = process-local work with no protocol node), the
// global iteration, and an optional byte payload size for wire events.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mdgan::obs {

enum class Cat : std::uint8_t { kPhase, kNet, kCompute, kRound };
const char* cat_name(Cat cat);

struct TraceEvent {
  static constexpr std::size_t kNameCap = 32;
  char name[kNameCap];
  Cat cat = Cat::kPhase;
  std::int32_t node = -1;        // protocol node id; -1 = local compute
  std::uint32_t tid = 0;         // per-thread track, filled at emit
  std::int64_t wall_t0_ns = 0;   // since the tracer's epoch
  std::int64_t wall_dur_ns = 0;
  double sim_t0 = -1.0;          // seconds; < 0 = no sim clock attached
  double sim_t1 = -1.0;
  std::int64_t iter = -1;        // global round; < 0 = not round-scoped
  std::uint64_t bytes = 0;       // payload size for kNet events
  std::uint64_t flow = 0;        // cross-node flow id; 0 = no flow. The
                                 // sender's send:<tag> and the receiver's
                                 // recv:<tag> carry the SAME id (shipped in
                                 // the frame head), which is what lets the
                                 // trace merger draw a Perfetto flow arrow
                                 // between them.
};

// Per-peer trace-clock offset sample (TCP only; sim traces share one
// virtual clock and need none). offset_ns is "how far ahead of OUR
// trace epoch that node's trace epoch runs": their_ns + offset_ns ≈
// our_ns. Estimated from heartbeat RTT midpoints; the minimum-RTT
// sample is kept because queueing delay only ever inflates RTT.
struct ClockOffset {
  std::int64_t offset_ns = 0;
  double rtt_s = -1.0;  // RTT of the kept sample; < 0 = no sample yet
};

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Master switch, checked first by every span; a disabled tracer
  // records nothing and costs a relaxed load.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opt-in for the high-frequency kCompute category.
  void set_capture_compute(bool on) {
    capture_compute_.store(on, std::memory_order_relaxed);
  }
  bool capture_compute() const {
    return capture_compute_.load(std::memory_order_relaxed);
  }

  // Per-thread buffer cap; events beyond it are dropped (and counted).
  void set_max_events_per_thread(std::size_t cap) { max_events_ = cap; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Virtual-clock source used to stamp sim_t0/sim_t1 on spans: maps a
  // node id to that node's sim_time seconds. Install ONCE, before spans
  // start (reads are unsynchronized by design). The callback must not
  // emit spans on this tracer (re-entrancy) — transports therefore
  // stamp their own events directly instead of using the callback.
  void set_sim_clock(std::function<double(int)> clock);
  bool has_sim_clock() const { return static_cast<bool>(sim_clock_); }
  // -1 when no clock is installed or the node is not protocol-addressed.
  double sim_now(int node) const;

  // Nanoseconds since the tracer's construction (the trace epoch).
  std::int64_t now_ns() const;

  // The protocol node this process records for (-1 = unknown). Written
  // into the trace head so the merger knows which file is which node —
  // and which one (the server) is the clock-offset reference.
  void set_local_node(int node) {
    local_node_.store(node, std::memory_order_relaxed);
  }
  int local_node() const {
    return local_node_.load(std::memory_order_relaxed);
  }

  // Records a clock-offset sample for `node` (see ClockOffset); keeps
  // the minimum-RTT sample. Called from the heartbeat pump on pongs.
  void offer_clock_offset(int node, std::int64_t offset_ns, double rtt_s);
  // Snapshot of all offset samples, keyed by node id.
  std::vector<std::pair<int, ClockOffset>> clock_offsets() const;

  // Records `ev` into this thread's buffer (no-op when disabled).
  void emit(const TraceEvent& ev);

  // Merged copy of every thread's events, in per-thread program order,
  // stably sorted by wall start time. Safe to call concurrently with
  // emits; events recorded during the call may or may not appear.
  std::vector<TraceEvent> snapshot() const;
  std::size_t event_count() const;

  // Chrome trace-event JSON: an object with a traceEvents array of "X"
  // events (ts/dur in microseconds, pid = node, tid = recording
  // thread) plus process_name metadata per node. args carry iter,
  // sim_t0_s/sim_t1_s (when stamped) and bytes (when nonzero).
  void write_chrome_trace(std::ostream& os) const;
  // Convenience: write to `path`; false (with a log line) on I/O error.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::thread::id owner;
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuf* local_buf();

  const std::uint64_t id_;  // process-unique, for thread-slot validation
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> capture_compute_{false};
  std::atomic<int> local_node_{-1};
  std::size_t max_events_ = 1u << 18;
  std::atomic<std::uint64_t> dropped_{0};
  std::function<double(int)> sim_clock_;
  mutable std::mutex mu_;  // guards bufs_ registration and snapshot
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  mutable std::mutex offsets_mu_;  // guards offsets_ (heartbeat-rate, cold)
  std::vector<std::pair<int, ClockOffset>> offsets_;
};

// RAII span: captures wall + sim start at construction, emits a
// complete event at destruction. Null/disabled tracer => inert.
class Span {
 public:
  Span(Tracer* tracer, const char* name, Cat cat, int node,
       std::int64_t iter = -1)
      : tracer_(nullptr) {
    if (tracer == nullptr || !tracer->enabled()) return;
    if (cat == Cat::kCompute && !tracer->capture_compute()) return;
    tracer_ = tracer;
    std::strncpy(ev_.name, name, TraceEvent::kNameCap - 1);
    ev_.name[TraceEvent::kNameCap - 1] = '\0';
    ev_.cat = cat;
    ev_.node = node;
    ev_.iter = iter;
    ev_.wall_t0_ns = tracer->now_ns();
    ev_.sim_t0 = tracer->sim_now(node);
  }

  ~Span() {
    if (tracer_ == nullptr) return;
    ev_.wall_dur_ns = tracer_->now_ns() - ev_.wall_t0_ns;
    ev_.sim_t1 = tracer_->sim_now(ev_.node);
    tracer_->emit(ev_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attach a payload size (wire spans).
  void add_bytes(std::uint64_t bytes) {
    if (tracer_ != nullptr) ev_.bytes += bytes;
  }
  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  TraceEvent ev_;
};

}  // namespace mdgan::obs
