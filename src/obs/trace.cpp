#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

#include "common/log.hpp"

namespace mdgan::obs {

const char* cat_name(Cat cat) {
  switch (cat) {
    case Cat::kPhase:
      return "phase";
    case Cat::kNet:
      return "net";
    case Cat::kCompute:
      return "compute";
    case Cat::kRound:
      return "round";
  }
  return "?";
}

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

// Per-thread slot caching the buffer of the tracer this thread last
// emitted into. The id check (ids are process-unique and never reused)
// makes a stale slot — a destroyed tracer, or a switch to another
// tracer — fall through to the tracer's own lookup instead of touching
// freed memory.
struct Slot {
  std::uint64_t tracer_id = 0;
  void* buf = nullptr;
};
thread_local Slot t_slot;

}  // namespace

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

void Tracer::set_sim_clock(std::function<double(int)> clock) {
  sim_clock_ = std::move(clock);
}

double Tracer::sim_now(int node) const {
  if (!sim_clock_ || node < 0) return -1.0;
  return sim_clock_(node);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::offer_clock_offset(int node, std::int64_t offset_ns,
                                double rtt_s) {
  std::lock_guard<std::mutex> lock(offsets_mu_);
  for (auto& [n, off] : offsets_) {
    if (n != node) continue;
    // Queueing delay only inflates RTT, so the tightest RTT carries the
    // best midpoint estimate — keep it.
    if (off.rtt_s >= 0.0 && off.rtt_s <= rtt_s) return;
    off = ClockOffset{offset_ns, rtt_s};
    return;
  }
  offsets_.push_back({node, ClockOffset{offset_ns, rtt_s}});
}

std::vector<std::pair<int, ClockOffset>> Tracer::clock_offsets() const {
  std::lock_guard<std::mutex> lock(offsets_mu_);
  return offsets_;
}

Tracer::ThreadBuf* Tracer::local_buf() {
  if (t_slot.tracer_id == id_) {
    return static_cast<ThreadBuf*>(t_slot.buf);
  }
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  // A slot miss is also a thread switching back from another tracer:
  // reuse its buffer (and tid) rather than registering one per switch.
  // A new thread that inherits an exited thread's id inherits its
  // buffer too; the two never run at once.
  for (const auto& b : bufs_) {
    if (b->owner == me) {
      t_slot = {id_, b.get()};
      return b.get();
    }
  }
  bufs_.push_back(std::make_unique<ThreadBuf>());
  ThreadBuf* buf = bufs_.back().get();
  buf->owner = me;
  buf->tid = static_cast<std::uint32_t>(bufs_.size());
  buf->events.reserve(std::min<std::size_t>(max_events_, 4096));
  t_slot = {id_, buf};
  return buf;
}

void Tracer::emit(const TraceEvent& ev) {
  if (!enabled()) return;
  ThreadBuf* buf = local_buf();
  if (buf->events.size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back(ev);
  buf->events.back().tid = buf->tid;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto& b : bufs_) total += b->events.size();
    out.reserve(total);
    for (const auto& b : bufs_) {
      out.insert(out.end(), b->events.begin(), b->events.end());
    }
  }
  // Stable: events of one thread keep program order, which is what
  // makes single-threaded runs byte-deterministic regardless of how
  // coarse the wall clock is.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.wall_t0_ns < b.wall_t0_ns;
                   });
  return out;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& b : bufs_) total += b->events.size();
  return total;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const auto events = snapshot();

  // Track naming: pid = protocol node (99 = process-local compute with
  // no node), so Perfetto shows one process lane per cluster node.
  const auto pid_of = [](const TraceEvent& ev) {
    return ev.node >= 0 ? ev.node : 99;
  };
  std::map<int, const char*> pids;
  for (const auto& ev : events) {
    const int pid = pid_of(ev);
    if (pids.count(pid)) continue;
    pids[pid] = pid == 0 ? "node 0 (server)"
                         : (pid == 99 ? "local compute" : nullptr);
  }

  // Head fields for the trace merger: which node this file records, and
  // the heartbeat-estimated offsets of peer trace clocks relative to
  // ours (TCP only; absent keys mean "no sample"). Chrome/Perfetto
  // ignore unknown top-level keys.
  os << "{\"displayTimeUnit\":\"ms\"";
  if (local_node() >= 0) os << ",\"localNode\":" << local_node();
  {
    auto offsets = clock_offsets();
    std::sort(offsets.begin(), offsets.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (!offsets.empty()) {
      os << ",\"clockOffsets\":{";
      bool first_off = true;
      for (const auto& [node, off] : offsets) {
        if (!first_off) os << ',';
        first_off = false;
        os << '"' << node << "\":" << off.offset_ns;
      }
      os << '}';
    }
  }
  os << ",\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, fixed_name] : pids) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"";
    if (fixed_name != nullptr) {
      os << fixed_name;
    } else {
      os << "node " << pid << " (worker)";
    }
    os << "\"}},\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":"
       << pid << ",\"tid\":0,\"args\":{\"sort_index\":" << pid << "}}";
  }
  for (const auto& ev : events) {
    char buf[512];
    int n = std::snprintf(
        buf, sizeof(buf),
        ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
        ev.name, cat_name(ev.cat), pid_of(ev), ev.tid,
        static_cast<double>(ev.wall_t0_ns) / 1e3,
        static_cast<double>(ev.wall_dur_ns) / 1e3);
    os.write(buf, n);
    bool first_arg = true;
    const auto arg = [&](const char* fmt, auto value) {
      n = std::snprintf(buf, sizeof(buf), fmt, first_arg ? "" : ",",
                        value);
      os.write(buf, n);
      first_arg = false;
    };
    if (ev.iter >= 0) {
      arg("%s\"iter\":%lld", static_cast<long long>(ev.iter));
    }
    if (ev.sim_t0 >= 0.0) arg("%s\"sim_t0_s\":%.9g", ev.sim_t0);
    if (ev.sim_t1 >= 0.0) arg("%s\"sim_t1_s\":%.9g", ev.sim_t1);
    if (ev.bytes > 0) {
      arg("%s\"bytes\":%llu", static_cast<unsigned long long>(ev.bytes));
    }
    if (ev.flow != 0) {
      arg("%s\"flow\":%llu", static_cast<unsigned long long>(ev.flow));
    }
    os << "}}";
  }
  os << "\n]}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    MDGAN_LOG_ERROR << "obs: cannot open trace file " << path;
    return false;
  }
  write_chrome_trace(os);
  if (dropped() > 0) {
    MDGAN_LOG_WARN << "obs: trace " << path << " dropped " << dropped()
                   << " events past the per-thread buffer cap";
  }
  return static_cast<bool>(os);
}

}  // namespace mdgan::obs
