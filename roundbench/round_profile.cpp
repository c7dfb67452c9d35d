// round_profile: runs one fixed MD-GAN workload through the
// public API and prints its raw measurements as one JSON line. run.py
// turns them into the benchmark's metrics; summarize.py turns the trace
// files of a traced episode into the per-layer table.
//
//   round_profile --workload=sim-sync-swap --seed=1 --seconds=50
//                     --trace=0 [--rounds=N] [--out=DIR]
//
// One episode is: synthesize the data and split it, train the scoring
// classifier, (TCP) rendezvous, construct the models, then train a fixed
// number of rounds with an eval hook on every round. The hook timestamps
// round boundaries and scores the generator every 10 rounds; eval time
// is excluded from every training time.
//
// --trace=0 runs floor(--seconds / episode budget) training episodes,
// each from its own seed derived from --seed.
// --trace=1 runs one untraced episode (allocation counts, overhead
// baseline) and the same episode traced, whose spans are written to
// DIR/<workload>.json as a Chrome trace. The program adds spans of its own
// ("bench:*") only around its calls into public functions.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "core/complexity.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "dist/tcp_network.hpp"
#include "metrics/evaluator.hpp"
#include "obs/sink.hpp"

namespace {

using namespace mdgan;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The fixed workloads. BENCHMARK.json records why each exists. The IS
// targets of sim-sync-swap and tcp-async-pipeline sit where tuning runs
// (seeds 1-14, 201-216) cross them after about 40-65% of the episode's
// rounds; sim-sync-cnn crosses its target after about a quarter. budget_s is the share of
// --seconds one episode is given: the episode count depends only on
// --seconds, so two runs with the same --seconds train the same number
// of trajectories. At --seconds=50 the counts are 3, 4 and 4. Every
// episode trains 200 rounds, so its p95 has 10 rounds beyond it.
// sim-sync-cnn is not in BENCHMARK.json: its rounds keep all four cores
// busy in fork-join kernels, so on a shared host its round-time tail
// follows the host's load more than the program's (README.md).
struct Workload {
  const char* name;
  gan::ArchKind arch;
  std::size_t workers;
  std::size_t batch;
  std::size_t k;
  std::size_t shard;  // m; the swap period is m / b rounds (E = 1)
  bool tcp;
  bool async;
  bool pipeline;
  bool int8_feedback;
  std::int64_t rounds;
  double is_target;
  double budget_s;
};

const Workload kWorkloads[] = {
    {"sim-sync-cnn", gan::ArchKind::kCnnMnist, 4, 10, 2, 250, false, false,
     false, false, 200, 2.0, 16.0},
    {"sim-sync-swap", gan::ArchKind::kMlpMnist, 4, 10, 2, 10, false, false,
     false, false, 200, 1.1, 12.5},
    {"tcp-async-pipeline", gan::ArchKind::kMlpMnist, 3, 10, 2, 100, true,
     true, true, true, 200, 1.2, 11.0},
};

constexpr std::int64_t kEvalEvery = 10;
constexpr std::size_t kEvalSamples = 256;
constexpr std::size_t kScoringTrain = 2000;
constexpr std::size_t kScoringTest = 512;
constexpr const char* kLinks[3] = {"c2w", "w2c", "w2w"};
constexpr dist::LinkKind kLinkKinds[3] = {dist::LinkKind::kServerToWorker,
                                          dist::LinkKind::kWorkerToServer,
                                          dist::LinkKind::kWorkerToWorker};

struct EvalPoint {
  std::int64_t iter = 0;
  double is = 0.0;
  double train_s = 0.0;  // training wall seconds when the round ended
};

struct Episode {
  bool traced = false;
  std::uint64_t seed = 0;
  double setup_s = 0.0;  // episode start until round 1 begins
  std::int64_t rounds_planned = 0;
  std::vector<double> round_s;
  double train_s = 0.0;
  std::vector<EvalPoint> evals;
  double time_to_score_s = -1.0;
  std::string error;
  // Output checks.
  bool finite = true;
  std::int64_t gen_updates = 0;
  std::int64_t gen_updates_expected = 0;
  bool registry_matches = true;
  std::uint64_t checksum = 0;
  // Wire, from the server registry and the server transport.
  std::uint64_t reg_bytes[3] = {0, 0, 0};
  std::uint64_t reg_messages[3] = {0, 0, 0};
  std::uint64_t net_bytes[3] = {0, 0, 0};
  std::uint64_t predicted_bytes[3] = {0, 0, 0};
  std::uint64_t max_worker_ingress = 0;
  // Counters.
  std::uint64_t stale_dropped = 0;
  std::uint64_t peer_deaths = 0;
  double send_queue_stall_s = 0.0;
  std::uint64_t spans_dropped = 0;
  AllocStats train_alloc;
  std::string trace_file;
};

core::MdGanConfig config_of(const Workload& wl) {
  core::MdGanConfig cfg;
  cfg.hp.batch = wl.batch;
  cfg.hp.disc_steps = 1;
  cfg.k = wl.k;
  cfg.epochs_per_swap = 1;
  cfg.parallel_workers = true;
  cfg.async = wl.async;
  cfg.pipeline = wl.pipeline;
  if (wl.int8_feedback) {
    cfg.feedback_compression.kind = dist::CompressionKind::kQuantizeInt8;
  }
  return cfg;
}

std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

// The eval hook: called after every round (eval_every = 1). It times
// the round from the previous hook's exit, and every kEvalEvery rounds
// (and after the last) scores the generator outside the timed window.
class RoundRecorder {
 public:
  RoundRecorder(Episode& ep, const Workload& wl, metrics::Evaluator& ev,
                const core::MdGan& md, obs::Tracer* tr)
      : ep_(ep), wl_(wl), ev_(ev), md_(md), tr_(tr) {
    ep_.round_s.reserve(static_cast<std::size_t>(ep_.rounds_planned));
    ep_.evals.reserve(static_cast<std::size_t>(ep_.rounds_planned));
  }

  void start() {
    alloc0_ = alloc_stats();
    last_ = Clock::now();
  }

  void finish() {
    ep_.train_alloc = alloc_stats() - alloc0_ - eval_alloc_;
  }

  void operator()(std::int64_t iter, nn::Sequential& g) {
    const double dt =
        std::chrono::duration<double>(Clock::now() - last_).count();
    ep_.round_s.push_back(dt);
    ep_.train_s += dt;
    if (iter % kEvalEvery == 0 || iter == ep_.rounds_planned) {
      const AllocStats a0 = alloc_stats();
      metrics::GanScores s;
      {
        obs::Span span(tr_, "bench:evaluate", obs::Cat::kPhase,
                       dist::kServerId, iter);
        s = ev_.evaluate(g, md_.arch(), md_.codes());
      }
      EvalPoint p;
      p.iter = iter;
      p.is = s.inception_score;
      p.train_s = ep_.train_s;
      ep_.evals.push_back(p);
      if (ep_.time_to_score_s < 0.0 && p.is >= wl_.is_target) {
        ep_.time_to_score_s = ep_.train_s;
      }
      const AllocStats d = alloc_stats() - a0;
      eval_alloc_.count += d.count;
      eval_alloc_.bytes += d.bytes;
    }
    last_ = Clock::now();
  }

 private:
  Episode& ep_;
  const Workload& wl_;
  metrics::Evaluator& ev_;
  const core::MdGan& md_;
  obs::Tracer* tr_;
  AllocStats alloc0_;
  AllocStats eval_alloc_;
  Clock::time_point last_;
};

// Table III prediction (core::md_gan_comm) for the rounds actually run,
// from the workload's real parameter counts.
void predict_bytes(Episode& ep, const Workload& wl, core::MdGan& server,
                   std::uint64_t disc_params) {
  core::GanDims dims;
  dims.gen_params = server.generator().flatten_parameters().size();
  dims.disc_params = disc_params;
  dims.data_dim = server.arch().image_dim();
  dims.batch = wl.batch;
  dims.local_m = wl.shard;
  dims.epochs = 1;
  dims.n_workers = wl.workers;
  dims.k = wl.k;
  dims.iters = static_cast<std::uint64_t>(ep.round_s.size());
  const core::CommTable t = core::md_gan_comm(dims);
  ep.predicted_bytes[0] = t.c_to_w_at_server * dims.iters;
  ep.predicted_bytes[1] = t.w_to_c_at_server * dims.iters;
  ep.predicted_bytes[2] = t.num_ww_events * dims.n_workers * t.w_to_w_at_worker;
}

void read_server_registry(Episode& ep, obs::Sink& sink,
                          const dist::Transport& net) {
  obs::Registry& r = sink.registry();
  for (int l = 0; l < 3; ++l) {
    const std::string label = std::string("link=") + kLinks[l];
    ep.reg_bytes[l] =
        r.counter_value(obs::Registry::key_of("bytes_total", label));
    ep.reg_messages[l] =
        r.counter_value(obs::Registry::key_of("messages_total", label));
    ep.net_bytes[l] = net.totals(kLinkKinds[l]).bytes;
    if (ep.reg_bytes[l] != ep.net_bytes[l]) ep.registry_matches = false;
  }
  ep.stale_dropped = r.counter_value("feedback_stale_dropped_total");
  ep.send_queue_stall_s =
      r.histogram("send_queue_stall_seconds", {1.0}).sum();
}

struct Inputs {
  std::vector<data::InMemoryDataset> shards;
  std::unique_ptr<metrics::Evaluator> evaluator;
};

Inputs make_inputs(const Workload& wl, std::uint64_t seed, obs::Tracer* tr) {
  Inputs in;
  data::InMemoryDataset score_train, score_test;
  {
    obs::Span span(tr, "bench:synthesize", obs::Cat::kPhase,
                   dist::kServerId);
    auto full = data::make_synthetic_digits(wl.workers * wl.shard, seed);
    Rng split_rng(seed);
    in.shards = data::split_iid(full, wl.workers, split_rng);
    score_train = data::make_synthetic_digits(kScoringTrain, seed + 101);
    score_test = data::make_synthetic_digits(kScoringTest, seed + 202);
  }
  {
    obs::Span span(tr, "bench:classifier_train", obs::Cat::kPhase,
                   dist::kServerId);
    in.evaluator = std::make_unique<metrics::Evaluator>(
        score_train, score_test, metrics::ClassifierConfig{64, 3, 64, 1e-3f},
        kEvalSamples, seed);
  }
  return in;
}

void run_sim(Episode& ep, const Workload& wl, std::uint64_t seed,
             obs::Sink& sink, obs::Tracer* tr, Clock::time_point t_start) {
  Inputs in = make_inputs(wl, seed, tr);
  const auto arch = gan::make_arch(wl.arch);
  core::MdGanConfig cfg = config_of(wl);
  cfg.sink = &sink;
  dist::SimNetwork net(wl.workers);
  std::unique_ptr<core::MdGan> md;
  {
    obs::Span span(tr, "bench:construct", obs::Cat::kPhase, dist::kServerId);
    md = std::make_unique<core::MdGan>(arch, cfg, std::move(in.shards), seed,
                                       net);
  }
  RoundRecorder rec(ep, wl, *in.evaluator, *md, tr);
  ep.setup_s = since(t_start);
  rec.start();
  try {
    obs::Span span(tr, "bench:train", obs::Cat::kPhase, dist::kServerId);
    md->train(ep.rounds_planned, 1, std::ref(rec));
  } catch (const std::exception& e) {
    ep.error = e.what();
  }
  rec.finish();

  const auto theta = md->generator().flatten_parameters();
  ep.checksum = fnv1a(theta);
  ep.finite = all_finite(theta);
  for (std::size_t w = 1; w <= wl.workers; ++w) {
    ep.finite = ep.finite && all_finite(md->discriminator_of(w)
                                            .flatten_parameters());
  }
  ep.gen_updates = md->generator_updates();
  ep.gen_updates_expected = static_cast<std::int64_t>(ep.round_s.size());
  if (wl.async) {
    ep.gen_updates_expected =
        ep.gen_updates_expected * static_cast<std::int64_t>(wl.workers) -
        md->stale_feedbacks_dropped();
  }
  read_server_registry(ep, sink, net);
  ep.peer_deaths = sink.registry().counter_value("peer_deaths_total");
  for (std::size_t w = 1; w <= wl.workers; ++w) {
    ep.max_worker_ingress =
        std::max(ep.max_worker_ingress,
                 net.max_ingress_per_iteration(static_cast<int>(w)));
  }
  predict_bytes(ep, wl, *md,
                md->discriminator_of(1).flatten_parameters().size());
}

// Server plus wl.workers worker endpoints in this process, joined over
// 127.0.0.1. Each role trains on its own thread, as it would in its own
// process. Worker roles get no sink: a thread that records into two
// tracers (a worker's and the global one its GEMMs use) registers a new
// trace buffer and tid on every switch, which breaks span nesting.
void run_tcp(Episode& ep, const Workload& wl, std::uint64_t seed,
             obs::Sink& sink, obs::Tracer* tr, Clock::time_point t_start) {
  Inputs in = make_inputs(wl, seed, tr);
  const auto arch = gan::make_arch(wl.arch);
  const std::size_t n = wl.workers;
  dist::TcpOptions opts;
  opts.rendezvous_timeout_s = 30.0;
  opts.receive_timeout_s = 30.0;

  std::unique_ptr<dist::TcpNetwork> server;
  std::vector<std::unique_ptr<dist::TcpNetwork>> nets(n + 1);
  {
    obs::Span span(tr, "bench:rendezvous", obs::Cat::kPhase,
                   dist::kServerId);
    server = dist::TcpNetwork::serve(0, n, opts);
    for (std::size_t w = 1; w <= n; ++w) {
      nets[w] = dist::TcpNetwork::connect("127.0.0.1", server->port(),
                                          static_cast<int>(w), n, opts);
    }
    bool ready = server->wait_ready();
    for (std::size_t w = 1; w <= n; ++w) {
      ready = nets[w]->wait_ready() && ready;
    }
    if (!ready) throw std::runtime_error("TCP rendezvous did not complete");
  }

  std::unique_ptr<core::MdGan> server_md;
  std::vector<std::unique_ptr<core::MdGan>> workers(n + 1);
  {
    obs::Span span(tr, "bench:construct", obs::Cat::kPhase, dist::kServerId);
    core::MdGanConfig scfg = config_of(wl);
    scfg.shard_size = wl.shard;
    scfg.sink = &sink;
    server_md = std::make_unique<core::MdGan>(arch, scfg,
                                              std::vector<data::InMemoryDataset>{},
                                              seed, *server, nullptr,
                                              core::NodeRole::server());
    for (std::size_t w = 1; w <= n; ++w) {
      workers[w] = std::make_unique<core::MdGan>(
          arch, config_of(wl),
          std::vector<data::InMemoryDataset>{in.shards[w - 1]},
          seed, *nets[w], nullptr, core::NodeRole::worker(static_cast<int>(w)));
    }
  }

  RoundRecorder rec(ep, wl, *in.evaluator, *server_md, tr);
  std::vector<std::string> errors(n + 1);
  std::vector<char> finite(n + 1, 1);
  std::vector<std::uint64_t> ingress(n + 1, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    ep.setup_s = since(t_start);
    rec.start();
    try {
      obs::Span span(tr, "bench:train", obs::Cat::kPhase, dist::kServerId);
      server_md->train(ep.rounds_planned, 1, std::ref(rec));
    } catch (const std::exception& e) {
      errors[0] = e.what();
    }
    rec.finish();
  });
  for (std::size_t w = 1; w <= n; ++w) {
    threads.emplace_back([&, w] {
      try {
        workers[w]->train(ep.rounds_planned);
        finite[w] = all_finite(
            workers[w]->discriminator_of(w).flatten_parameters());
        ingress[w] = nets[w]->max_ingress_per_iteration(static_cast<int>(w));
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i <= n; ++i) {
    if (!errors[i].empty() && ep.error.empty()) {
      ep.error = (i == 0 ? std::string("server: ")
                         : "worker " + std::to_string(i) + ": ") +
                 errors[i];
    }
    ep.finite = ep.finite && finite[i] != 0;
    ep.max_worker_ingress = std::max(ep.max_worker_ingress, ingress[i]);
  }

  const auto theta = server_md->generator().flatten_parameters();
  ep.checksum = fnv1a(theta);
  ep.finite = ep.finite && all_finite(theta);
  ep.gen_updates = server_md->generator_updates();
  ep.gen_updates_expected = static_cast<std::int64_t>(ep.round_s.size());
  if (wl.async) {
    ep.gen_updates_expected =
        ep.gen_updates_expected * static_cast<std::int64_t>(n) -
        server_md->stale_feedbacks_dropped();
  }
  read_server_registry(ep, sink, *server);
  predict_bytes(ep, wl, *server_md,
                workers[1]->discriminator_of(1).flatten_parameters().size());

  // Teardown as separate processes would do it: workers leave first,
  // then the server. Peer deaths the server counts for these clean
  // exits are reported, not hidden.
  for (std::size_t w = 1; w <= n; ++w) nets[w]->close();
  const auto t0 = Clock::now();
  while (server->alive_worker_count() > 0 && since(t0) < 3.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ep.peer_deaths = sink.registry().counter_value("peer_deaths_total");
  server->close();
}

Episode run_episode(const Workload& wl, std::uint64_t seed,
                    std::int64_t rounds, bool traced,
                    const std::string& out_dir) {
  Episode ep;
  ep.traced = traced;
  ep.seed = seed;
  ep.rounds_planned = rounds;
  const auto t_start = Clock::now();
  obs::SinkConfig sc;
  sc.force_trace = traced;
  sc.compute_spans = traced;
  obs::Sink sink(sc);
  sink.tracer().set_max_events_per_thread(std::size_t{1} << 22);
  sink.tracer().set_local_node(dist::kServerId);
  obs::Tracer* tr = traced ? &sink.tracer() : nullptr;
  if (traced) obs::install_global_sink(&sink);
  try {
    if (wl.tcp) {
      run_tcp(ep, wl, seed, sink, tr, t_start);
    } else {
      run_sim(ep, wl, seed, sink, tr, t_start);
    }
  } catch (const std::exception& e) {
    if (ep.error.empty()) ep.error = e.what();
  }
  if (traced) {
    obs::install_global_sink(nullptr);
    ep.spans_dropped = sink.tracer().dropped();
    ep.trace_file = out_dir + "/" + wl.name + ".json";
    sink.tracer().write_chrome_trace_file(ep.trace_file);
  }
  return ep;
}

// --- JSON output ----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string array(const double* v, std::size_t n) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

std::string array(const std::uint64_t* v, std::size_t n) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string episode_json(const Episode& ep) {
  std::ostringstream os;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(ep.checksum));
  os << "{\"traced\":" << (ep.traced ? "true" : "false")
     << ",\"seed\":" << ep.seed
     << ",\"setup_s\":" << num(ep.setup_s)
     << ",\"rounds_planned\":" << ep.rounds_planned
     << ",\"round_s\":" << array(ep.round_s.data(), ep.round_s.size())
     << ",\"train_s\":" << num(ep.train_s) << ",\"evals\":[";
  for (std::size_t i = 0; i < ep.evals.size(); ++i) {
    const EvalPoint& p = ep.evals[i];
    os << (i > 0 ? "," : "") << "{\"iter\":" << p.iter
       << ",\"is\":" << num(p.is) << ",\"train_s\":" << num(p.train_s)
       << "}";
  }
  os << "],\"time_to_score_s\":" << num(ep.time_to_score_s)
     << ",\"error\":" << quoted(ep.error)
     << ",\"finite\":" << (ep.finite ? "true" : "false")
     << ",\"gen_updates\":" << ep.gen_updates
     << ",\"gen_updates_expected\":" << ep.gen_updates_expected
     << ",\"registry_matches\":" << (ep.registry_matches ? "true" : "false")
     << ",\"checksum\":\"" << hex << "\""
     << ",\"registry_bytes\":" << array(ep.reg_bytes, 3)
     << ",\"registry_messages\":" << array(ep.reg_messages, 3)
     << ",\"transport_bytes\":" << array(ep.net_bytes, 3)
     << ",\"predicted_bytes\":" << array(ep.predicted_bytes, 3)
     << ",\"max_worker_ingress\":" << ep.max_worker_ingress
     << ",\"stale_dropped\":" << ep.stale_dropped
     << ",\"peer_deaths\":" << ep.peer_deaths
     << ",\"send_queue_stall_s\":" << num(ep.send_queue_stall_s)
     << ",\"spans_dropped\":" << ep.spans_dropped
     << ",\"alloc_bytes\":" << ep.train_alloc.bytes
     << ",\"alloc_count\":" << ep.train_alloc.count
     << ",\"trace_file\":" << quoted(ep.trace_file) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string name = flags.get("workload", "");
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "round_profile: unknown --workload '%s'\n",
                 name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::int64_t rounds = flags.get_int("rounds", wl->rounds);
  const std::string out_dir = flags.get("out", ".");
  set_log_level(LogLevel::kWarn);

  // Episode j trains its own trajectory from a seed derived from --seed:
  // time-to-score and final IS vary more between trajectories than
  // between runs of one, so a run averages over several.
  const auto episode_seed = [seed](std::int64_t j) {
    return seed * 1000003u + static_cast<std::uint64_t>(j);
  };
  std::vector<Episode> episodes;
  if (trace) {
    episodes.push_back(run_episode(*wl, episode_seed(0), rounds, false,
                                   out_dir));
    episodes.push_back(run_episode(*wl, episode_seed(0), rounds, true,
                                   out_dir));
  } else {
    const auto n = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(seconds / wl->budget_s));
    for (std::int64_t j = 0; j < n; ++j) {
      episodes.push_back(run_episode(*wl, episode_seed(j), rounds, false,
                                     out_dir));
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::ostringstream os;
  os << "{\"workload\":" << quoted(wl->name)
     << ",\"workers\":" << wl->workers << ",\"batch\":" << wl->batch
     << ",\"peak_rss_mb\":" << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
     << ",\"episodes\":[";
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    os << (i > 0 ? "," : "") << episode_json(episodes[i]);
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}
