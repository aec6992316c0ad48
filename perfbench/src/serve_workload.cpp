// serve_mixed workload: an in-process axserve daemon (serve::Server) under
// the benchmark's own client, first closed loop (back-to-back requests),
// then open loop (a fixed schedule, each request timed from its due time).
// The mix: ca8 8x64x32 infer panels sharing one rhs, characterize cache
// hits from a small key pool, and a small share of characterize misses on
// fresh paper8 keys. The only workload that exercises the protocol, the
// queues and the batcher.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "dse/cache.hpp"
#include "dse/evaluate.hpp"
#include "dse/space.hpp"
#include "nn/gemm.hpp"
#include "nn/mac.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace axmult;

namespace {

constexpr unsigned kClients = 2;       // connections (<= nproc)
constexpr unsigned kWorkers = 2;       // characterization workers
constexpr std::uint32_t kM = 8, kK = 64, kN = 32;
constexpr std::size_t kPanels = 64;    // lhs panels per client
constexpr std::size_t kHitKeys = 8;
constexpr double kInferShare = 0.60;
constexpr double kHitShare = 0.39;     // the remaining 1% are misses
/// Open-loop rate over both connections: about half the closed-loop
/// capacity of this mix (about 16k req/s on a 4-vCPU Xeon VM).
constexpr double kOpenLoopRate = 8000.0;
constexpr double kClosedShare = 0.4;   // of --seconds; the open loop gets the rest

enum class Kind : std::uint8_t { kInfer, kHit, kMiss };

struct ServeInputs {
  std::vector<std::string> hit_keys;
  std::vector<std::string> hit_expected;  ///< serialize_objectives of dse::evaluate
  std::vector<std::string> miss_keys;     ///< fresh keys, consumed in order
  std::vector<std::uint8_t> rhs;          ///< kK x kN, shared by every request
  std::vector<std::vector<std::uint8_t>> lhs;           ///< [client * kPanels + i]
  std::vector<std::vector<std::int64_t>> expected_acc;  ///< direct gemm_accumulate
};

ServeInputs make_inputs(std::uint64_t seed, std::size_t miss_keys) {
  ServeInputs in;
  const dse::SpaceSpec space = dse::make_space("paper8");
  Xoshiro256 rng(derive_stream_seed(seed, 0x5e));
  std::set<std::string> seen;
  while (in.hit_keys.size() + in.miss_keys.size() < kHitKeys + miss_keys) {
    const std::string key = dse::config_key(dse::sample(space, rng));
    if (!seen.insert(key).second) continue;
    (in.hit_keys.size() < kHitKeys ? in.hit_keys : in.miss_keys).push_back(key);
  }
  for (const std::string& key : in.hit_keys) {
    in.hit_expected.push_back(
        dse::EvalCache::serialize_objectives(dse::evaluate(dse::parse_key(key))));
  }
  in.rhs.resize(std::size_t{kK} * kN);
  for (auto& v : in.rhs) v = static_cast<std::uint8_t>(rng.below(256));
  const nn::MacBackendPtr ca8 = nn::shared_mac_backend("ca8");
  for (std::size_t p = 0; p < kClients * kPanels; ++p) {
    std::vector<std::uint8_t> a(std::size_t{kM} * kK);
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.below(256));
    std::vector<std::int64_t> acc(std::size_t{kM} * kN, 0);
    nn::gemm_accumulate(*ca8, false, a.data(), in.rhs.data(), acc.data(), kM, kK, kN, 1);
    in.lhs.push_back(std::move(a));
    in.expected_acc.push_back(std::move(acc));
  }
  return in;
}

/// Per-connection load state: the socket, the request stream and the
/// results the checks need.
struct Connection {
  int fd = -1;
  unsigned index = 0;
  Xoshiro256 rng{1};
  std::uint64_t next_id = 0;
};

struct Tally {
  std::mutex mutex;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::pair<std::string, std::string>> misses;  ///< key -> served objectives
};

/// One request/reply round trip over the raw protocol calls, each timed
/// as a span when tracing. Returns the reply (nullopt when the connection
/// failed or the reply did not parse).
std::optional<serve::Reply> round_trip(int fd, const serve::Request& req, Tracer* tr) {
  std::string payload;
  {
    Tracer::Scope span(tr, "serve.encode", req.id);
    payload = serve::encode_request(req);
  }
  {
    Tracer::Scope span(tr, "serve.write", req.id);
    if (!serve::write_frame(fd, payload)) return std::nullopt;
  }
  std::string reply;
  {
    Tracer::Scope span(tr, "serve.read", req.id);
    if (serve::read_frame(fd, reply) != serve::FrameStatus::kOk) return std::nullopt;
  }
  Tracer::Scope span(tr, "serve.parse", req.id);
  return serve::parse_reply(reply);
}

class LoadMix {
 public:
  LoadMix(const ServeInputs& in, Tally& tally) : in_(in), tally_(tally) {}

  /// Sends one request of the mix and checks its reply; returns {kind, ok}.
  std::pair<Kind, bool> one(Connection& c, Tracer* tr) {
    const double u = c.rng.uniform01();
    const Kind kind = u < kInferShare ? Kind::kInfer
                      : u < kInferShare + kHitShare ? Kind::kHit
                                                    : Kind::kMiss;
    serve::Request req;
    req.id = ++c.next_id + (std::uint64_t{c.index} << 40);
    std::size_t idx = 0;
    if (kind == Kind::kInfer) {
      idx = c.index * kPanels + c.rng.below(kPanels);
      req.op = serve::Op::kInfer;
      req.backend = "ca8";
      req.m = kM;
      req.k = kK;
      req.n = kN;
      req.a = in_.lhs[idx];
      req.b = in_.rhs;
    } else {
      req.op = serve::Op::kCharacterize;
      if (kind == Kind::kHit) {
        idx = c.rng.below(in_.hit_keys.size());
        req.key = in_.hit_keys[idx];
      } else {
        idx = next_miss_.fetch_add(1);
        // A run that outlasts the fresh-key supply repeats keys (then hits).
        req.key = in_.miss_keys[idx % in_.miss_keys.size()];
      }
    }
    Tracer::Scope span(tr, kind == Kind::kInfer ? "serve.infer"
                           : kind == Kind::kHit ? "serve.hit"
                                                : "serve.miss",
                       req.id);
    const std::optional<serve::Reply> reply = round_trip(c.fd, req, tr);
    const bool ok = reply.has_value() && reply->ok;
    bool match = true;
    if (ok && kind == Kind::kInfer) {
      match = reply->acc == in_.expected_acc[idx];
    } else if (ok && kind == Kind::kHit) {
      match = reply->has_objectives &&
              dse::EvalCache::serialize_objectives(reply->objectives) == in_.hit_expected[idx];
    }
    std::lock_guard<std::mutex> lock(tally_.mutex);
    ++tally_.attempted;
    if (!ok) ++tally_.failed;
    if (!match) ++tally_.mismatches;
    if (ok && kind == Kind::kMiss && reply->has_objectives) {
      tally_.misses.emplace_back(req.key, dse::EvalCache::serialize_objectives(reply->objectives));
    }
    return {kind, ok};
  }

 private:
  const ServeInputs& in_;
  Tally& tally_;
  std::atomic<std::size_t> next_miss_{0};
};

struct OpenLoopResult {
  OpenLoopAccount account;
  std::vector<double> kind_latency_ms[3];
};

/// Closed loop: every connection sends back to back for `seconds`;
/// returns completed requests per second.
double closed_loop(std::vector<Connection>& conns, LoadMix& mix, double seconds,
                   Tracer* tr) {
  std::atomic<std::uint64_t> done{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (Connection& c : conns) {
    threads.emplace_back([&, cp = &c] {
      while (Clock::now() < stop) {
        if (mix.one(*cp, tr).second) done.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(done.load()) / seconds_since(start);
}

/// Open loop at `rate` requests/s over all connections for `seconds`.
/// Request i of a connection is due at start + i / (rate / connections);
/// its latency runs from that due time to its reply.
OpenLoopResult open_loop(std::vector<Connection>& conns, LoadMix& mix, double rate,
                         double seconds, Tracer* tr) {
  const double per_conn = rate / static_cast<double>(conns.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::vector<OpenLoopRecord>> records(conns.size());
  std::vector<std::vector<std::pair<Kind, double>>> kinds(conns.size());
  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    threads.emplace_back([&, ci] {
      const auto at = [&](double s) {
        return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
      };
      for (std::uint64_t i = 0;; ++i) {
        const double due = due_time_s(i, per_conn);
        if (due >= seconds) break;
        std::this_thread::sleep_until(at(due));
        const double sent = seconds_between(start, Clock::now());
        const auto [kind, ok] = mix.one(conns[ci], tr);
        const double finished = seconds_between(start, Clock::now());
        records[ci].push_back({due, sent, finished, ok});
        if (ok) kinds[ci].emplace_back(kind, (finished - due) * 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  OpenLoopResult r;
  std::vector<OpenLoopRecord> all;
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    all.insert(all.end(), records[ci].begin(), records[ci].end());
    for (const auto& [kind, ms] : kinds[ci]) {
      r.kind_latency_ms[static_cast<int>(kind)].push_back(ms);
    }
  }
  r.account = account_open_loop(all);
  return r;
}

}  // namespace

Outcome run_serve_mixed(const Options& opts, Tracer* tracer) {
  Outcome out;
  const unsigned clients = std::min(kClients, opts.threads);
  const double rate = opts.tiny ? 400.0 : kOpenLoopRate;
  const std::string socket_path =
      (std::filesystem::relative(opts.out_dir) / ("serve-" + std::to_string(getpid()) + ".sock"))
          .string();
  ServeInputs in;
  std::unique_ptr<serve::Server> server;
  std::vector<Connection> conns;
  const auto close_all = [&] {
    for (Connection& c : conns) ::close(c.fd);
    conns.clear();
    if (server) server->stop();
    server.reset();
  };
  double nn_setup_s = 0.0;
  const auto prepare = [&] {
    close_all();
    const Clock::time_point t0 = Clock::now();
    (void)nn::shared_mac_backend("ca8");
    if (nn_setup_s == 0.0) nn_setup_s = seconds_since(t0);  // the first, cold touch
    in = make_inputs(opts.seed, opts.tiny ? 64 : 4096);
    serve::ServerOptions so;
    so.socket_path = socket_path;
    so.workers = std::min(kWorkers, opts.threads);
    server = std::make_unique<serve::Server>(so);
    server->start();
    for (unsigned i = 0; i < clients; ++i) {
      const std::optional<int> fd = serve::connect_with_retry(socket_path, 5000);
      if (!fd) throw std::runtime_error("cannot connect to the in-process daemon");
      Connection c;
      c.fd = *fd;
      c.index = i;
      c.rng = Xoshiro256(derive_stream_seed(opts.seed, 0xC0 + i));
      conns.push_back(c);
    }
    // Warm the daemon: the hit pool into its cache, ca8 tables in place.
    serve::Request req;
    req.op = serve::Op::kCharacterize;
    for (const std::string& key : in.hit_keys) {
      req.key = key;
      req.id = ++conns[0].next_id;
      const auto reply = round_trip(conns[0].fd, req, nullptr);
      if (!reply || !reply->ok) throw std::runtime_error("daemon warm-up failed");
    }
  };
  // The closed and open loops are not cycles, so every setup of this
  // workload is in the lead (about 2 s of daemon restarts).
  std::vector<double> setups;
  time_setups(prepare, kSetupLeadRepeats, kSetupLeadSeconds, setups);
  const double setup_s = median(setups);

  Tally tally;
  LoadMix mix(in, tally);
  const double closed_s = opts.seconds * kClosedShare;
  const double open_s = opts.seconds - closed_s;

  if (tracer == nullptr) {
    const double rps = closed_loop(conns, mix, closed_s, nullptr);
    const OpenLoopResult ol = open_loop(conns, mix, rate, open_s, nullptr);
    const Summary tail = summarize(ol.account.latency_ms);
    out.check(opts.tiny || supports_percentile(99.0, ol.account.latency_ms.size()),
              "open loop holds enough samples for p99");
    add_end_to_end(out, setup_s, rps);
    out.detail("serve_rps", rps, "req/s");
    out.detail("serve_p50_ms", percentile_sorted(ol.account.latency_ms, 50.0), "ms");
    out.detail("serve_p99_ms", percentile_sorted(ol.account.latency_ms, 99.0), "ms");
    out.detail("serve_tail_percentile", tail.tail_percentile, "percentile");
    out.detail("serve_tail_ms", tail.tail, "ms");
    out.detail("serve_open_loop_samples", static_cast<double>(tail.samples), "count");
    out.detail("serve_open_loop_rate", rate, "req/s");
    out.detail("serve.generator_lag_ms", ol.account.generator_lag_p50_ms, "ms");
    out.detail("serve.generator_lag_max_ms", ol.account.generator_lag_max_ms, "ms");
  } else {
    // Same closed-loop length untraced then traced (overhead), then the
    // traced open loop that yields the per-request-kind latencies.
    const double untraced_rps = closed_loop(conns, mix, closed_s / 2, nullptr);
    const serve::ServerStats before = server->stats();
    double traced_rps = 0.0;
    {
      Tracer::Scope root(tracer, "serve.closed_loop");
      traced_rps = closed_loop(conns, mix, closed_s / 2, tracer);
    }
    OpenLoopResult ol;
    {
      Tracer::Scope root(tracer, "serve.open_loop");
      ol = open_loop(conns, mix, rate, open_s, tracer);
    }
    const serve::ServerStats after = server->stats();
    const auto delta = [&](std::uint64_t serve::ServerStats::*f) {
      return static_cast<double>(after.*f - before.*f);
    };
    const double characterize = std::max(1.0, delta(&serve::ServerStats::characterize_requests));
    const double batches = delta(&serve::ServerStats::gemm_batches);
    const auto p50 = [&](Kind k) { return median(ol.kind_latency_ms[static_cast<int>(k)]); };
    const auto mean_us = [&](const char* name) {
      const std::size_t n = tracer->count(name);
      return n ? tracer->total_s(name) / static_cast<double>(n) * 1e6 : 0.0;
    };
    out.metric("serve.hit_p50_ms", p50(Kind::kHit), "ms");
    out.metric("serve.miss_p50_ms", p50(Kind::kMiss), "ms");
    out.metric("serve.infer_p50_ms", p50(Kind::kInfer), "ms");
    out.metric("serve.encode_us", mean_us("serve.encode"), "us");
    out.metric("serve.parse_us", mean_us("serve.parse"), "us");
    out.metric("serve.cache_hit_rate", delta(&serve::ServerStats::cache_hits) / characterize,
               "ratio");
    out.metric("serve.coalesce_rate", delta(&serve::ServerStats::coalesced) / characterize,
               "ratio");
    out.metric("serve.evaluations", delta(&serve::ServerStats::evaluations), "count");
    out.metric("serve.batch_fill_requests",
               batches > 0 ? delta(&serve::ServerStats::merged_requests) / batches : 0.0,
               "requests");
    out.metric("serve.gemm_batches", batches, "count");
    out.metric("serve.generator_lag_ms", ol.account.generator_lag_p50_ms, "ms");
    out.metric("nn.setup_ms", nn_setup_s * 1e3, "ms");
    // Coverage: the share of each request's span its four protocol calls
    // cover (the rest is the daemon's service time, seen from the client
    // as the wait inside serve.read).
    double roots = 0.0;
    double covered = 0.0;
    for (const char* kind : {"serve.infer", "serve.hit", "serve.miss"}) {
      roots += tracer->total_s(kind);
      covered += tracer->coverage(kind) * tracer->total_s(kind);
    }
    // Overhead: the traced closed loop's wall time minus the time the
    // untraced loop needs for the same number of requests.
    const double traced_requests = traced_rps * closed_s / 2;
    add_trace_overhead(out, roots > 0.0 ? covered / roots : 0.0, closed_s / 2,
                       traced_requests / std::max(1e-12, untraced_rps));
    out.detail("setup_s", setup_s, "s");
    out.detail("serve_p50_ms", percentile_sorted(ol.account.latency_ms, 50.0), "ms");
    out.detail("serve_p99_ms", percentile_sorted(ol.account.latency_ms, 99.0), "ms");
  }

  // Served results: every infer and hit reply was compared as it arrived;
  // a sample of the misses is re-derived here by direct evaluation.
  out.check(tally.mismatches == 0, "served GEMM rows and cache hits match direct library calls");
  std::size_t checked = 0;
  for (const auto& [key, served] : tally.misses) {
    if (checked++ == 8) break;
    out.check(dse::EvalCache::serialize_objectives(dse::evaluate(dse::parse_key(key))) == served,
              "served miss " + key + " matches dse::evaluate");
  }
  for (std::size_t i = 0; i < in.hit_keys.size(); ++i) {
    out.digest_text += in.hit_keys[i] + " " + in.hit_expected[i] + "\n";
  }
  for (const auto& acc : in.expected_acc) {
    out.digest_text +=
        digest_hex(std::string(reinterpret_cast<const char*>(acc.data()), acc.size() * 8)) + "\n";
  }
  out.attempted += tally.attempted;
  out.failed += tally.failed;
  close_all();
  return out;
}

}  // namespace perfbench
