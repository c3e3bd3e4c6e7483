// serve_hits and serve_mixed: the multi-tenant schedule server over
// protocol v2, driven through net::AsyncClient from this process.
//
// serve_hits  — closed loop over warmed fingerprints: one connection at
//               window 1 (round-trip latency), then one pipelined at window
//               64 (throughput). Every request is a cache hit.
// serve_mixed — open loop at a fixed rate below saturation: hits mixed with
//               a fixed share of unique small problems that miss the cache
//               and are solved cold, spread over the weighted tenants.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common.hpp"
#include "core/rng.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "graph/synthetic.hpp"
#include "net/async_client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_service.hpp"
#include "tenant/tenant_service.hpp"

namespace pb {
namespace {

using namespace ss;

// The traffic mix (basis in perfbench/README.md): tenants as in
// bench/loadgen (8, weights 4/2/1...), each request's tenant and its
// solve-or-lookup verb drawn evenly as in loadgen's mixed phase, key
// popularity Zipf(0.99), YCSB's default request distribution, and a miss
// share of 5 %, the update share of YCSB's read-mostly workload B.
constexpr int kTenants = 8;
/// Warmed fingerprints every hit is drawn from.
constexpr int kHitProblems = 256;
/// Zipf exponent of the key popularity.
constexpr double kZipfExponent = 0.99;
/// Share of hit requests sent as lookups; the rest are solves.
constexpr double kLookupShare = 0.5;
/// Pipelined window and send batch of the serve_hits throughput phase.
constexpr int kWindow = 64;
constexpr int kCorkChunk = 16;
constexpr int kLatencyRound = 500;
constexpr int kPipelinedRound = 16384;
/// Round trips kept per phase for the percentiles (a uniform sample).
constexpr std::size_t kRttSamples = 1 << 16;
/// serve_mixed: offered rate, block size and the misses in each block
/// (10 in 200: 5 %).
constexpr double kMixedRate = 2500;
constexpr int kMixedBlock = 200;
constexpr int kMixedMissesPerBlock = 10;
constexpr int kMixedWindow = 512;
/// One request in this many is traced in the high-rate phases.
constexpr std::uint64_t kTraceEvery = 64;

std::string TenantName(int t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}
double TenantWeight(int t) { return t == 0 ? 4.0 : (t == 1 ? 2.0 : 1.0); }

/// A small problem of serial tasks on a 2-processor node: one cold solve
/// takes well under a millisecond, so the serving path, not one search, is
/// measured. (Small fork-joins with data-parallel variants can take seconds
/// to solve, which would make the miss latency a measure of the draw.)
graph::ProblemSpec SmallProblem(Rng& rng) {
  graph::SyntheticOptions opts;
  opts.max_width = 3;
  opts.layers = 3;
  opts.variant_percent = 0;
  graph::SyntheticProblem made;
  switch (rng.NextBelow(3)) {
    case 0:
      made = graph::MakeChain(rng, 5 + static_cast<int>(rng.NextBelow(4)),
                              opts);
      break;
    case 1:
      made = graph::MakeForkJoin(rng, 3 + static_cast<int>(rng.NextBelow(3)),
                                 opts);
      break;
    default:
      made = graph::MakeLayered(rng, opts);
      break;
  }
  graph::ProblemSpec spec;
  spec.graph = std::move(made.graph);
  spec.costs = std::move(made.costs);
  spec.machine = graph::MachineConfig::SingleNode(2);
  spec.regime_count = 1;
  return spec;
}

/// `count` problem texts with pairwise distinct fingerprints. Draw i comes
/// from its own stream of `seed`, so the draws run on every core and set-up
/// time averages over the cores rather than riding on the speed of one (on
/// a shared host one core can run half again as slow as another for the
/// life of a process). A draw whose fingerprint is taken is replaced by the
/// next draw past `count`, so the texts depend on the seed alone.
std::vector<std::string> DistinctProblems(std::uint64_t seed, int count) {
  struct Drawn {
    graph::Fingerprint fingerprint;
    std::string text;
  };
  auto draw = [seed](std::uint64_t i) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + i);
    const graph::ProblemSpec spec = SmallProblem(rng);
    return Drawn{graph::Fingerprint(spec), graph::FormatProblem(spec)};
  };
  std::vector<Drawn> drawn(static_cast<std::size_t>(count));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < std::min(4, Cores()); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < drawn.size();) {
        drawn[i] = draw(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<graph::Fingerprint> taken;
  std::vector<std::string> texts;
  std::uint64_t spare = drawn.size();
  for (Drawn& d : drawn) {
    while (!taken.insert(d.fingerprint).second) d = draw(spare++);
    texts.push_back(std::move(d.text));
  }
  return texts;
}

/// Server, tenant front end and schedule service, started in-process on an
/// ephemeral loopback port with the repository's default loop settings.
class ServerUnderTest {
 public:
  ServerUnderTest() = default;
  ServerUnderTest(const ServerUnderTest&) = delete;
  ServerUnderTest& operator=(const ServerUnderTest&) = delete;
  ~ServerUnderTest() { Stop(); }

  Status Start() {
    service::ServiceOptions sopts;
    sopts.workers = 2;
    sopts.queue_capacity = 4096;
    sopts.cache_capacity = 1 << 16;  // no hit key is ever evicted
    service_ = std::make_unique<service::ScheduleService>(sopts);
    tenant::TenantSchedulerOptions topts;
    topts.dispatch_threads = 2;
    tenants_ = std::make_unique<tenant::TenantScheduler>(service_.get(), topts);
    for (int t = 0; t < kTenants; ++t) {
      tenant::TenantConfig config;
      config.name = TenantName(t);
      config.weight = TenantWeight(t);
      config.queue_capacity = 1024;  // unlimited rate: nothing is refused
      if (Status st = tenants_->RegisterTenant(std::move(config)); !st.ok()) {
        return st;
      }
    }
    net::ServerOptions nopts;
    nopts.port = 0;
    server_ = std::make_unique<net::Server>(nopts, service_.get(),
                                            tenants_.get());
    return server_->Start();
  }

  void Stop() {
    if (server_ != nullptr) server_->Stop();
    if (tenants_ != nullptr) tenants_->Shutdown();
    if (service_ != nullptr) service_->Shutdown();
    server_.reset();
    tenants_.reset();
    service_.reset();
  }

  int port() const { return server_->port(); }
  const std::string& host() const { return server_->host(); }

 private:
  std::unique_ptr<service::ScheduleService> service_;
  std::unique_ptr<tenant::TenantScheduler> tenants_;
  std::unique_ptr<net::Server> server_;
};

struct Request {
  int key = 0;  // < kHitProblems: a warmed problem; above: a miss
  bool lookup = false;
  int tenant = 0;
};

/// Client-side counts of what came back, for the cross-check against the
/// server's STATS deltas, plus the latency served for each key.
struct Tally {
  explicit Tally(std::size_t keys) : served(keys) {
    for (auto& s : served) s.store(-1);
  }
  std::atomic<std::uint64_t> solves{0};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> hits{0};    // solve cache_hit + lookup found
  std::atomic<std::uint64_t> misses{0};  // solves answered cache_hit=false
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> bad_answers{0};
  std::atomic<std::uint64_t> tenant_hits[kTenants] = {};
  std::atomic<std::uint64_t> tenant_misses[kTenants] = {};
  std::vector<std::atomic<std::int64_t>> served;
};

std::vector<std::uint8_t> EncodeRequest(const std::vector<std::string>& texts,
                                        const Request& r) {
  if (r.lookup) {
    net::LookupRequestMsg msg;
    msg.tenant = TenantName(r.tenant);
    msg.problem_text = texts[static_cast<std::size_t>(r.key)];
    return net::EncodeBody(msg);
  }
  net::SolveRequestMsg msg;
  msg.tenant = TenantName(r.tenant);
  msg.problem_text = texts[static_cast<std::size_t>(r.key)];
  return net::EncodeBody(msg);
}

/// Decodes one response and checks it: the right verb, a proven-optimal
/// answer, a hit where one is due, and the same latency every time the key
/// is served. Returns false when the request failed.
bool Settle(const Request& r, const Expected<net::Frame>& frame,
            bool must_hit, Tally* tally) {
  if (!frame.ok()) {
    tally->errors.fetch_add(1);
    Note("request failed: %s", frame.status().ToString().c_str());
    return false;
  }
  net::ScheduleSummary summary;
  bool hit = false;
  if (r.lookup) {
    net::LookupResponseMsg msg;
    if (frame->type != net::MsgType::kLookupOk ||
        !net::Decode(frame->body.data(), frame->body.size(), &msg).ok()) {
      tally->errors.fetch_add(1);
      return false;
    }
    tally->lookups.fetch_add(1);
    hit = msg.found;
    summary = msg.summary;
  } else {
    net::SolveResponseMsg msg;
    if (frame->type != net::MsgType::kSolveOk ||
        !net::Decode(frame->body.data(), frame->body.size(), &msg).ok()) {
      tally->errors.fetch_add(1);
      return false;
    }
    tally->solves.fetch_add(1);
    hit = msg.cache_hit;
    summary = msg.summary;
  }
  const auto t = static_cast<std::size_t>(r.tenant);
  if (hit) {
    tally->hits.fetch_add(1);
    tally->tenant_hits[t].fetch_add(1);
  } else if (!r.lookup) {
    tally->misses.fetch_add(1);
    tally->tenant_misses[t].fetch_add(1);
  }
  bool good = summary.quality == 0 && (hit || !must_hit) &&
              (hit || !r.lookup);
  std::int64_t expected = -1;
  auto& slot = tally->served[static_cast<std::size_t>(r.key)];
  if (!slot.compare_exchange_strong(expected, summary.latency)) {
    good = good && expected == summary.latency;
  }
  if (!good) tally->bad_answers.fetch_add(1);
  return true;
}

/// Seeded Zipf draw over [0, n).
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(i + 1, s);
      cdf_[static_cast<std::size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Hit requests over the warmed keys: Zipf popularity, a solve/lookup mix,
/// tenants drawn uniformly. The popularity order is a seeded permutation.
std::vector<Request> HitRequests(Rng& rng, int count) {
  static const Zipf zipf(kHitProblems, kZipfExponent);
  std::vector<int> rank(kHitProblems);
  for (int i = 0; i < kHitProblems; ++i) rank[static_cast<std::size_t>(i)] = i;
  std::shuffle(rank.begin(), rank.end(), rng);
  std::vector<Request> out(static_cast<std::size_t>(count));
  for (Request& r : out) {
    r.key = rank[static_cast<std::size_t>(zipf.Draw(rng))];
    r.lookup = rng.NextDouble() < kLookupShare;
    r.tenant = static_cast<int>(rng.NextBelow(kTenants));
  }
  return out;
}

/// Blocks until `done` is set by a completion on the reader thread.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Expected<net::Frame> frame = Status(InternalError("no response"));

  void Complete(Expected<net::Frame> f) {
    std::lock_guard<std::mutex> lock(mu);
    frame = std::move(f);
    done = true;
    cv.notify_one();
  }
  Expected<net::Frame> Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    done = false;
    return std::move(frame);
  }
};

/// What both workloads share: the server, the problem texts and the STATS
/// snapshot taken before the measured phases.
struct Bench {
  ServerUnderTest server;
  std::vector<std::string> texts;  // warmed keys first, then misses
  net::StatsResponseMsg before;
};

/// Starts the server and warms every hit key with one cold solve.
Status StartAndWarm(std::uint64_t seed, int misses, Bench* bench,
                    net::AsyncClient* client) {
  bench->texts = DistinctProblems(seed, kHitProblems + misses);
  if (Status st = bench->server.Start(); !st.ok()) return st;
  if (Status st = client->Connect(bench->server.host(), bench->server.port());
      !st.ok()) {
    return st;
  }
  // The warm-up keeps fewer solves in flight than the server admits from
  // one connection.
  net::AsyncClientOptions wopts;
  wopts.window = 32;
  net::AsyncClient warm(wopts);
  if (Status st = warm.Connect(bench->server.host(), bench->server.port());
      !st.ok()) {
    return st;
  }
  std::atomic<int> failed{0};
  std::atomic<int> pending{kHitProblems};
  Waiter all_done;
  for (int k = 0; k < kHitProblems; ++k) {
    net::SolveRequestMsg msg;
    msg.tenant = TenantName(k % kTenants);
    msg.problem_text = bench->texts[static_cast<std::size_t>(k)];
    warm.SolveAsync(msg, [&](Expected<net::SolveResponseMsg> r) {
      if (!r.ok() || r->summary.quality != 0) failed.fetch_add(1);
      if (pending.fetch_sub(1) == 1) all_done.Complete(net::Frame{});
    });
  }
  all_done.Wait();
  if (failed.load() != 0) {
    return InternalError(std::to_string(failed.load()) +
                         " warm-up solves failed");
  }
  return OkStatus();
}

/// The checks both workloads share, on counts taken after the last response:
/// the client's tallies must match the server's STATS deltas, every answer
/// must have been good, and each key's served latency must equal a direct
/// solve of its problem.
void CheckServed(const Bench& bench, const net::StatsResponseMsg& after,
                 const Tally& tally, std::uint64_t sent, Result* result) {
  const net::StatsResponseMsg& b = bench.before;
  const std::uint64_t answered = tally.solves + tally.lookups;
  const double share = 100.0 / static_cast<double>(std::max<std::uint64_t>(
                                   1, answered));
  Note("traffic: %.1f %% lookups, %.1f %% hits, %.1f %% misses of %llu "
       "answered requests",
       share * static_cast<double>(tally.lookups.load()),
       share * static_cast<double>(tally.hits.load()),
       share * static_cast<double>(tally.misses.load()),
       static_cast<unsigned long long>(answered));
  result->Check(answered + tally.errors == sent,
                "every request got exactly one response (" +
                    std::to_string(answered + tally.errors) + " of " +
                    std::to_string(sent) + ")");
  result->Check(tally.errors == 0, "no request failed");
  result->Check(tally.bad_answers == 0,
                std::to_string(tally.bad_answers.load()) +
                    " answers were not optimal, not a due hit, or changed "
                    "latency");
  result->Check(after.protocol_errors == b.protocol_errors,
                "server reports no protocol errors");
  result->Check(after.lookups - b.lookups == answered,
                "server cache probes == client solves + lookups");
  result->Check(after.lookup_hits - b.lookup_hits == tally.hits,
                "server lookup hits (" +
                    std::to_string(after.lookup_hits - b.lookup_hits) +
                    ") == client hits (" + std::to_string(tally.hits.load()) +
                    ")");
  result->Check(after.solves - b.solves == tally.misses,
                "server solves (" + std::to_string(after.solves - b.solves) +
                    ") == client misses (" +
                    std::to_string(tally.misses.load()) + ")");
  bool per_tenant = after.tenants.size() == b.tenants.size() &&
                    after.tenants.size() == static_cast<std::size_t>(kTenants);
  for (std::size_t t = 0; per_tenant && t < after.tenants.size(); ++t) {
    per_tenant =
        after.tenants[t].name == TenantName(static_cast<int>(t)) &&
        after.tenants[t].cache_hits - b.tenants[t].cache_hits ==
            tally.tenant_hits[t] &&
        after.tenants[t].dispatched - b.tenants[t].dispatched ==
            tally.tenant_misses[t];
  }
  result->Check(per_tenant,
                "per-tenant hits and dispatched solves match the client");
  std::size_t wrong = 0;
  for (std::size_t k = 0; k < tally.served.size(); ++k) {
    const std::int64_t served = tally.served[k].load();
    if (served < 0) continue;  // never requested in this run
    auto spec = graph::ParseProblem(bench.texts[k]);
    if (!spec.ok()) {
      ++wrong;
      continue;
    }
    const sched::OptimalScheduler direct(spec->graph, spec->costs, spec->comm,
                                         spec->machine);
    auto solved = direct.Schedule(RegimeId(0));
    if (!solved.ok() || solved->min_latency != served) ++wrong;
  }
  result->Check(wrong == 0, std::to_string(wrong) +
                                " keys were served a latency that differs "
                                "from a direct solve");
}

std::uint64_t TraceId(int phase, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(phase) << 40) | (seq + 1);
}

ProbeInputs ServeProbe(const Args& args, const Bench& bench) {
  ProbeInputs probe;
  probe.seed = args.seed;
  for (int k = 0; k < 16; ++k) {
    probe.problem_texts.push_back(bench.texts[static_cast<std::size_t>(k)]);
  }
  return probe;
}

}  // namespace

void RunServeHits(const Args& args, Result* result) {
  Rng rng(args.seed);
  Bench bench;
  net::AsyncClientOptions copts;
  copts.window = kWindow;
  net::AsyncClient pipe(copts);  // the pipelined connection
  if (Status st = StartAndWarm(args.seed, 0, &bench, &pipe); !st.ok()) {
    result->Check(false, "server start and warm-up: " + st.ToString());
    return;
  }
  // A hot pass over the window-1 path before anything is timed.
  net::AsyncClientOptions w1opts;
  w1opts.window = 1;
  net::AsyncClient w1(w1opts);
  result->Check(w1.Connect(bench.server.host(), bench.server.port()).ok(),
                "window-1 connect");
  const std::vector<Request> latency_round = HitRequests(rng, kLatencyRound);
  const std::vector<Request> pipelined_round =
      HitRequests(rng, kPipelinedRound);
  Waiter waiter;
  for (const Request& r : latency_round) {
    w1.Submit(r.lookup ? net::MsgType::kLookup : net::MsgType::kSolve,
              EncodeRequest(bench.texts, r),
              [&](Expected<net::Frame> f) { waiter.Complete(std::move(f)); });
    waiter.Wait();
  }
  auto before = pipe.Stats();
  result->Check(before.ok(), "STATS before the measured phases");
  if (!before.ok()) return;
  bench.before = *before;
  Tally tally(bench.texts.size());
  std::uint64_t sent = 0;

  result->Metric("setup_s", NowUs() / 1e6, "s");
  const double phase_us = args.seconds * 1e6 / 2;

  // ---- Window 1: one request in flight, round trip timed ---------------------
  Reservoir rtt_us(kRttSamples, args.seed);
  std::uint64_t seq = 0;
  const double w1_end = NowUs() + phase_us;
  while (NowUs() < w1_end) {
    for (const Request& r : latency_round) {
      const std::uint64_t trace = TraceId(1, seq++);
      const std::uint32_t span =
          trace % kTraceEvery == 0 ? GlobalTracer().Reserve() : 0;
      const double start = NowUs();
      std::vector<std::uint8_t> body;
      body = EncodeRequest(bench.texts, r);
      if (span != 0) GlobalTracer().Record("net.encode", start, NowUs(), span, trace);
      const double t1 = NowUs();
      Status st = w1.Submit(
          r.lookup ? net::MsgType::kLookup : net::MsgType::kSolve, body,
          [&](Expected<net::Frame> f) { waiter.Complete(std::move(f)); });
      Expected<net::Frame> frame =
          st.ok() ? waiter.Wait() : Expected<net::Frame>(st);
      const double t2 = NowUs();
      const bool ok = Settle(r, frame, /*must_hit=*/true, &tally);
      const double end = NowUs();
      if (span != 0) {
        GlobalTracer().Record("net.round_trip", t1, t2, span, trace);
        GlobalTracer().Record("net.decode", t2, end, span, trace);
        GlobalTracer().Finish(span, "request", start, end, 0, trace);
      }
      ++sent;
      result->Attempt(1);
      if (!ok) {
        result->Fail(1);
        continue;
      }
      rtt_us.Add(end - start);
    }
  }

  // ---- Pipelined: window 64, sends batched 16 to a syscall ------------------
  std::uint64_t pipelined_done = 0;
  const double pipe_start = NowUs();
  Reservoir pipe_rtt_us(kRttSamples, args.seed + 1);
  const double pipe_end = pipe_start + phase_us;
  while (NowUs() < pipe_end) {
    std::atomic<int> pending{kPipelinedRound};
    std::vector<double> round_rtt(kPipelinedRound, 0);
    std::atomic<std::uint64_t> round_failed{0};
    Waiter round_done;
    pipe.Cork();
    for (int i = 0; i < kPipelinedRound; ++i) {
      const Request& r = pipelined_round[static_cast<std::size_t>(i)];
      const std::uint64_t trace = TraceId(2, seq++);
      const bool traced = trace % kTraceEvery == 0;
      const std::uint32_t span = traced ? GlobalTracer().Reserve() : 0;
      const double start = NowUs();
      std::vector<std::uint8_t> body = EncodeRequest(bench.texts, r);
      if (traced) GlobalTracer().Record("net.encode", start, NowUs(), span, trace);
      Status st = pipe.Submit(
          r.lookup ? net::MsgType::kLookup : net::MsgType::kSolve, body,
          [&, i, start, span, trace](Expected<net::Frame> f) {
            const double got = NowUs();
            const Request& req = pipelined_round[static_cast<std::size_t>(i)];
            if (!Settle(req, f, /*must_hit=*/true, &tally)) {
              round_failed.fetch_add(1);
            }
            round_rtt[static_cast<std::size_t>(i)] = got - start;
            if (span != 0) {
              const double end = NowUs();
              GlobalTracer().Record("net.decode", got, end, span, trace);
              GlobalTracer().Finish(span, "request", start, end, 0, trace);
            }
            if (pending.fetch_sub(1) == 1) round_done.Complete(net::Frame{});
          });
      if (!st.ok()) {
        round_failed.fetch_add(1);
        tally.errors.fetch_add(1);
        if (pending.fetch_sub(1) == 1) round_done.Complete(net::Frame{});
      }
      if ((i + 1) % kCorkChunk == 0) {
        pipe.Uncork();
        pipe.Cork();
      }
    }
    pipe.Uncork();
    round_done.Wait();
    sent += kPipelinedRound;
    pipelined_done += kPipelinedRound - round_failed.load();
    result->Attempt(kPipelinedRound);
    result->Fail(round_failed.load());
    for (double rtt : round_rtt) pipe_rtt_us.Add(rtt);
  }
  const double pipe_s = (NowUs() - pipe_start) / 1e6;
  Note("serve_hits: %llu window-1 requests, %llu pipelined in %.2f s",
       static_cast<unsigned long long>(rtt_us.seen()),
       static_cast<unsigned long long>(pipelined_done), pipe_s);

  // ---- Checks (untimed) ------------------------------------------------------
  auto after = pipe.Stats();
  result->Check(after.ok(), "STATS after the measured phases");
  if (after.ok()) CheckServed(bench, *after, tally, sent, result);

  const std::vector<double> w1_sample = rtt_us.Samples();
  NoteTail("window-1 round trip", w1_sample, 1, "us");
  result->Metric("op_ms", Percentile(w1_sample, 0.5) / 1e3, "ms",
                 rtt_us.seen());
  result->Metric("heavy_ms", Median(pipe_rtt_us.Samples()) / 1e3, "ms",
                 pipe_rtt_us.seen());
  result->Metric("throughput_per_s",
                 static_cast<double>(pipelined_done) / pipe_s, "1/s",
                 pipelined_done);
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");

  if (args.trace && after.ok()) {
    double server_p50 = 0;
    for (const auto& t : after->tenants) server_p50 += t.p50_latency_us;
    server_p50 /= std::max<std::size_t>(1, after->tenants.size());
    Note("serve_hits path: server per-tenant p50 %.1f us, client overhead "
         "%.1f us at window 1",
         server_p50, Percentile(w1_sample, 0.5) - server_p50);
  }
  w1.Close();
  pipe.Close();
  bench.server.Stop();
  if (args.trace) RunLayerProbe(ServeProbe(args, bench), result);
}

void RunServeMixed(const Args& args, Result* result) {
  Rng rng(args.seed);
  const int blocks = static_cast<int>(args.seconds * kMixedRate / kMixedBlock);
  const int misses = blocks * kMixedMissesPerBlock;
  Bench bench;
  net::AsyncClientOptions copts;
  copts.window = kMixedWindow;
  net::AsyncClient client(copts);
  if (Status st = StartAndWarm(args.seed, misses, &bench, &client);
      !st.ok()) {
    result->Check(false, "server start and warm-up: " + st.ToString());
    return;
  }
  // The arrival schedule: each block is a seeded mix of hits with
  // kMixedMissesPerBlock misses at seeded positions; every miss is a new key.
  const int total = blocks * kMixedBlock;
  std::vector<Request> requests = HitRequests(rng, total);
  for (int b = 0; b < blocks; ++b) {
    std::vector<int> slots(kMixedBlock);
    for (int i = 0; i < kMixedBlock; ++i) slots[static_cast<std::size_t>(i)] = i;
    std::shuffle(slots.begin(), slots.end(), rng);
    for (int m = 0; m < kMixedMissesPerBlock; ++m) {
      Request& r = requests[static_cast<std::size_t>(
          b * kMixedBlock + slots[static_cast<std::size_t>(m)])];
      r.key = kHitProblems + b * kMixedMissesPerBlock + m;
      r.lookup = false;
    }
  }
  auto before = client.Stats();
  result->Check(before.ok(), "STATS before the measured phase");
  if (!before.ok()) return;
  bench.before = *before;
  Tally tally(bench.texts.size());

  result->Metric("setup_s", NowUs() / 1e6, "s");
  const double interval_us = 1e6 / kMixedRate;
  std::vector<double> latency_us(static_cast<std::size_t>(total), -1);
  std::vector<double> lag_us(static_cast<std::size_t>(total), 0);
  std::atomic<int> pending{total};
  std::atomic<std::uint64_t> failed{0};
  Waiter all_done;
  const double t0 = NowUs() + 1000;
  for (int i = 0; i < total; ++i) {
    const Request& r = requests[static_cast<std::size_t>(i)];
    const double due = t0 + i * interval_us;
    SleepUntilUs(due);
    const double sent_at = NowUs();
    lag_us[static_cast<std::size_t>(i)] = sent_at - due;
    const std::uint64_t trace = TraceId(3, static_cast<std::uint64_t>(i));
    const bool traced = r.key >= kHitProblems || trace % kTraceEvery == 0;
    const std::uint32_t span = traced ? GlobalTracer().Reserve() : 0;
    std::vector<std::uint8_t> body = EncodeRequest(bench.texts, r);
    if (traced) GlobalTracer().Record("net.encode", sent_at, NowUs(), span, trace);
    Status st = client.Submit(
        r.lookup ? net::MsgType::kLookup : net::MsgType::kSolve, body,
        [&, i, due, span, trace](Expected<net::Frame> f) {
          const double got = NowUs();
          const Request& req = requests[static_cast<std::size_t>(i)];
          if (Settle(req, f, /*must_hit=*/req.key < kHitProblems, &tally)) {
            latency_us[static_cast<std::size_t>(i)] = got - due;
          } else {
            failed.fetch_add(1);
          }
          if (span != 0) {
            const double end = NowUs();
            GlobalTracer().Record("net.decode", got, end, span, trace);
            GlobalTracer().Finish(span, "request", due, end, 0, trace);
          }
          if (pending.fetch_sub(1) == 1) all_done.Complete(net::Frame{});
        });
    if (!st.ok()) {
      failed.fetch_add(1);
      tally.errors.fetch_add(1);
      if (pending.fetch_sub(1) == 1) all_done.Complete(net::Frame{});
    }
  }
  all_done.Wait();
  const double measured_s = (NowUs() - t0) / 1e6;
  result->Attempt(static_cast<std::uint64_t>(total));
  result->Fail(failed.load());

  std::vector<double> hit_us;
  std::vector<double> miss_us;
  for (int i = 0; i < total; ++i) {
    const double l = latency_us[static_cast<std::size_t>(i)];
    if (l < 0) continue;
    (requests[static_cast<std::size_t>(i)].key < kHitProblems ? hit_us
                                                              : miss_us)
        .push_back(l);
  }
  Note("serve_mixed: %d requests (%d misses) at %.0f/s in %.2f s; generator "
       "lag p50 %.1f us, p99 %.1f us",
       total, misses, kMixedRate, measured_s, Percentile(lag_us, 0.5),
       Percentile(lag_us, 0.99));

  auto after = client.Stats();
  result->Check(after.ok(), "STATS after the measured phase");
  if (after.ok()) {
    CheckServed(bench, *after, tally, static_cast<std::uint64_t>(total),
                result);
  }
  result->Check(tally.misses == static_cast<std::uint64_t>(misses),
                "every unique problem missed the cache exactly once");

  NoteTail("mixed hit latency", hit_us, 1, "us");
  result->Metric("op_ms", Percentile(hit_us, 0.5) / 1e3, "ms",
                 hit_us.size());
  result->Metric("heavy_ms", Percentile(miss_us, 0.5) / 1e3, "ms",
                 miss_us.size());
  result->Metric("throughput_per_s",
                 static_cast<double>(hit_us.size() + miss_us.size()) /
                     measured_s,
                 "1/s", hit_us.size() + miss_us.size());
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");
  if (args.trace && after.ok()) {
    for (const auto& t : after->tenants) {
      Note("tenant %s weight %.0f: dispatched %llu, cache hits %llu, p50 "
           "%.1f us",
           t.name.c_str(), t.weight,
           static_cast<unsigned long long>(t.dispatched),
           static_cast<unsigned long long>(t.cache_hits), t.p50_latency_us);
    }
  }
  client.Close();
  bench.server.Stop();
  if (args.trace) RunLayerProbe(ServeProbe(args, bench), result);
}

}  // namespace pb
