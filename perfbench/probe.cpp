// The per-layer probe of a traced run: times the program's public calls of
// each module on the workload's own problem texts and on tracker frames of
// the workload's seed, and reads the counters the modules export. Every
// traced run reports the same per-layer metrics, so a layer's figures can be
// compared across workloads and across commits.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph_io.hpp"
#include "net/protocol.hpp"
#include "regime/schedule_table.hpp"
#include "runtime/app.hpp"
#include "runtime/regime_runner.hpp"
#include "runtime/scheduled_runner.hpp"
#include "runtime/timing.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal.hpp"
#include "service/schedule_service.hpp"
#include "stm/channel.hpp"
#include "tenant/tenant_service.hpp"
#include "tracker/bodies.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"
#include "tracker/kernels.hpp"

namespace pb {
namespace {

using namespace ss;

constexpr int kRepeats = 20;
constexpr int kProbeFrames = 16;
constexpr int kProbePeople = 4;

/// Median microseconds of `body` over `repeats` calls, each under a span.
template <typename Fn>
double TimeUs(const char* span, int repeats, Fn&& body) {
  std::vector<double> us;
  for (int i = 0; i < repeats; ++i) {
    Span s(span);
    const double start = NowUs();
    body();
    us.push_back(NowUs() - start);
  }
  return Median(std::move(us));
}

void ProbeSolverLayers(const ProbeInputs& in, Result* result) {
  std::vector<graph::ProblemSpec> specs;
  std::vector<double> parse_us;
  std::vector<double> fingerprint_us;
  for (const std::string& text : in.problem_texts) {
    Expected<graph::ProblemSpec> spec = graph::ProblemSpec{};
    parse_us.push_back(TimeUs("graph.parse", 5, [&] {
      spec = graph::ParseProblem(text);
    }));
    result->Check(spec.ok(), "probe: problem text parses");
    if (!spec.ok()) return;
    fingerprint_us.push_back(TimeUs("graph.fingerprint", 5, [&] {
      const graph::Fingerprint fp(*spec);
      result->Check(!fp.IsZero(), "probe: fingerprint");
    }));
    specs.push_back(std::move(*spec));
  }
  result->LayerMetric("graph.parse_us", Median(parse_us), "us");
  result->LayerMetric("graph.fingerprint_us", Median(fingerprint_us), "us");

  std::vector<double> solve_ms;
  std::vector<double> seed_ms;
  double nodes = 0;
  double complete = 0;
  double total_ms = 0;
  sched::OptimalOptions options;
  options.solver_threads = std::min(4, Cores());
  for (const auto& spec : specs) {
    const sched::OptimalScheduler solver(spec.graph, spec.costs, spec.comm,
                                         spec.machine);
    Expected<sched::OptimalResult> r = sched::OptimalResult{};
    const double ms = TimeUs("sched.solve", 1, [&] {
                        r = solver.Schedule(RegimeId(0), options);
                      }) / 1e3;
    result->Check(r.ok(), "probe: exact solve");
    if (!r.ok()) continue;
    solve_ms.push_back(ms);
    total_ms += ms;
    nodes += static_cast<double>(r->nodes_explored);
    complete += static_cast<double>(r->complete_schedules);
    const sched::ListScheduler list(spec.comm, spec.machine);
    seed_ms.push_back(TimeUs("sched.list_seed", 3, [&] {
                        auto s = list.ScheduleBestVariant(spec.graph,
                                                          spec.costs,
                                                          RegimeId(0));
                        result->Check(s.ok(), "probe: list schedule");
                      }) / 1e3);
  }
  result->LayerMetric("sched.solve_ms", Median(solve_ms), "ms");
  result->LayerMetric("sched.seed_ms", Median(seed_ms), "ms");
  result->LayerMetric("sched.nodes_explored", nodes, "count");
  result->LayerMetric("sched.nodes_per_ms", total_ms > 0 ? nodes / total_ms : 0,
                      "1/ms");
  result->LayerMetric("sched.complete_schedules", complete, "count");

  // Service and tenant front end, warmed with the same problems.
  service::ServiceOptions sopts;
  sopts.workers = 1;
  service::ScheduleService svc(sopts);
  tenant::TenantScheduler tenants(&svc);
  std::vector<service::SolveRequest> requests;
  for (const auto& spec : specs) {
    service::SolveRequest req;
    req.problem = std::make_shared<const graph::ProblemSpec>(spec);
    {
      Span s("service.solve");
      result->Check(svc.Solve(req).ok(), "probe: service solve");
    }
    requests.push_back(std::move(req));
  }
  std::vector<double> lookup_us;
  std::vector<double> tenant_us;
  for (const auto& req : requests) {
    lookup_us.push_back(TimeUs("service.lookup", kRepeats, [&] {
      result->Check(svc.Lookup(req).ok(), "probe: service lookup hits");
    }));
    tenant_us.push_back(TimeUs("tenant.lookup", kRepeats, [&] {
      result->Check(tenants.Lookup("probe", req).ok(),
                    "probe: tenant lookup hits");
    }));
  }
  const service::ServiceStats stats = svc.Stats();
  result->LayerMetric("service.lookup_us", Median(lookup_us), "us");
  result->LayerMetric(
      "service.solve_mean_ms",
      stats.solves > 0 ? ticks::ToMillis(stats.solve_ticks) /
                             static_cast<double>(stats.solves)
                       : 0,
      "ms");
  result->LayerMetric("tenant.lookup_us", Median(tenant_us), "us");
  tenants.Shutdown();
  svc.Shutdown();

  // The v2 codec on solve-request frames of the same texts.
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::uint64_t id = 1;
  for (const std::string& text : in.problem_texts) {
    net::SolveRequestMsg msg;
    msg.tenant = "probe";
    msg.problem_text = text;
    std::vector<std::uint8_t> wire;
    encode_us.push_back(TimeUs("net.encode", kRepeats, [&] {
      wire = net::EncodeFrame(net::MsgType::kSolve, net::EncodeBody(msg),
                              net::kProtocolVersion2, id++);
    }));
    decode_us.push_back(TimeUs("net.decode", kRepeats, [&] {
      net::FrameDecoder decoder;
      decoder.Append(wire.data(), wire.size());
      net::Frame frame;
      auto got = decoder.Next(&frame);
      net::SolveRequestMsg back;
      result->Check(got.ok() && *got &&
                        net::Decode(frame.body.data(), frame.body.size(),
                                    &back)
                            .ok() &&
                        back.problem_text == text,
                    "probe: codec round trip");
    }));
  }
  result->LayerMetric("net.encode_us", Median(encode_us), "us");
  result->LayerMetric("net.decode_us", Median(decode_us), "us");
}

void ProbeDataPlane(const ProbeInputs& in, Result* result) {
  tracker::TrackerParams params;
  params.width = in.frame_width;
  params.height = in.frame_height;
  params.seed = in.seed;
  std::vector<tracker::Frame> frames;
  for (int ts = 0; ts <= kProbeFrames; ++ts) {
    frames.push_back(tracker::SynthesizeFrame(params, ts, kProbePeople));
  }
  const tracker::ModelSet models =
      tracker::MakeModelSet(params, kProbePeople);
  std::vector<double> hist_us;
  std::vector<double> change_us;
  std::vector<double> back_us;
  std::vector<double> peak_us;
  const int pixels = params.width * params.height;
  std::vector<float> map(static_cast<std::size_t>(pixels));
  for (int ts = 1; ts <= kProbeFrames; ++ts) {
    const tracker::Frame& f = frames[static_cast<std::size_t>(ts)];
    tracker::FrameHistogram hist;
    hist_us.push_back(TimeUs("tracker.histogram", 1, [&] {
      hist = tracker::ComputeHistogram(f);
    }));
    tracker::MotionMask mask;
    change_us.push_back(TimeUs("tracker.change_detect", 1, [&] {
      mask = tracker::ChangeDetect(f, &frames[static_cast<std::size_t>(ts - 1)]);
    }));
    back_us.push_back(TimeUs("tracker.backproject", 1, [&] {
      const tracker::Histogram ratio = tracker::PrepareRatioHistogram(
          models.models[0].hist, hist.hist, params.prep_passes);
      tracker::Backproject(f, mask, ratio, 0, params.height,
                           params.pixel_work, map.data());
    }));
    peak_us.push_back(TimeUs("tracker.peak", 1, [&] {
      const tracker::Detection d =
          tracker::FindPeak(map, params.width, params.height, 0);
      (void)d;
    }));
  }
  result->LayerMetric("tracker.kernel_us.histogram", Median(hist_us), "us");
  result->LayerMetric("tracker.kernel_us.change_detect", Median(change_us),
                      "us");
  result->LayerMetric("tracker.kernel_us.backproject", Median(back_us), "us");
  result->LayerMetric("tracker.kernel_us.peak", Median(peak_us), "us");

  // STM put/get on a bounded channel carrying frame-sized items.
  stm::ChannelOptions copts;
  copts.capacity = 8;
  stm::Channel channel(ChannelId(0), "probe_frames", copts);
  const ConnId out = channel.Attach(stm::ConnDir::kOutput);
  const ConnId in_conn = channel.Attach(stm::ConnDir::kInput);
  std::vector<double> put_us;
  std::vector<double> get_us;
  for (int ts = 0; ts < kRepeats * 4; ++ts) {
    tracker::Frame copy = frames[static_cast<std::size_t>(ts) % frames.size()];
    put_us.push_back(TimeUs("stm.put", 1, [&] {
      result->Check(channel.PutValue(out, ts, std::move(copy)).ok(),
                    "probe: channel put");
    }));
    get_us.push_back(TimeUs("stm.get", 1, [&] {
      result->Check(channel.Get(in_conn, stm::TsQuery::Exact(ts)).ok(),
                    "probe: channel get");
    }));
    result->Check(channel.Consume(in_conn, ts).ok(), "probe: consume");
  }
  const stm::ChannelStats cstats = channel.Stats();
  result->Check(cstats.puts == cstats.reclaimed + cstats.dropped +
                                   cstats.occupancy,
                "probe: channel conserves items");
  result->LayerMetric("stm.put_us", Median(put_us), "us");
  result->LayerMetric("stm.get_us", Median(get_us), "us");
  result->LayerMetric("stm.max_occupancy",
                      static_cast<double>(cstats.max_occupancy), "count");

  // Runtime per-task times and a regime switch, on a two-regime table.
  const tracker::TrackerGraph tg =
      tracker::BuildTrackerGraph(params, kProbePeople);
  const regime::RegimeSpace space(kProbePeople - 1, kProbePeople);
  const graph::CostModel costs = tracker::PaperCostModel(tg, space);
  auto table = regime::ScheduleTable::Precompute(
      space, tg.graph, costs, graph::CommModel(),
      graph::MachineConfig::SingleNode(4));
  result->Check(table.ok(), "probe: tracker table");
  if (!table.ok()) return;
  auto state = [](Timestamp ts) {
    return ts < kProbeFrames ? kProbePeople - 1 : kProbePeople;
  };
  // Aligns T4's decomposition with the schedule's variant for the regime.
  auto reconfigure = [&](runtime::Application& app, RegimeId r,
                         const regime::TableEntry& entry) {
    auto* t4 = dynamic_cast<tracker::TargetDetectionBody*>(
        app.body(tg.target_detection));
    const std::string& name =
        costs.Get(r, tg.target_detection)
            .variant(entry.schedule.iteration
                         .variants()[tg.target_detection.index()])
            .name;
    int fp = 1;
    int mp = 1;
    T4Decomposition(name, &fp, &mp);
    t4->SetDecomposition(fp, mp);
  };
  {
    runtime::Application app(tg.graph);
    tracker::InstallTrackerBodies(tg, params, state, kProbePeople, &app);
    result->Check(app.Materialize().ok(), "probe: materialize");
    runtime::TaskTimingCollector timing(tg.graph.task_count());
    const RegimeId regime = space.FromState(kProbePeople - 1);
    const regime::TableEntry& entry = table->Get(regime);
    reconfigure(app, regime, entry);
    runtime::ScheduledRunOptions ropts;
    ropts.frames = kProbeFrames;
    ropts.timing = &timing;
    runtime::ScheduledRunner runner(app, *entry.op_graph, entry.schedule,
                                    ropts);
    Expected<runtime::ScheduledRunResult> run = [&] {
      Span s("runtime.scheduled_run");
      return runner.Run();
    }();
    result->Check(run.ok() && run->metrics.frames_completed == kProbeFrames,
                  "probe: scheduled run completes");
    const std::pair<const char*, TaskId> tasks[] = {
        {"runtime.task_us.digitizer", tg.digitizer},
        {"runtime.task_us.histogram", tg.histogram},
        {"runtime.task_us.change_detection", tg.change_detection},
        {"runtime.task_us.peak_detection", tg.peak_detection}};
    for (const auto& [name, task] : tasks) {
      result->LayerMetric(name, timing.SerialStats(task).mean(), "us");
    }
    result->LayerMetric(
        "runtime.frame_latency_ms",
        run.ok() ? run->metrics.latency_seconds.median * 1e3 : 0, "ms");
  }
  {
    runtime::Application app(tg.graph);
    tracker::InstallTrackerBodies(tg, params, state, kProbePeople, &app);
    result->Check(app.Materialize().ok(), "probe: materialize");
    runtime::RegimeRunnerOptions ropts;
    ropts.frames = 2 * kProbeFrames;
    runtime::RegimeSwitchingRunner runner(
        app, space, *table, state,
        [&](RegimeId r, const regime::TableEntry& entry) {
          reconfigure(app, r, entry);
        },
        ropts);
    Expected<runtime::RegimeRunResult> run = [&] {
      Span s("runtime.regime_run");
      return runner.Run();
    }();
    result->Check(run.ok() && run->switches.size() == 1,
                  "probe: one regime switch");
    result->LayerMetric(
        "regime.switch_overhead_ms",
        run.ok() && !run->switches.empty()
            ? ticks::ToMillis(run->switches[0].wall_overhead)
            : 0,
        "ms");
  }
}

}  // namespace

void RunLayerProbe(const ProbeInputs& in, Result* result) {
  Note("per-layer probe on %zu problem texts and %dx%d frames",
       in.problem_texts.size(), in.frame_width, in.frame_height);
  Span root("probe");
  ProbeSolverLayers(in, result);
  ProbeDataPlane(in, result);
}

}  // namespace pb
