// tracker_stream: the color tracker with its real kernels on synthetic
// frames under runtime::RegimeSwitchingRunner. An arrival script derived
// from the kiosk session of EXPERIMENTS.md §3.4 moves the number of people
// through the regimes; each regime runs the table's schedule, solved once in
// set-up from the paper's fixed cost model (never from costs measured in the
// run, so every run executes the same schedules). Whole passes of the script
// run unpaced (throughput) and then paced at a fixed period (latency).
#include <algorithm>
#include <cstdlib>
#include <memory>

#include "common.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "graph/graph_io.hpp"
#include "regime/schedule_table.hpp"
#include "runtime/app.hpp"
#include "runtime/regime_runner.hpp"
#include "stm/channel.hpp"
#include "tracker/bodies.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"

namespace pb {
namespace {

using namespace ss;

constexpr int kMinPeople = 1;
constexpr int kMaxPeople = 6;

/// One pass of the arrival script has a fixed make-up, derived from the
/// kiosk session of EXPERIMENTS.md §3.4 (regime::StateTimeline::BirthDeath:
/// Poisson arrivals every 45 s, exponential dwells of 90 s, one person from
/// the start) at that session's 1.31 frames/s. Over a long horizon that
/// process, clamped to 1..6 people, changes state every 31 frames and visits
/// 1..6 people in the shares 7/21/29/24/14/5 % of its visits, for a mean
/// stay of 59/39/30/24/20/34 frames (perfbench/README.md). A pass holds 20
/// segments in those proportions; the seed only orders them, so every run
/// executes the same mix of regimes.
struct Segments {
  int people;
  int count;   // segments of this many people in one pass
  int frames;  // frames of each
};
constexpr Segments kPassMakeUp[] = {{1, 1, 59}, {2, 4, 39}, {3, 6, 30},
                                    {4, 5, 24}, {5, 3, 20}, {6, 1, 34}};
constexpr int kFramesPerPass = [] {
  int frames = 0;
  for (const Segments& s : kPassMakeUp) frames += s.count * s.frames;
  return frames;
}();
/// Paced release period: slower than the per-frame work of the busiest
/// regime at 320x240, so paced frames do not queue behind each other.
constexpr Tick kPacedPeriodUs = 8000;
constexpr std::size_t kWarmupFrames = 2;
/// Up to this many people the kernels find every planted target; beyond
/// it they miss some targets on a seed-dependent share of frames (README.md),
/// so those frames are counted but not failed.
constexpr int kGroundTruthPeople = 4;

struct Stream {
  tracker::TrackerParams params;
  tracker::TrackerGraph tg;
  regime::RegimeSpace space{kMinPeople, kMaxPeople};
  graph::ProblemSpec spec;
  std::unique_ptr<regime::ScheduleTable> table;
  std::vector<int> people;  // per timestamp of one pass

  int People(Timestamp ts) const {
    return people[static_cast<std::size_t>(ts) % people.size()];
  }
};

/// The segments of kPassMakeUp in a seeded order in which no two neighbours
/// hold the same number of people, expanded to one entry per frame.
std::vector<int> ArrivalScript(Rng& rng, std::string* order) {
  std::vector<const Segments*> segments;
  for (const Segments& s : kPassMakeUp) {
    for (int i = 0; i < s.count; ++i) segments.push_back(&s);
  }
  auto adjacent_equal = [&segments] {
    for (std::size_t i = 1; i < segments.size(); ++i) {
      if (segments[i]->people == segments[i - 1]->people) return true;
    }
    return false;
  };
  do {
    std::shuffle(segments.begin(), segments.end(), rng);
  } while (adjacent_equal());
  std::vector<int> people;
  for (const Segments* s : segments) {
    people.insert(people.end(), static_cast<std::size_t>(s->frames), s->people);
    *order += std::to_string(s->people) + "x" + std::to_string(s->frames) + " ";
  }
  return people;
}

struct Pass {
  std::vector<double> latency_ms;
  double wall_s = 0;
  std::size_t completed = 0;
  std::vector<double> switch_ms;
  std::vector<tracker::DetectionSet> detections;  // by timestamp
};

bool SameDetections(const tracker::DetectionSet& a,
                    const tracker::DetectionSet& b) {
  if (a.detections.size() != b.detections.size()) return false;
  for (std::size_t m = 0; m < a.detections.size(); ++m) {
    const tracker::Detection& x = a.detections[m];
    const tracker::Detection& y = b.detections[m];
    if (x.model_id != y.model_id || x.x != y.x || x.y != y.y) return false;
  }
  return true;
}

/// The detections for every timestamp of a pass computed by the tracker
/// kernels directly: histogram, change detection against the previous
/// frame, whole-frame back-projection per present model, peak. Counts the
/// frames on which these miss a planted target by more than twice its size,
/// apart for frames with more than kGroundTruthPeople people.
std::vector<tracker::DetectionSet> ReferenceDetections(
    const Stream& s, std::size_t* misses, std::size_t* crowded_misses) {
  const tracker::ModelSet enrolled =
      tracker::MakeModelSet(s.params, kMaxPeople);
  std::vector<tracker::DetectionSet> out;
  tracker::Frame prev;
  std::vector<float> map(static_cast<std::size_t>(s.params.width) *
                         static_cast<std::size_t>(s.params.height));
  *misses = 0;
  *crowded_misses = 0;
  for (Timestamp ts = 0; ts < kFramesPerPass; ++ts) {
    const tracker::Frame frame =
        tracker::SynthesizeFrame(s.params, ts, s.People(ts));
    const tracker::FrameHistogram hist = tracker::ComputeHistogram(frame);
    const tracker::MotionMask mask =
        tracker::ChangeDetect(frame, ts == 0 ? nullptr : &prev);
    tracker::DetectionSet det;
    det.ts = ts;
    bool missed = false;
    for (int m = 0; m < s.People(ts); ++m) {
      const tracker::ColorModel& model =
          enrolled.models[static_cast<std::size_t>(m)];
      const tracker::Histogram ratio = tracker::PrepareRatioHistogram(
          model.hist, hist.hist, s.params.prep_passes);
      std::fill(map.begin(), map.end(), 0.f);
      tracker::Backproject(frame, mask, ratio, 0, frame.height,
                           s.params.pixel_work, map.data());
      det.detections.push_back(
          tracker::FindPeak(map, frame.width, frame.height, model.id));
      const tracker::TargetPose pose =
          tracker::PlantedPose(s.params, model.id, ts);
      const tracker::Detection& d = det.detections.back();
      missed = missed || std::abs(d.x - pose.x) > 2 * s.params.target_size ||
               std::abs(d.y - pose.y) > 2 * s.params.target_size;
    }
    if (missed) ++*(s.People(ts) > kGroundTruthPeople ? crowded_misses : misses);
    out.push_back(std::move(det));
    prev = frame;
  }
  return out;
}

/// Runs one pass of the script on a fresh application and checks it.
Pass RunPass(const Stream& s, Tick period, std::uint64_t pass_id,
             Result* result) {
  Pass out;
  auto state = [&s](Timestamp ts) { return s.People(ts); };
  runtime::Application app(s.tg.graph);
  {
    Span install("tracker.install_bodies", pass_id);
    tracker::InstallTrackerBodies(s.tg, s.params, state, kMaxPeople, &app);
  }
  {
    Span materialize("runtime.materialize", pass_id);
    result->Check(app.Materialize().ok(), "materialize the application");
  }
  auto* t4 = dynamic_cast<tracker::TargetDetectionBody*>(
      app.body(s.tg.target_detection));
  auto reconfigure = [&](RegimeId r, const regime::TableEntry& entry) {
    Span span("regime.reconfigure", pass_id);
    const auto& variant =
        s.spec.costs.Get(r, s.tg.target_detection)
            .variant(entry.schedule.iteration
                         .variants()[s.tg.target_detection.index()]);
    int fp = 1;
    int mp = 1;
    T4Decomposition(variant.name, &fp, &mp);
    t4->SetDecomposition(fp, mp);
  };
  runtime::RegimeRunnerOptions options;
  options.frames = kFramesPerPass;
  options.digitizer_period = period;
  options.warmup = kWarmupFrames;
  runtime::RegimeSwitchingRunner runner(app, s.space, *s.table, state,
                                        reconfigure, options);
  const double start = NowUs();
  std::uint32_t run_span = 0;
  Expected<runtime::RegimeRunResult> run = [&] {
    Span span("runtime.run", pass_id);
    run_span = span.id();
    return runner.Run();
  }();
  out.wall_s = (NowUs() - start) / 1e6;
  result->Attempt(kFramesPerPass);
  if (!run.ok()) {
    result->Fail(kFramesPerPass);
    Note("pass %llu: %s", static_cast<unsigned long long>(pass_id),
         run.status().ToString().c_str());
    return out;
  }
  out.completed = run->metrics.frames_completed;
  result->Fail(kFramesPerPass - std::min<std::size_t>(kFramesPerPass,
                                                      out.completed));

  // Every frame completes exactly once, in timestamp order.
  std::vector<sim::FrameRecord> frames = run->frames;
  std::sort(frames.begin(), frames.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  bool once = frames.size() == static_cast<std::size_t>(kFramesPerPass);
  bool ordered = true;
  for (std::size_t i = 0; once && i < frames.size(); ++i) {
    once = frames[i].ts == static_cast<Timestamp>(i) && frames[i].completed();
    if (i > 0 && frames[i].completed_at < frames[i - 1].completed_at) {
      ordered = false;
    }
  }
  result->Check(once, "every frame of the pass completes exactly once");
  result->Check(ordered, "frames complete in timestamp order");
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!frames[i].completed()) continue;
    if (i >= kWarmupFrames) {
      out.latency_ms.push_back(ticks::ToMillis(frames[i].Latency()));
    }
    // Frame times count from the start of Run(), just after `start`.
    GlobalTracer().Record(
        "runtime.frame", start + static_cast<double>(frames[i].digitized_at),
        start + static_cast<double>(frames[i].completed_at), run_span,
        (pass_id << 32) | static_cast<std::uint64_t>(frames[i].ts));
  }

  // One switch per change of the script.
  std::size_t changes = 0;
  for (int ts = 1; ts < kFramesPerPass; ++ts) {
    if (s.People(ts) != s.People(ts - 1)) ++changes;
  }
  result->Check(run->switches.size() == changes,
                "one regime switch per change of the arrival script");
  for (const auto& sw : run->switches) {
    out.switch_ms.push_back(ticks::ToMillis(sw.wall_overhead));
  }

  // The detections, for the comparison with the kernels' own result.
  stm::Channel* locations = app.channel(s.tg.locations_ch);
  const ConnId conn = locations->Attach(stm::ConnDir::kInput);
  for (Timestamp ts = 0; ts < kFramesPerPass; ++ts) {
    auto item = locations->Get(conn, stm::TsQuery::Exact(ts),
                               stm::GetMode::kNonBlocking);
    auto det = item.ok() ? item->payload.As<tracker::DetectionSet>() : nullptr;
    out.detections.push_back(det != nullptr ? *det : tracker::DetectionSet{});
  }
  // Channel accounting conserves items.
  for (const auto& [name, st] : app.channels().AllStats()) {
    result->Check(st.puts == st.reclaimed + st.dropped + st.occupancy,
                  "channel " + name + " conserves items: puts " +
                      std::to_string(st.puts) + " != reclaimed + dropped + "
                      "occupancy");
  }
  return out;
}

}  // namespace

void RunTrackerStream(const Args& args, Result* result) {
  Stream s;
  s.params.width = 320;
  s.params.height = 240;
  s.params.seed = args.seed;
  s.tg = tracker::BuildTrackerGraph(s.params, kMaxPeople);
  s.spec.graph = s.tg.graph;
  s.spec.costs = tracker::PaperCostModel(s.tg, s.space);
  s.spec.machine = graph::MachineConfig::SingleNode(4);
  s.spec.regime_count = s.space.size();
  Rng rng(args.seed);
  std::string order;
  s.people = ArrivalScript(rng, &order);
  {
    Span span("regime.precompute");
    sched::OptimalOptions options;
    options.solver_threads = std::min(4, Cores());
    auto table = regime::ScheduleTable::Precompute(
        s.space, s.spec.graph, s.spec.costs, s.spec.comm, s.spec.machine,
        options);
    result->Check(table.ok(), "regime table precompute");
    if (!table.ok()) return;
    s.table = std::make_unique<regime::ScheduleTable>(std::move(*table));
  }
  Note("tracker_stream: %dx%d frames, %d-frame pass (people x frames) %s",
       s.params.width, s.params.height, kFramesPerPass, order.c_str());

  result->Metric("setup_s", NowUs() / 1e6, "s");
  const double phase_us = args.seconds * 1e6 / 2;
  std::uint64_t pass_id = 0;
  std::vector<double> unpaced_ms;
  std::vector<double> paced_ms;
  std::vector<double> switch_ms;
  std::vector<std::vector<tracker::DetectionSet>> detections;
  double unpaced_wall = 0;
  std::size_t unpaced_frames = 0;
  const double unpaced_end = NowUs() + phase_us;
  do {
    Pass p = RunPass(s, 0, ++pass_id, result);
    unpaced_ms.insert(unpaced_ms.end(), p.latency_ms.begin(),
                      p.latency_ms.end());
    switch_ms.insert(switch_ms.end(), p.switch_ms.begin(), p.switch_ms.end());
    unpaced_wall += p.wall_s;
    detections.push_back(std::move(p.detections));
    unpaced_frames += p.completed;
  } while (NowUs() < unpaced_end);
  // The paced passes take a fixed time each, so their number is fixed too.
  const int paced_passes = std::max(
      1, static_cast<int>(phase_us / (kFramesPerPass * kPacedPeriodUs)));
  for (int i = 0; i < paced_passes; ++i) {
    Pass p = RunPass(s, kPacedPeriodUs, ++pass_id, result);
    paced_ms.insert(paced_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    detections.push_back(std::move(p.detections));
    switch_ms.insert(switch_ms.end(), p.switch_ms.begin(), p.switch_ms.end());
  }
  Note("tracker_stream: %llu passes of %d frames; regime switch overhead "
       "p50 %.3f ms",
       static_cast<unsigned long long>(pass_id), kFramesPerPass,
       Median(switch_ms));

  // Detections must equal the kernels run serially on the whole frame, and
  // those must find every planted target. The first frame after a regime
  // switch is counted apart: the runtime runs its change detection without
  // the previous frame, so its detections may differ (CHANGES.md, FOUND).
  std::size_t misses = 0;
  std::size_t crowded_misses = 0;
  const std::vector<tracker::DetectionSet> reference =
      ReferenceDetections(s, &misses, &crowded_misses);
  std::size_t wrong = 0;
  std::size_t after_switch = 0;
  for (const auto& pass : detections) {
    for (std::size_t ts = 0; ts < pass.size(); ++ts) {
      if (SameDetections(pass[ts], reference[ts])) continue;
      const bool switched =
          ts > 0 && s.People(static_cast<Timestamp>(ts)) !=
                        s.People(static_cast<Timestamp>(ts) - 1);
      ++(switched ? after_switch : wrong);
    }
  }
  result->Check(wrong == 0, std::to_string(wrong) +
                                " frames whose detections differ from the "
                                "serial kernels on the same frame");
  result->Check(misses == 0,
                "with up to " + std::to_string(kGroundTruthPeople) +
                    " people the kernels miss a planted target on " +
                    std::to_string(misses) + " frames");
  Note("tracker_stream: %zu first-after-switch frames of %zu passes differ "
       "from the continuous-stream detections; with more than %d people the "
       "kernels miss a planted target on %zu of %d frames per pass",
       after_switch, detections.size(), kGroundTruthPeople, crowded_misses,
       kFramesPerPass);

  NoteTail("paced frame latency", paced_ms, 1, "ms");
  result->Metric("op_ms", Percentile(paced_ms, 0.5), "ms",
                 paced_ms.size());
  result->Metric("heavy_ms", Percentile(unpaced_ms, 0.5), "ms",
                 unpaced_ms.size());
  result->Metric("throughput_per_s",
                 static_cast<double>(unpaced_frames) / unpaced_wall, "1/s",
                 unpaced_frames);
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");

  if (args.trace) {
    ProbeInputs probe;
    probe.seed = args.seed;
    probe.frame_width = s.params.width;
    probe.frame_height = s.params.height;
    probe.problem_texts.push_back(graph::FormatProblem(s.spec));
    RunLayerProbe(probe, result);
  }
}

}  // namespace pb
