#include "checks.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "graph/op_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "verify/verifier.hpp"

namespace pb {

using ss::Tick;

namespace {

/// Arrival time at processor `proc` of op `op`'s inputs.
Tick InputsReady(const ss::graph::ProblemSpec& spec,
                 const ss::graph::OpGraph& og, int op, int proc,
                 const std::vector<Tick>& end, const std::vector<int>& where) {
  Tick ready = 0;
  const auto& preds = og.preds(op);
  const auto& bytes = og.pred_bytes(op);
  for (std::size_t k = 0; k < preds.size(); ++k) {
    const auto q = static_cast<std::size_t>(preds[k]);
    Tick arrive = end[q];
    if (where[q] != proc) {
      arrive += spec.comm.Cost(
          bytes[k], spec.machine.SameNode(ss::ProcId(where[q]),
                                          ss::ProcId(proc)));
    }
    ready = std::max(ready, arrive);
  }
  return ready;
}

class Enumerator {
 public:
  Enumerator(const ss::graph::ProblemSpec& spec, const ss::graph::OpGraph& og)
      : spec_(spec),
        og_(og),
        n_(og.op_count()),
        procs_(spec.machine.total_procs()),
        end_(n_, 0),
        where_(n_, -1),
        free_(static_cast<std::size_t>(procs_), 0),
        waiting_(n_, 0) {
    for (std::size_t i = 0; i < n_; ++i) {
      waiting_[i] = static_cast<int>(og.preds(static_cast<int>(i)).size());
    }
  }

  Tick Run(Tick best) {
    best_ = best;
    Step(0, 0);
    return best_;
  }

 private:
  void Step(std::size_t placed, Tick makespan) {
    if (makespan >= best_) return;  // a longer prefix never shortens
    if (placed == n_) {
      best_ = makespan;
      return;
    }
    for (std::size_t op = 0; op < n_; ++op) {
      if (where_[op] >= 0 || waiting_[op] != 0) continue;
      const int o = static_cast<int>(op);
      for (int p = 0; p < procs_; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        const Tick start =
            std::max(free_[pi], InputsReady(spec_, og_, o, p, end_, where_));
        const Tick saved_free = free_[pi];
        end_[op] = start + og_.op(o).cost;
        where_[op] = p;
        free_[pi] = end_[op];
        for (int s : og_.succs(o)) --waiting_[static_cast<std::size_t>(s)];
        Step(placed + 1, std::max(makespan, end_[op]));
        for (int s : og_.succs(o)) ++waiting_[static_cast<std::size_t>(s)];
        free_[pi] = saved_free;
        where_[op] = -1;
      }
    }
  }

  const ss::graph::ProblemSpec& spec_;
  const ss::graph::OpGraph& og_;
  std::size_t n_;
  int procs_;
  std::vector<Tick> end_;
  std::vector<int> where_;
  std::vector<Tick> free_;
  std::vector<int> waiting_;
  Tick best_ = 0;
};

}  // namespace

Tick RecomputeLatency(const ss::graph::ProblemSpec& spec, ss::RegimeId regime,
                      const ss::sched::IterationSchedule& iter) {
  const ss::graph::OpGraph og =
      ss::graph::OpGraph::Expand(spec.graph, spec.costs, regime,
                                 iter.variants());
  const std::size_t n = og.op_count();
  const int procs = spec.machine.total_procs();
  std::vector<std::vector<int>> order(static_cast<std::size_t>(procs));
  std::vector<int> seen(n, 0);
  std::vector<std::pair<Tick, int>> by_start;
  for (const auto& e : iter.entries()) {
    if (e.op < 0 || static_cast<std::size_t>(e.op) >= n || !e.proc.valid() ||
        e.proc.value() >= procs) {
      return -1;
    }
    if (seen[static_cast<std::size_t>(e.op)]++ != 0) return -1;
    by_start.emplace_back(e.start, e.op);
  }
  if (by_start.size() != n) return -1;
  // Only the per-processor sequence is taken from the schedule; its start
  // times serve to order ops on a processor and are then recomputed.
  std::stable_sort(by_start.begin(), by_start.end());
  std::vector<int> where(n, -1);
  for (const auto& [start, op] : by_start) {
    const int p = iter.EntryFor(op).proc.value();
    where[static_cast<std::size_t>(op)] = p;
    order[static_cast<std::size_t>(p)].push_back(op);
  }
  std::vector<Tick> end(n, -1);
  std::vector<Tick> free(static_cast<std::size_t>(procs), 0);
  std::vector<std::size_t> next(static_cast<std::size_t>(procs), 0);
  std::size_t done = 0;
  Tick latency = 0;
  while (done < n) {
    bool progressed = false;
    for (int p = 0; p < procs; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (next[pi] == order[pi].size()) continue;
      const int op = order[pi][next[pi]];
      const bool inputs_done =
          std::all_of(og.preds(op).begin(), og.preds(op).end(),
                      [&](int q) { return end[static_cast<std::size_t>(q)] >= 0; });
      if (!inputs_done) continue;
      const Tick start = std::max(free[pi], InputsReady(spec, og, op, p, end,
                                                        where));
      end[static_cast<std::size_t>(op)] = start + og.op(op).cost;
      free[pi] = end[static_cast<std::size_t>(op)];
      latency = std::max(latency, free[pi]);
      ++next[pi];
      ++done;
      progressed = true;
    }
    if (!progressed) return -1;  // the processor orders deadlock
  }
  return latency;
}

Tick LatencyLowerBound(const ss::graph::ProblemSpec& spec,
                       ss::RegimeId regime) {
  const auto& g = spec.graph;
  auto topo = g.TopologicalOrder();
  if (!topo.ok()) return 0;
  std::vector<Tick> path(g.task_count(), 0);
  Tick critical = 0;
  Tick work = 0;
  for (ss::TaskId t : *topo) {
    Tick cheapest_path = std::numeric_limits<Tick>::max();
    Tick cheapest_work = std::numeric_limits<Tick>::max();
    for (const auto& v : spec.costs.Get(regime, t).variants) {
      cheapest_path = std::min(cheapest_path, v.CriticalPathCost());
      cheapest_work = std::min(cheapest_work, v.SerializedCost());
    }
    Tick before = 0;
    for (ss::TaskId pred : g.Predecessors(t)) {
      before = std::max(before, path[pred.index()]);
    }
    path[t.index()] = before + cheapest_path;
    critical = std::max(critical, path[t.index()]);
    work += cheapest_work;
  }
  const Tick procs = spec.machine.total_procs();
  return std::max(critical, (work + procs - 1) / procs);
}

Tick BruteForceMinLatency(const ss::graph::ProblemSpec& spec,
                          ss::RegimeId regime) {
  const std::size_t tasks = spec.graph.task_count();
  std::vector<ss::VariantId> variants(tasks, ss::VariantId(0));
  Tick best = std::numeric_limits<Tick>::max();
  while (true) {
    const ss::graph::OpGraph og =
        ss::graph::OpGraph::Expand(spec.graph, spec.costs, regime, variants);
    best = Enumerator(spec, og).Run(best);
    // Odometer over the variant combinations.
    std::size_t t = 0;
    for (; t < tasks; ++t) {
      const auto count =
          spec.costs.Get(regime, ss::TaskId(static_cast<int>(t)))
              .variant_count();
      const int next = variants[t].value() + 1;
      if (static_cast<std::size_t>(next) < count) {
        variants[t] = ss::VariantId(next);
        break;
      }
      variants[t] = ss::VariantId(0);
    }
    if (t == tasks) break;
  }
  return best;
}

void CheckSolve(const std::string& label, const ss::graph::ProblemSpec& spec,
                ss::RegimeId regime, const ss::sched::OptimalResult& solved,
                Result* result) {
  result->Check(!solved.budget_exhausted && !solved.cancelled,
                label + ": search did not finish exactly");
  const ss::verify::ScheduleVerifier verifier(spec, regime);
  const ss::verify::VerifyReport report =
      verifier.VerifyArtifact(solved.best, solved.min_latency);
  result->Check(report.ok(), label + ": verifier rejects the pipelined "
                                     "schedule\n" + report.ToTable());
  result->Check(!solved.optimal.empty(), label + ": empty optimal set");
  for (const auto& iter : solved.optimal) {
    result->Check(verifier.VerifyIteration(iter).ok(),
                  label + ": verifier rejects a schedule of the optimal set");
    const Tick replayed = RecomputeLatency(spec, regime, iter);
    result->Check(replayed == solved.min_latency,
                  label + ": replayed latency " + std::to_string(replayed) +
                      " != min_latency " +
                      std::to_string(solved.min_latency));
  }
  result->Check(
      RecomputeLatency(spec, regime, solved.best.iteration) ==
          solved.min_latency,
      label + ": replayed latency of the pipelined schedule differs");
  const Tick lower = LatencyLowerBound(spec, regime);
  result->Check(solved.min_latency >= lower,
                label + ": min_latency " + std::to_string(solved.min_latency) +
                    " beats the lower bound " + std::to_string(lower));
  const ss::sched::ListScheduler list(spec.comm, spec.machine);
  auto heuristic = list.ScheduleBestVariant(spec.graph, spec.costs, regime);
  result->Check(heuristic.ok() &&
                    solved.min_latency <= heuristic->Latency(),
                label + ": min_latency exceeds the list scheduler's makespan");
}

}  // namespace pb
