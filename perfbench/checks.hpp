// Correctness checks on solver output that share no code with the search:
// latency recomputed from the schedule's processor order, lower and upper
// bounds computed here, and an exhaustive enumeration for tiny problems.
#pragma once

#include <string>

#include "common.hpp"
#include "graph/graph_io.hpp"
#include "sched/optimal.hpp"

namespace pb {

/// Latency of `iter` rebuilt from its variant choice and per-processor op
/// order alone: every op starts as soon as its processor is free and its
/// inputs have arrived (communication charged across processors). -1 when
/// the schedule does not cover each op exactly once or cannot be replayed.
ss::Tick RecomputeLatency(const ss::graph::ProblemSpec& spec,
                          ss::RegimeId regime,
                          const ss::sched::IterationSchedule& iter);

/// max(task critical path, ceil(total work / processors)), each task at its
/// cheapest variant: no schedule of the problem can be shorter.
ss::Tick LatencyLowerBound(const ss::graph::ProblemSpec& spec,
                           ss::RegimeId regime);

/// Minimum makespan over every greedy schedule (docs/solver.md's placement
/// rule: each op appended to its processor at its earliest feasible start),
/// found by trying every variant combination, every ready op and every
/// processor at each step. Only for problems of a handful of ops.
ss::Tick BruteForceMinLatency(const ss::graph::ProblemSpec& spec,
                              ss::RegimeId regime);

/// Runs every offline check on one exact solve and records failures.
void CheckSolve(const std::string& label, const ss::graph::ProblemSpec& spec,
                ss::RegimeId regime, const ss::sched::OptimalResult& solved,
                Result* result);

}  // namespace pb
