// The benchmark binary: runs one workload and prints its result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Workloads: offline_table, serve_hits, serve_mixed, tracker_stream (see
// README.md). The last line of stdout is the JSON result; everything else
// goes to stderr. Exit status 0 only when every correctness check passed.
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

constexpr std::size_t kMaxSpans = 600'000;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "offline_table|serve_hits|serve_mixed|tracker_stream --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, 1LL << 62, &n)) return Usage("bad --seed");
      args.seed = static_cast<std::uint64_t>(n);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &n)) return Usage("bad --seconds");
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) return Usage("bad --trace");
      args.trace = n == 1;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  if (args.trace) pb::GlobalTracer().Enable(kMaxSpans);
  pb::Result result;
  if (args.workload == "offline_table") {
    pb::RunOfflineTable(args, &result);
  } else if (args.workload == "serve_hits") {
    pb::RunServeHits(args, &result);
  } else if (args.workload == "serve_mixed") {
    pb::RunServeMixed(args, &result);
  } else if (args.workload == "tracker_stream") {
    pb::RunTrackerStream(args, &result);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  if (args.trace && !spans_path.empty()) {
    const pb::Tracer& tracer = pb::GlobalTracer();
    result.Check(tracer.Write(spans_path), "writing " + spans_path);
    pb::Note("%zu spans written to %s (%zu dropped at the cap)",
             tracer.size(), spans_path.c_str(), tracer.dropped());
  }
  result.Print(args.trace);
  return result.correct() ? 0 : 1;
}
