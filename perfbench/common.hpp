// Shared pieces of the end-to-end benchmark: arguments, timing, the result
// line, spans for the traced mode, and the per-layer probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Microseconds since the benchmark process started (its first static
/// initializer), so `setup_s` covers everything the run does before its first
/// timed operation.
double NowUs();

/// Sleeps until `target_us` on the NowUs() clock, spinning for the last
/// stretch so open-loop sends and paced releases are not late by a scheduler
/// wake-up.
void SleepUntilUs(double target_us);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// A uniform random sample of at most `capacity` values from a stream of any
/// length (reservoir sampling), allocated and touched up front, so the
/// benchmark's own memory does not grow with the work a run completes and
/// stays out of peak_rss_mb.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void Add(double value);
  /// The sample (all values while fewer than `capacity` were added).
  std::vector<double> Samples() const;
  std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_;
};

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// The run's result line plus the human-readable report on stderr.
class Result {
 public:
  /// An end-to-end metric (printed by untraced runs), with the number of
  /// samples it was taken from (0 = a single measurement).
  void Metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// A per-layer metric (printed by traced runs).
  void LayerMetric(const std::string& name, double value,
                   const std::string& unit);
  /// Records a failed correctness check; the run then reports
  /// "correct": false and exits non-zero.
  void Check(bool ok, const std::string& what);
  void Attempt(std::uint64_t n) { attempted_ += n; }
  void Fail(std::uint64_t n) { failed_ += n; }
  bool correct() const { return correct_; }
  std::uint64_t failed() const { return failed_; }
  /// Prints the human-readable metrics to stderr and the JSON object as the
  /// last line of stdout: the end-to-end metrics, or with `trace` the
  /// per-layer ones.
  void Print(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<Entry> layer_metrics_;
};

/// Prints the 90th and 99th percentiles of `samples` (scaled by `scale` into
/// `unit`) on stderr: reference figures that hold no bound.
void NoteTail(const char* what, const std::vector<double>& samples,
              double scale, const char* unit);

/// Stderr line prefixed with the workload phase; keeps stdout for the
/// result line alone.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---- Traced mode ----------------------------------------------------------
//
// A span covers one call the benchmark makes into a module of the program:
// its name is "<module>.<call>". Spans are kept in memory and written as one
// JSON object per line when the run ends; spans.py derives the per-module
// self-time table and checks that each request's spans nest inside it.

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t trace = 0;   // request id / frame timestamp; 0 = none
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  /// Turns recording on; until then Reserve/Record are no-ops returning 0.
  void Enable(std::size_t max_spans);
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (0 when off or full).
  std::uint32_t Record(const char* name, double start_us, double end_us,
                       std::uint32_t parent, std::uint64_t trace);
  /// Reserves an id for a span whose children are recorded before it ends.
  std::uint32_t Reserve();
  void Finish(std::uint32_t id, const char* name, double start_us,
              double end_us, std::uint32_t parent, std::uint64_t trace);
  std::size_t dropped() const { return dropped_; }
  std::size_t size() const;
  /// Writes every span as JSON lines; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::size_t max_spans_ = 0;
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;
  std::size_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
};

Tracer& GlobalTracer();

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t trace = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t trace_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  double start_us_ = 0;
};

/// Id of the innermost open Span on this thread (0 = none).
std::uint32_t CurrentSpan();

// ---- Process ---------------------------------------------------------------

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();
/// Cores this process may run on.
int Cores();

/// The tracker's T4 decomposition named by a cost-model variant ("serial",
/// "FP=2", "MP=3", "FP=4xMP=3"): frame partitions and model partitions.
void T4Decomposition(const std::string& variant, int* fp, int* mp);

// ---- Workloads ---------------------------------------------------------------

/// Per-layer probe inputs: problem texts from the workload, plus the tracker
/// frame size and seed for the data-plane layers.
struct ProbeInputs {
  std::vector<std::string> problem_texts;
  int frame_width = 320;
  int frame_height = 240;
  std::uint64_t seed = 1;
};

/// Times the program's public per-layer calls on `inputs` and adds every
/// per-layer metric to `result` (traced runs only).
void RunLayerProbe(const ProbeInputs& inputs, Result* result);

void RunOfflineTable(const Args& args, Result* result);
void RunServeHits(const Args& args, Result* result);
void RunServeMixed(const Args& args, Result* result);
void RunTrackerStream(const Args& args, Result* result);

}  // namespace pb
