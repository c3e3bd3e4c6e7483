#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <fstream>
#include <thread>

namespace pb {
namespace {

const Clock::time_point kProcessStart = Clock::now();

thread_local std::vector<std::uint32_t> t_open_spans;

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   kProcessStart)
      .count();
}

void SleepUntilUs(double target_us) {
  constexpr double kSpinUs = 300;
  const double ahead = target_us - NowUs();
  if (ahead > kSpinUs) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(ahead - kSpinUs)));
  }
  while (NowUs() < target_us) {
  }
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : values_(capacity, 0.0), state_(seed | 1) {}

void Reservoir::Add(double value) {
  ++seen_;
  if (seen_ <= values_.size()) {
    values_[seen_ - 1] = value;
    return;
  }
  // xorshift64: a slot in [0, seen_) replaced with probability cap/seen_.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const std::uint64_t slot = state_ % seen_;
  if (slot < values_.size()) values_[slot] = value;
}

std::vector<double> Reservoir::Samples() const {
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(seen_, values_.size()));
  return std::vector<double>(values_.begin(),
                             values_.begin() + static_cast<std::ptrdiff_t>(n));
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Result::LayerMetric(const std::string& name, double value,
                         const std::string& unit) {
  layer_metrics_.push_back({name, value, unit, 0});
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Result::Print(bool trace) const {
  std::fprintf(stderr, "attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               correct_ ? "yes" : "NO");
  for (const auto* list : {&metrics_, &layer_metrics_}) {
    for (const Entry& m : *list) {
      std::fprintf(stderr, "  %-36s %14.6g %-5s", m.name.c_str(), m.value,
                   m.unit.c_str());
      if (m.samples > 0) std::fprintf(stderr, " (%zu samples)", m.samples);
      std::fputc('\n', stderr);
    }
  }
  const std::vector<Entry>& shown = trace ? layer_metrics_ : metrics_;
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(shown[i].value) ? shown[i].value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + shown[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "[%9.3f s] ", NowUs() / 1e6);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

void NoteTail(const char* what, const std::vector<double>& samples,
              double scale, const char* unit) {
  Note("%s: p90 %.4g %s, p99 %.4g %s over %zu samples (reference)", what,
       Percentile(samples, 0.9) * scale, unit,
       Percentile(samples, 0.99) * scale, unit, samples.size());
}

// ---- Tracer ------------------------------------------------------------------

void Tracer::Enable(std::size_t max_spans) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = true;
  max_spans_ = max_spans;
  spans_.reserve(max_spans);
}

std::uint32_t Tracer::Reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  return next_id_++;
}

void Tracer::Finish(std::uint32_t id, const char* name, double start_us,
                    double end_us, std::uint32_t parent,
                    std::uint64_t trace) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back({id, parent, trace, name, start_us, end_us});
}

std::uint32_t Tracer::Record(const char* name, double start_us, double end_us,
                             std::uint32_t parent, std::uint64_t trace) {
  const std::uint32_t id = Reserve();
  Finish(id, name, start_us, end_us, parent, trace);
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char line[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"id\": %u, \"parent\": %u, \"trace\": %llu, \"name\": "
                  "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                  s.id, s.parent, static_cast<unsigned long long>(s.trace),
                  s.name, s.start_us, s.end_us);
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

Span::Span(const char* name, std::uint64_t trace)
    : name_(name), trace_(trace) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  parent_ = CurrentSpan();
  id_ = tracer.Reserve();
  t_open_spans.push_back(id_);
  start_us_ = NowUs();
}

Span::~Span() {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  const double end = NowUs();
  t_open_spans.pop_back();
  tracer.Finish(id_, name_, start_us_, end, parent_, trace_);
}

std::uint32_t CurrentSpan() {
  return t_open_spans.empty() ? 0 : t_open_spans.back();
}

void T4Decomposition(const std::string& variant, int* fp, int* mp) {
  *fp = 1;
  *mp = 1;
  if (std::sscanf(variant.c_str(), "FP=%dxMP=%d", fp, mp) == 2) return;
  *fp = 1;
  *mp = 1;
  if (std::sscanf(variant.c_str(), "FP=%d", fp) == 1) return;
  *fp = 1;
  if (std::sscanf(variant.c_str(), "MP=%d", mp) == 1) return;
  *mp = 1;
}

// ---- Process -------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

int Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace pb
