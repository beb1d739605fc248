// Samples, spans and counters recorded by the benchmark.
//
// Spans are recorded only in traced runs, in memory, around the
// benchmark's calls into each layer's public functions; they are written
// out when the run ends. Untraced runs pay one branch per span.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {

/// Regularised incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), taken on the side of x where it converges.
inline double IncompleteBeta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  auto fraction = [](double x, double a, double b) {
    constexpr double kTiny = 1e-300;
    constexpr double kEps = 1e-14;
    auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
    double c = 1.0;
    double d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 10000; ++m) {
      const double even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m));
      d = 1.0 / clamp(1.0 + even * d);
      c = clamp(1.0 + even / c);
      h *= d * c;
      const double odd =
          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0));
      d = 1.0 / clamp(1.0 + odd * d);
      c = clamp(1.0 + odd / c);
      h *= d * c;
      if (std::fabs(d * c - 1.0) < kEps) break;
    }
    return h;
  };
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * fraction(x, a, b) / a;
  return 1.0 - front * fraction(1.0 - x, b, a) / b;
}

/// Harrell-Davis estimate of the q-quantile of `v` (0 when empty): the
/// mean of all order statistics weighted by Beta((n+1)q, (n+1)(1-q)). The
/// linear interpolation between the two samples nearest rank q(n-1) jumps
/// when a few samples trade places there, and the tail of a few hundred
/// queries has gaps of tens of percent between neighbouring samples: over
/// five `search` runs the interpolated ttfa p90 spread by 0.22, this
/// estimate of the same samples by 0.09.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1.0) * q;
  const double b = (n + 1.0) * (1.0 - q);
  double below = 0.0;  // I at the lower edge of sample i's interval
  double sum = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double upto = IncompleteBeta(static_cast<double>(i + 1) / n, a, b);
    sum += (upto - below) * v[i];
    below = upto;
  }
  return sum;
}

/// Mean of `v` without its lowest and highest `trim` share (0 if empty):
/// robust to a few stalled samples, and unlike a quantile it does not jump
/// when the samples fall into a few cost classes.
inline double TrimmedMean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// One recorded span: a call into a layer, in ms since the run began.
struct Span {
  std::string name;
  uint64_t request = 0;  ///< spans of one query or request share this id
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records [t0, t1] under `name` (no-op when tracing is off).
  void Add(const std::string& name, uint64_t request, Clock::time_point t0,
           Clock::time_point t1) {
    if (!enabled_) return;
    spans_.push_back({name, request, MsBetween(origin_, t0),
                      MsBetween(origin_, t1)});
  }

  /// Durations (ms) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }

  /// Adds to a per-layer counter (kept in traced runs only).
  void Count(const std::string& name, double delta) {
    if (enabled_) counters_[name] += delta;
  }
  double Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Writes every span as one JSON line; returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"request\":%llu,\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f}\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.request),
                   s.start_ms, s.end_ms);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// Times one call into a layer and records it as a span.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, uint64_t request)
      : trace_(trace), name_(std::move(name)), request_(request),
        t0_(Clock::now()) {}
  ~ScopedSpan() { trace_->Add(name_, request_, t0_, Clock::now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  std::string name_;
  uint64_t request_;
  Clock::time_point t0_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
