// Small helpers shared by the benchmark binary: host clocks, medians, and
// the JSON object the one-line result is built from.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/stats_json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU seconds, all threads included.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image so far, in MiB (VmHWM: unlike
/// getrusage's ru_maxrss it does not inherit the parent's peak across exec).
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One JSON value as the simulator's own stats writer renders it: doubles
/// with all 17 significant digits (a measured time is printed exactly as
/// measured), non-finite values as null, strings escaped.
template <class T>
std::string json_value(const T& v) {
  std::ostringstream os;
  rop::telemetry::JsonWriter w(os);
  w.value(v);
  return os.str();
}

/// Append-only JSON object whose members can be built in separate places
/// and nested.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_value(v));
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, json_value(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, json_value(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_value(std::string_view(v)));
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.text());
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    return raw(key, list(v, [](double x) { return json_value(x); }));
  }
  JsonObject& strs(const std::string& key, const std::vector<std::string>& v) {
    return raw(key, list(v, [](const std::string& x) {
                 return json_value(std::string_view(x));
               }));
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  template <class T, class F>
  static std::string list(const std::vector<T>& v, F&& render) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ", ";
      out += render(v[i]);
    }
    return out + "]";
  }
  /// `v` must already be valid JSON.
  JsonObject& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_value(std::string_view(key));
    body_ += ": ";
    body_ += v;
    return *this;
  }

  std::string body_;
};

/// What one benchmark pass produces: its metrics, the detail object, and the
/// checked runs with the failures among them.
struct Report {
  std::vector<Metric> metrics;
  JsonObject detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the detail line

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

inline JsonObject metrics_json(const std::vector<Metric>& metrics) {
  JsonObject all;
  for (const Metric& m : metrics) {
    JsonObject one;
    one.num("value", m.value).str("unit", m.unit);
    all.obj(m.name, one);
  }
  return all;
}

}  // namespace perfbench
