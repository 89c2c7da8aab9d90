#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "bench.hpp"

namespace rribench {

namespace {
const Clock::time_point kEpoch = Clock::now();

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_request = 0;
thread_local int t_lane = -1;
std::atomic<int> g_lanes{0};

int lane() {
  if (t_lane < 0) {
    t_lane = g_lanes.fetch_add(1);
  }
  return t_lane;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// Total length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) {
      continue;
    }
    if (!open || a > cur_b) {
      if (open) {
        total += cur_b - cur_a;
      }
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) {
    total += cur_b - cur_a;
  }
  return total;
}

/// Self time of every span, keyed by span id.
std::unordered_map<std::uint64_t, double> self_times(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.t0, s.t1);
    }
  }
  std::unordered_map<std::uint64_t, double> self;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double kids =
        it == children.end() ? 0.0 : covered(it->second, s.t0, s.t1);
    self[s.id] = std::max(0.0, (s.t1 - s.t0) - kids);
  }
  return self;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void put(Metrics& metrics, const std::string& name, double value,
         const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

const Metric* find(const Metrics& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

Tail latency_tail(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  const double n = static_cast<double>(values.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = std::floor(n * (1.0 - p / 100.0));
    if (beyond >= 10.0) {
      tail.percentile = p;
      tail.beyond = static_cast<std::size_t>(beyond);
      tail.value = quantile(values, p / 100.0);
      return tail;
    }
  }
  tail.value = *std::max_element(values.begin(), values.end());
  return tail;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- tracing

void Tracer::record(const char* name, double t0, double t1, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request) {
  if (!on()) {
    return;
  }
  const Span span{name, t0, t1, id, parent, request, lane()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Scope::Scope(const char* name, std::uint64_t request) : name_(name) {
  if (!tracer().on()) {
    return;
  }
  id_ = tracer().next_id();
  parent_ = t_parent;
  request_ = request != 0 ? request : t_request;
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  t_parent = id_;
  t_request = request_;
  t0_ = now_s();
}

Scope::~Scope() {
  if (id_ == 0) {
    return;
  }
  tracer().record(name_, t0_, now_s(), id_, parent_, request_);
  t_parent = saved_parent_;
  t_request = saved_request_;
}

TraceSummary summarize(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, TraceSummary::Layer> layers;
  TraceSummary summary;
  for (const Span& s : spans) {
    TraceSummary::Layer& layer = layers[layer_of(s.name)];
    layer.self_s += self.at(s.id);
    ++layer.spans;
    if (s.parent == 0) {
      summary.requests.push_back({s.request, s.t1 - s.t0, self.at(s.id)});
    }
  }
  for (auto& [name, layer] : layers) {
    layer.name = name;
    summary.layers.push_back(layer);
  }
  return summary;
}

void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write trace " + path);
  }
  const auto self = self_times(spans);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":10,\"tid\":0,"
               "\"args\":{\"name\":\"rribench\"}}");
  int max_lane = -1;
  for (const Span& s : spans) {
    max_lane = std::max(max_lane, s.lane);
  }
  for (int l = 0; l <= max_lane; ++l) {
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":10,"
                 "\"tid\":%d,\"args\":{\"name\":\"bench-%d\"}}",
                 l, l);
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":10,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"self_us\":%.3f}}",
                 s.name, layer_of(s.name).c_str(), s.lane, s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 self.at(s.id) * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace " + path);
  }
}

}  // namespace rribench
