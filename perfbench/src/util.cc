#include "util.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/telemetry/metrics.h"

namespace perfbench {

using xcluster::JsonValue;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNs()) / 1e9; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double BestDecile(std::vector<double> values, bool lower_is_better) {
  return Quantile(std::move(values), lower_is_better ? 0.1 : 0.9);
}

WindowStats SliceStats(const std::vector<BatchSample>& samples,
                       const std::vector<double>& slice_cpu_s,
                       double window_s) {
  WindowStats stats;
  const size_t slices = slice_cpu_s.size();
  if (samples.empty() || window_s <= 0.0 || slices == 0) return stats;
  auto bin = [&](size_t k) {
    std::vector<std::vector<const BatchSample*>> bins(k);
    for (const BatchSample& s : samples) {
      if (s.at_s < 0.0f || s.at_s >= window_s) continue;
      bins[std::min(k - 1, static_cast<size_t>(s.at_s / window_s *
                                               static_cast<double>(k)))]
          .push_back(&s);
    }
    return bins;
  };
  auto quantile_ms = [](const std::vector<const BatchSample*>& bin, double q) {
    std::vector<double> ms;
    for (const BatchSample* s : bin) ms.push_back(s->ms);
    return Quantile(ms, q);
  };
  const double width = window_s / static_cast<double>(slices);
  std::vector<double> cpu_per_query;
  std::vector<double> p50;
  const auto bins = bin(slices);
  for (size_t i = 0; i < slices; ++i) {
    double ok = 0.0;
    for (const BatchSample* s : bins[i]) ok += s->ok;
    stats.qps_slices.push_back(ok / width);
    if (ok > 0.0) cpu_per_query.push_back(slice_cpu_s[i] * 1e6 / ok);
    if (!bins[i].empty()) p50.push_back(quantile_ms(bins[i], 0.5));
  }
  stats.cpu_us_per_query = BestDecile(cpu_per_query, true);
  stats.p50_ms = BestDecile(p50, true);
  stats.qps = BestDecile(stats.qps_slices, false);
  std::vector<double> p90;
  for (const auto& b : bin(std::max<size_t>(1, slices / 2))) {
    if (!b.empty()) p90.push_back(quantile_ms(b, 0.9));
  }
  stats.p90_ms = BestDecile(p90, true);
  return stats;
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {value, unit};
}

void MetricSink::Scale(const std::string& name, double divisor) {
  auto it = values_.find(name);
  if (it != values_.end() && divisor > 0.0) it->second.first /= divisor;
}

JsonValue MetricSink::ToJson() const {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, entry] : values_) {
    JsonValue metric = JsonValue::Object();
    metric.members()["value"] = JsonValue::Number(entry.first);
    metric.members()["unit"] = JsonValue::String(entry.second);
    out.members()[name] = std::move(metric);
  }
  return out;
}

RegistryMark ReadRegistry() {
  const xcluster::telemetry::MetricsSnapshot snapshot =
      xcluster::telemetry::MetricsRegistry::Global().Snapshot();
  RegistryMark mark;
  for (const auto& counter : snapshot.counters) {
    mark.counters[counter.name] = counter.value;
  }
  for (const auto& histogram : snapshot.histograms) {
    mark.histograms[histogram.name] = {histogram.count, histogram.sum_ns};
  }
  return mark;
}

namespace {

template <typename Map>
typename Map::mapped_type Lookup(const Map& map, const std::string& name) {
  auto it = map.find(name);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

}  // namespace

uint64_t CounterDelta(const RegistryMark& before, const RegistryMark& after,
                      const std::string& name) {
  return Lookup(after.counters, name) - Lookup(before.counters, name);
}

uint64_t HistogramCount(const RegistryMark& before, const RegistryMark& after,
                        const std::string& name) {
  return Lookup(after.histograms, name).first -
         Lookup(before.histograms, name).first;
}

double HistogramMeanNs(const RegistryMark& before, const RegistryMark& after,
                       const std::string& name) {
  const auto b = Lookup(before.histograms, name);
  const auto a = Lookup(after.histograms, name);
  return Ratio(static_cast<double>(a.second - b.second),
               static_cast<double>(a.first - b.first));
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

// The kernel's best-decile time on the machine the benchmark was tuned on
// (4-vCPU Xeon VM), in a quiet period: the unit the factor is in.
constexpr double kNominalKernelS = 0.025;

uint64_t ReferenceKernel() {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<uint64_t> keys(1 << 17);
  for (uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint32_t> table;
  for (size_t i = 0; i < keys.size(); i += 2) {
    table[keys[i] >> 16] = static_cast<uint32_t>(i);
  }
  uint64_t sum = 0;
  for (uint64_t k : keys) {
    auto it = table.find(k >> 16);
    if (it != table.end()) sum += it->second;
  }
  std::string text;
  for (uint32_t i = 0; i < (1u << 14); ++i) {
    text += std::to_string(keys[i] % 100000);
    text.push_back('/');
  }
  return sum ^ std::hash<std::string>()(text);
}

}  // namespace

void SpeedCalibration::Sample() {
  const double start = NowSeconds();
  volatile uint64_t sink = ReferenceKernel();
  (void)sink;
  wall_s_.push_back(NowSeconds() - start);
}

double SpeedCalibration::Factor() const {
  return wall_s_.empty() ? 1.0 : BestDecile(wall_s_, true) / kNominalKernelS;
}

JsonValue SpeedCalibration::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.members()["factor"] = JsonValue::Number(Factor());
  out.members()["samples"] =
      JsonValue::Number(static_cast<double>(wall_s_.size()));
  JsonValue wall = JsonValue::Array();
  for (double w : wall_s_) wall.items().push_back(JsonValue::Number(w));
  out.members()["kernel_wall_s"] = std::move(wall);
  return out;
}

void ReturnFreedMemory() { malloc_trim(0); }

double RssMb() {
  long pages = 0;
  if (FILE* statm = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(statm, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(statm);
  }
  return static_cast<double>(pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssPeak::RssPeak() : peak_mb_(RssMb()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      peak_mb_ = std::max(peak_mb_, RssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

double RssPeak::Stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
    peak_mb_ = std::max(peak_mb_, RssMb());
  }
  return peak_mb_;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

JsonValue EnvironmentStamp() {
  JsonValue env = JsonValue::Object();
  // run.py passes the revision in: the benchmark may run from a source
  // tree that is not a git checkout, where it falls back to a digest of
  // the library sources.
  const char* revision = std::getenv("PERFBENCH_SOURCE_REVISION");
  env.members()["source_revision"] =
      JsonValue::String(revision != nullptr ? revision : "unknown");
  env.members()["cpu_model"] = JsonValue::String(CpuModel());
  env.members()["nproc"] = JsonValue::Number(
      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  env.members()["compiler"] = JsonValue::String(PERFBENCH_CXX_COMPILER);
  env.members()["build_type"] = JsonValue::String(PERFBENCH_BUILD_TYPE);
  env.members()["optimized"] = JsonValue::Bool(OptimizedBuild());
  return env;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

}  // namespace perfbench
