// Shared helpers for the end-to-end benchmark: clocks, order statistics,
// the metric sink the workloads report into, and deltas of the library's
// own telemetry registry.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace perfbench {

/// Monotonic clock in nanoseconds / seconds (steady_clock).
uint64_t NowNs();
double NowSeconds();

/// Order statistics over a copy of `values`. Quantile uses linear
/// interpolation between closest ranks; both return 0 for an empty input.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

/// One completed batch: when it completed (seconds into the measured
/// window), its round trip, and the estimates it returned.
struct BatchSample {
  float at_s = 0.0f;
  float ms = 0.0f;
  uint32_t ok = 0;
};

/// A window's throughput, CPU cost and batch latency, computed per equal
/// time slice and summarized by each figure's best decile over the slices
/// (the 10th percentile of costs and latencies, the 90th of throughput).
/// On a shared VM, outside load (CPU steal, a busy SMT sibling) slows the
/// program by up to half for seconds at a time; the best decile tracks
/// what the program does when it has the machine, while a change that
/// slows the program slows every slice. p90 uses half as many slices, so
/// each keeps ten or more samples above it on every workload.
struct WindowStats {
  double cpu_us_per_query = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double qps = 0.0;
  std::vector<double> qps_slices;
};

/// `slice_cpu_s[i]` is the process CPU time spent in slice i of
/// `window_s`; samples completing at or after `window_s` are ignored.
WindowStats SliceStats(const std::vector<BatchSample>& samples,
                       const std::vector<double>& slice_cpu_s, double window_s);

/// The best decile of repeated measurements of one quantity: the 10th
/// percentile when lower is better, the 90th when higher is.
double BestDecile(std::vector<double> values, bool lower_is_better);

/// 0 when `den` is 0, else num / den (counter ratios on a workload where the
/// counted layer did not run).
double Ratio(double num, double den);

/// Named metrics with units, in insertion-independent (sorted) order.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Divides a metric already set by `divisor` (keeps its unit).
  void Scale(const std::string& name, double divisor);
  xcluster::JsonValue ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// A reading of the process-global telemetry registry: every counter and
/// every histogram's (count, sum_ns). Two readings bracket a phase.
struct RegistryMark {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> histograms;
};

RegistryMark ReadRegistry();

/// Counter increase between two readings.
uint64_t CounterDelta(const RegistryMark& before, const RegistryMark& after,
                      const std::string& name);

/// Samples recorded into a histogram between two readings.
uint64_t HistogramCount(const RegistryMark& before, const RegistryMark& after,
                        const std::string& name);

/// Mean of the samples recorded into a histogram between two readings, in
/// nanoseconds (0 when none were recorded).
double HistogramMeanNs(const RegistryMark& before, const RegistryMark& after,
                       const std::string& name);

/// CPU time (user + system) consumed by all threads of this process so
/// far, in seconds. Time the machine's hypervisor took away from the
/// process (steal) is not in it.
double ProcessCpuSeconds();

/// The machine's speed during this run, from a fixed reference kernel
/// (sort, hash table, string building; none of the program's code) timed
/// between the run's phases. On a shared VM the whole machine runs up to
/// 1.6x slower for minutes at a time (host steal, busy SMT siblings), and
/// every metric of a run moves with it; dividing a run's timings by its
/// factor cancels that drift while leaving the program's own changes in
/// full, since the kernel does not run the program.
class SpeedCalibration {
 public:
  /// Times the kernel once.
  void Sample();
  /// Best-decile kernel time over the samples, relative to its nominal
  /// time on a quiet machine: > 1 when this run's machine is slower.
  double Factor() const;
  xcluster::JsonValue ToJson() const;

 private:
  std::vector<double> wall_s_;
};

/// Hands memory the heap has freed back to the system, so that resident
/// set size readings taken next do not count it.
void ReturnFreedMemory();

/// Resident set size of this process now, in MiB.
double RssMb();

/// The highest resident set size of this process while it lives: a thread
/// reads it every 2 ms until Stop().
class RssPeak {
 public:
  RssPeak();
  ~RssPeak() { Stop(); }
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;

  /// Ends the sampling; returns the highest reading, in MiB.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  double peak_mb_ = 0.0;
  std::thread thread_;
};

/// Where and how the numbers were produced: source revision, CPU model,
/// online CPUs, compiler and build type.
xcluster::JsonValue EnvironmentStamp();

/// True when the benchmark and the library were compiled with optimization
/// (the build guard: an unoptimized build must not report metrics).
bool OptimizedBuild();

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
