// XClusterBuild as the document grows: writes BENCH_build.json
// ({benchmark, git_sha, entries, metrics}, the shape
// scripts/check_metrics_schema.py validates).
//
// For each XMark scale, the generated document (seed 7) goes through XML
// text and the parser, as `xclusterctl generate --dataset xmark` and
// `xclusterctl build` take it, and gets one reference synopsis with value
// summaries on every valued cluster, untimed. Each run
// then times the two phases of XClusterBuild with `xclusterctl build`'s
// default budgets, Bstr 50 KB and Bval 150 KB: phase 1 (merges down to
// Bstr, including the copy of the reference) and phase 2 (value
// compression down to Bval). Every run must encode to the same .xcs bytes
// as the first, or the bench fails. Each figure is the median over the
// runs, with its min and max; the entry also carries the encoding's
// FNV-1a digest, so two commits can be checked for identical output.
//
//   bench_build [--runs N] [--scales S1,S2,...]
//
// Defaults: 3 runs at scales 0.5, 1, 2 and 4 (24k to 198k elements; the
// paper's XMark has 206k).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "build/builder.h"
#include "build/compress.h"
#include "common/io/file_io.h"
#include "common/json.h"
#include "common/telemetry/metrics.h"
#include "core/serialize.h"
#include "data/xmark.h"
#include "synopsis/reference.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xcluster {
namespace {

constexpr size_t kStructuralBudget = 50 * 1024;
constexpr size_t kValueBudget = 150 * 1024;

struct BenchConfig {
  size_t runs = 3;
  std::vector<double> scales = {0.5, 1.0, 2.0, 4.0};
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// `git describe --always --dirty` of the working directory, or "unknown".
std::string GitRevision() {
  std::string out;
  FILE* pipe = popen("git describe --always --dirty --abbrev=12 2>/dev/null",
                     "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Adds `<name>_median`, `<name>_min` and `<name>_max` over `samples`.
void AddSpread(JsonValue* entry, const std::string& name,
               std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  entry->members()[name + "_median"] = JsonValue::Number(median);
  entry->members()[name + "_min"] = JsonValue::Number(samples.front());
  entry->members()[name + "_max"] = JsonValue::Number(samples.back());
}

bool ParseArgs(int argc, char** argv, BenchConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--runs") == 0 && has_value) {
      config->runs = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--scales") == 0 && has_value) {
      config->scales.clear();
      std::string list = argv[++i];
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = std::min(list.find(',', start), list.size());
        config->scales.push_back(
            std::strtod(list.substr(start, comma - start).c_str(), nullptr));
        start = comma + 1;
      }
    } else {
      return false;
    }
  }
  if (config->runs == 0 || config->scales.empty()) return false;
  for (double scale : config->scales) {
    if (!(scale > 0.0)) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  BenchConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: bench_build [--runs N>0] [--scales S1,S2,...]\n");
    return 2;
  }

  JsonValue entries = JsonValue::Array();
  for (const double scale : config.scales) {
    XMarkOptions xmark;
    xmark.scale = scale;
    XmlDocument doc;
    const Status parsed = XmlParser().Parse(
        XmlWriter().ToString(GenerateXMark(xmark).doc), &doc);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_build: parse: %s\n",
                   parsed.ToString().c_str());
      return 1;
    }
    const GraphSynopsis reference =
        BuildReferenceSynopsis(doc, ReferenceOptions());

    BuildOptions options;
    options.structural_budget = kStructuralBudget;
    options.value_budget = std::numeric_limits<size_t>::max();  // phase 1 only

    std::vector<double> phase1_s;
    std::vector<double> phase2_s;
    std::vector<double> build_s;
    std::vector<double> us_per_candidate;
    BuildStats stats;
    size_t value_bytes_compressed = 0;
    uint64_t digest = 0;
    for (size_t run = 0; run < config.runs; ++run) {
      const auto start = std::chrono::steady_clock::now();
      GraphSynopsis synopsis = XClusterBuild(reference, options, &stats);
      const double p1 = SecondsSince(start);
      const auto phase2_start = std::chrono::steady_clock::now();
      const size_t value_before = synopsis.ValueBytes();
      const size_t value_after = CompressValueSummaries(
          &synopsis, kValueBudget, options.compress);
      const double p2 = SecondsSince(phase2_start);
      value_bytes_compressed = value_before - value_after;

      const uint64_t run_digest =
          Fnv1a64(EncodeSynopsisToString(synopsis));
      if (run > 0 && run_digest != digest) {
        std::fprintf(stderr,
                     "bench_build: FAIL: scale %g run %zu encodes to "
                     "%016llx, run 0 to %016llx\n",
                     scale, run, static_cast<unsigned long long>(run_digest),
                     static_cast<unsigned long long>(digest));
        return 1;
      }
      digest = run_digest;
      phase1_s.push_back(p1);
      phase2_s.push_back(p2);
      build_s.push_back(p1 + p2);
      us_per_candidate.push_back(
          p1 * 1e6 /
          static_cast<double>(std::max<size_t>(1, stats.candidates_evaluated)));
      std::fprintf(stderr,
                   "bench_build: scale %g run %zu: phase 1 %.3f s, phase 2 "
                   "%.3f s, %zu candidates, %zu merges\n",
                   scale, run, p1, p2, stats.candidates_evaluated,
                   stats.merges_applied);
    }

    char scale_name[32];
    std::snprintf(scale_name, sizeof(scale_name), "%g", scale);
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    auto num = [](double v) { return JsonValue::Number(v); };
    JsonValue entry = JsonValue::Object();
    entry.members()["name"] =
        JsonValue::String(std::string("xmark/scale:") + scale_name);
    entry.members()["scale"] = num(scale);
    entry.members()["elements"] = num(static_cast<double>(doc.size()));
    entry.members()["reference_nodes"] =
        num(static_cast<double>(stats.reference_nodes));
    entry.members()["candidates_evaluated"] =
        num(static_cast<double>(stats.candidates_evaluated));
    entry.members()["merges_applied"] =
        num(static_cast<double>(stats.merges_applied));
    entry.members()["value_bytes_compressed"] =
        num(static_cast<double>(value_bytes_compressed));
    entry.members()["runs"] = num(static_cast<double>(config.runs));
    entry.members()["xcs_fnv1a64"] = JsonValue::String(digest_hex);
    AddSpread(&entry, "phase1_s", phase1_s);
    AddSpread(&entry, "phase2_s", phase2_s);
    AddSpread(&entry, "build_s", build_s);
    AddSpread(&entry, "us_per_candidate", us_per_candidate);
    entries.items().push_back(std::move(entry));
  }

  JsonValue report = JsonValue::Object();
  report.members()["benchmark"] = JsonValue::String("build");
  report.members()["git_sha"] = JsonValue::String(GitRevision());
  report.members()["budgets"] = JsonValue::Object();
  report.members()["budgets"].members()["structural_bytes"] =
      JsonValue::Number(static_cast<double>(kStructuralBudget));
  report.members()["budgets"].members()["value_bytes"] =
      JsonValue::Number(static_cast<double>(kValueBudget));
  report.members()["entries"] = std::move(entries);
  Result<JsonValue> metrics = ParseJson(
      telemetry::MetricsRegistry::Global().Snapshot().ToJson());
  if (metrics.ok()) {
    report.members()["metrics"] = std::move(metrics.value());
  }

  const std::string path = "BENCH_build.json";
  Status status = WriteFileAtomic(path, report.Dump(2) + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "bench_build: failed to write %s: %s\n",
                 path.c_str(), status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) { return xcluster::Main(argc, argv); }
