// The offline path the paper describes (Sec. 4): XML text -> parsed
// document -> reference synopsis -> XClusterBuild -> .xcs and .xcsf images
// -> mapped image -> first estimate, each stage timed around its public
// call. Also the ground truth the error metric needs and the in-process
// FlatEstimator every served reply is checked against.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "build/builder.h"
#include "common/status.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_mmap_view.h"
#include "synopsis/graph.h"
#include "workload/generator.h"
#include "xml/document.h"

namespace perfbench {

/// An XMark document at some scale, rendered to XML text (the pipeline's
/// input), with the generator's value paths (the paper's 9 for XMark).
struct XmlInput {
  std::string text;
  std::vector<std::string> value_paths;
};

XmlInput GenerateXml(double scale, uint64_t seed);

/// What the pipeline summarizes and to which budgets. Empty `value_paths`
/// puts value summaries on every value-bearing cluster.
struct PipelineConfig {
  std::vector<std::string> value_paths;
  xcluster::BuildOptions build;
};

/// Wall time of each stage of one pipeline run, in seconds.
struct StageTimes {
  double parse = 0.0;
  double reference = 0.0;
  double xclusterbuild = 0.0;
  double xcs_encode = 0.0;
  double xcsf_encode = 0.0;
  double xcsf_write = 0.0;
  double xcsf_open = 0.0;
  double first_estimate = 0.0;
  double total = 0.0;
};

/// Everything one pipeline run produces.
struct BuiltSnapshot {
  xcluster::XmlDocument doc;
  xcluster::GraphSynopsis reference;
  xcluster::GraphSynopsis synopsis;
  xcluster::BuildStats stats;
  std::string xcs_bytes;
  std::string xcsf_bytes;
  std::string xcsf_path;
  std::optional<xcluster::storage::XcsfMmapView> view;
  StageTimes times;
  double first_estimate = 0.0;
};

/// The query the pipeline's last stage estimates on the mapped image.
inline constexpr char kFirstQuery[] = "//item/name";

/// Runs the whole offline path on `xml_text`, writing the image to
/// `xcsf_path`; estimates kFirstQuery on the mapped image as the last
/// stage.
xcluster::Result<std::unique_ptr<BuiltSnapshot>> RunPipeline(
    const std::string& xml_text, const PipelineConfig& config,
    const std::string& xcsf_path);

/// Drops what a pipeline run keeps beside its image (the document, both
/// synopses, the .xcs bytes) and hands the freed heap back to the system.
void ReleaseIntermediates(BuiltSnapshot* snapshot);

/// Positive twig queries with exact selectivities (Sec. 6.1), as text.
struct GroundTruth {
  xcluster::Workload workload;
  std::vector<std::string> texts;
};

/// Samples `count` positive queries from `reference` (the reference
/// synopsis of `doc`), with ExactEvaluator ground truth.
GroundTruth MakeGroundTruth(const xcluster::XmlDocument& doc,
                            const xcluster::GraphSynopsis& reference,
                            size_t count, uint64_t seed);

/// Sec. 6.1 average absolute relative error (10th-percentile sanity
/// bound), in percent.
double ErrorPercent(const GroundTruth& truth,
                    const std::vector<double>& estimates);

/// Accumulated per-call cost of in-process estimates, in nanoseconds.
struct QueryCost {
  double parse_ns = 0.0;
  double compile_ns = 0.0;
  double dp_ns = 0.0;
};

/// The reference answer for a served estimate: ParseTwig ->
/// CompiledTwig::Compile -> FlatEstimator::Estimate over one synopsis image,
/// in-process, with its own reach cache. Thread-safe.
class Oracle {
 public:
  explicit Oracle(const xcluster::FlatSynopsis& flat);

  /// False when the query does not parse (a served query never should).
  bool Estimate(const std::string& text, double* estimate,
                QueryCost* cost = nullptr) const;

 private:
  const xcluster::FlatSynopsis& flat_;
  xcluster::FlatEstimator estimator_;
};

/// Exact IEEE-754 equality (distinguishes -0.0 and NaN payloads).
bool SameBits(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
