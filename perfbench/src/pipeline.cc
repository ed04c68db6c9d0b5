#include "pipeline.h"

#include <cstring>
#include <fstream>

#include "common/telemetry/trace.h"
#include "core/serialize.h"
#include "data/xmark.h"
#include "estimate/compiled_twig.h"
#include "estimate/plan_cache.h"
#include "query/parser.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "util.h"
#include "workload/metrics.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace perfbench {

using xcluster::Result;
using xcluster::Status;
using xcluster::telemetry::TraceSpan;

XmlInput GenerateXml(double scale, uint64_t seed) {
  xcluster::XMarkOptions options;
  options.scale = scale;
  options.seed = seed;
  xcluster::GeneratedDataset dataset = xcluster::GenerateXMark(options);
  return {xcluster::XmlWriter().ToString(dataset.doc),
          std::move(dataset.value_paths)};
}

namespace {

Status WriteImage(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<BuiltSnapshot>> RunPipeline(
    const std::string& xml_text, const PipelineConfig& config,
    const std::string& xcsf_path) {
  auto out = std::make_unique<BuiltSnapshot>();
  out->xcsf_path = xcsf_path;
  StageTimes& t = out->times;
  TraceSpan root("bench.pipeline");
  const double start = NowSeconds();
  double mark = start;
  auto lap = [&mark](double* slot) {
    const double now = NowSeconds();
    *slot = now - mark;
    mark = now;
  };

  {
    TraceSpan span("bench.xml.parse");
    Status parsed = xcluster::XmlParser().Parse(xml_text, &out->doc);
    if (!parsed.ok()) return parsed;
  }
  lap(&t.parse);
  {
    TraceSpan span("bench.synopsis.reference");
    xcluster::ReferenceOptions options;
    options.value_paths = config.value_paths;
    out->reference = xcluster::BuildReferenceSynopsis(out->doc, options);
  }
  lap(&t.reference);
  {
    TraceSpan span("bench.build.xclusterbuild");
    out->synopsis =
        xcluster::XClusterBuild(out->reference, config.build, &out->stats);
  }
  lap(&t.xclusterbuild);
  {
    TraceSpan span("bench.core.xcs_encode");
    out->xcs_bytes = xcluster::EncodeSynopsisToString(out->synopsis);
  }
  lap(&t.xcs_encode);
  {
    TraceSpan span("bench.storage.xcsf_encode");
    xcluster::FlatSynopsis flat(out->synopsis);
    Status encoded =
        xcluster::storage::XcsfWriter::Encode(flat, &out->xcsf_bytes);
    if (!encoded.ok()) return encoded;
  }
  lap(&t.xcsf_encode);
  {
    TraceSpan span("bench.storage.xcsf_write");
    Status written = WriteImage(xcsf_path, out->xcsf_bytes);
    if (!written.ok()) return written;
  }
  lap(&t.xcsf_write);
  {
    TraceSpan span("bench.storage.xcsf_open");
    Result<xcluster::storage::XcsfMmapView> view =
        xcluster::storage::XcsfMmapView::Open(xcsf_path);
    if (!view.ok()) return view.status();
    out->view.emplace(std::move(view).value());
  }
  lap(&t.xcsf_open);
  {
    TraceSpan span("bench.estimate.first");
    Oracle oracle(out->view->flat());
    if (!oracle.Estimate(kFirstQuery, &out->first_estimate)) {
      return Status::InvalidArgument("the first query does not parse");
    }
  }
  lap(&t.first_estimate);
  t.total = mark - start;
  return out;
}

void ReleaseIntermediates(BuiltSnapshot* snapshot) {
  snapshot->doc = xcluster::XmlDocument();
  snapshot->reference = xcluster::GraphSynopsis();
  snapshot->synopsis = xcluster::GraphSynopsis();
  std::string().swap(snapshot->xcs_bytes);
  ReturnFreedMemory();
}

GroundTruth MakeGroundTruth(const xcluster::XmlDocument& doc,
                            const xcluster::GraphSynopsis& reference,
                            size_t count, uint64_t seed) {
  GroundTruth truth;
  xcluster::WorkloadOptions options;
  options.num_queries = count;
  options.seed = seed;
  truth.workload = xcluster::GenerateWorkload(doc, reference, options);
  truth.texts.reserve(truth.workload.queries.size());
  for (const xcluster::WorkloadQuery& query : truth.workload.queries) {
    truth.texts.push_back(query.query.ToString());
  }
  return truth;
}

double ErrorPercent(const GroundTruth& truth,
                    const std::vector<double>& estimates) {
  return 100.0 *
         xcluster::EvaluateErrors(truth.workload, estimates).overall
             .avg_rel_error;
}

Oracle::Oracle(const xcluster::FlatSynopsis& flat)
    : flat_(flat), estimator_(flat) {}

bool Oracle::Estimate(const std::string& text, double* estimate,
                      QueryCost* cost) const {
  const uint64_t t0 = NowNs();
  Result<xcluster::TwigQuery> parsed =
      xcluster::ParseTwig(xcluster::PlanCache::NormalizeQuery(text));
  if (!parsed.ok()) return false;
  const uint64_t t1 = NowNs();
  const xcluster::CompiledTwig plan =
      xcluster::CompiledTwig::Compile(parsed.value(), flat_);
  const uint64_t t2 = NowNs();
  *estimate = estimator_.Estimate(plan);
  if (cost != nullptr) {
    const uint64_t t3 = NowNs();
    cost->parse_ns += static_cast<double>(t1 - t0);
    cost->compile_ns += static_cast<double>(t2 - t1);
    cost->dp_ns += static_cast<double>(t3 - t2);
  }
  return true;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
