#include "core/xcluster.h"

#include "common/telemetry/telemetry.h"
#include "query/parser.h"

namespace xcluster {

XCluster XCluster::Build(const XmlDocument& doc, const Options& options) {
  XCLUSTER_TRACE_SPAN("xcluster.build");
  BuildStats stats;
  GraphSynopsis synopsis =
      BuildXCluster(doc, options.reference, options.build, &stats);
  XCluster xc(std::move(synopsis), options.estimate);
  xc.stats_ = stats;
  return xc;
}

XCluster::XCluster(GraphSynopsis synopsis, EstimateOptions estimate)
    : synopsis_(std::move(synopsis)),
      compiled_(std::make_shared<const Compiled>(synopsis_, estimate)) {}

double XCluster::EstimateSelectivity(const TwigQuery& query) const {
  return compiled_->estimator.Estimate(query);
}

Result<double> XCluster::EstimateSelectivity(std::string_view twig) const {
  Result<TwigQuery> query = ParseTwig(twig);
  if (!query.ok()) return query.status();
  return EstimateSelectivity(query.value());
}

}  // namespace xcluster
