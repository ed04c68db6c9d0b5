#ifndef XCLUSTER_SUMMARIES_TERM_HISTOGRAM_H_
#define XCLUSTER_SUMMARIES_TERM_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "text/dictionary.h"

namespace xcluster {

/// End-biased term histogram summarizing a collection of Boolean term
/// vectors (the TEXT value summary of Sec. 3).
///
/// The underlying object is the vector centroid w, where w[t] is the
/// fraction of texts in the cluster that contain term t. The compressed
/// representation keeps:
///  * the top-few term frequencies exactly ("indexed" terms), and
///  * one uniform bucket holding the remaining non-zero terms: a lossless
///    run-length-compressed encoding of the binary membership vector plus a
///    single average frequency.
/// Estimating w[t]: exact if t is indexed; the bucket average if t is a
/// member of the uniform bucket; 0 otherwise. This preserves zero entries
/// exactly, which conventional range-bucket histograms lose.
///
/// A freshly built histogram indexes every term (it *is* the exact
/// centroid); tv_cmprs(u, b) moves the b lowest-frequency indexed terms
/// into the uniform bucket.
class TermHistogram {
 public:
  TermHistogram() = default;

  /// Builds the exact centroid of `texts` (each a sorted TermSet); the
  /// result has every distinct term indexed and an empty uniform bucket.
  static TermHistogram Build(const std::vector<TermSet>& texts);

  /// Weighted fusion per Sec. 4.1: w = (|u| w_u + |v| w_v) / (|u| + |v|),
  /// where each input frequency is read through its own compressed
  /// representation. Terms indexed in either input stay indexed; uniform
  /// buckets combine.
  static TermHistogram Merge(const TermHistogram& a, double weight_a,
                             const TermHistogram& b, double weight_b);

  /// Frequency(term) of Merge(a, weight_a, b, weight_b), computed from the
  /// inputs without building the merge and bit-identical to it: the
  /// weighted estimates for a term indexed on either side, the merged
  /// uniform-bucket average (summed in Merge's order) for a term only in
  /// the uniform buckets, 0 otherwise.
  static double MergedFrequency(const TermHistogram& a, double weight_a,
                                const TermHistogram& b, double weight_b,
                                TermId term);

  /// Estimated centroid frequency of `term` in [0, 1].
  double Frequency(TermId term) const;

  /// Selectivity of ftcontains(t1, ..., tk): the product of per-term
  /// frequencies (term-independence within the cluster).
  double Selectivity(const TermSet& terms) const;

  /// Selectivity of the disjunction ftany(t1, ..., tk): by inclusion-
  /// exclusion under term independence, 1 - prod(1 - w[t_i]). An empty
  /// disjunction is unsatisfiable (selectivity 0).
  double AnySelectivity(const TermSet& terms) const;

  /// Selectivity of a set-similarity predicate: the probability that at
  /// least `required` of the given terms appear, computed by the Poisson-
  /// binomial DP over the per-term frequencies (term independence).
  /// `universe` is the query's total term count: terms that did not
  /// resolve (absent from the dictionary) can never match, so they lower
  /// the achievable overlap but still count toward the threshold.
  double SimilaritySelectivity(const TermSet& terms, size_t required) const;

  /// tv_cmprs(u, b): demotes the `b` lowest-frequency indexed terms into
  /// the uniform bucket and updates the bucket average.
  void Compress(size_t num_terms);

  bool CanCompress() const { return !indexed_.empty(); }

  TermHistogram Compressed(size_t num_terms) const;

  /// All indexed terms plus up to `uniform_cap` uniform-bucket members —
  /// the atomic TEXT predicates of Sec. 4.1.
  std::vector<TermId> SampleTerms(size_t cap) const;

  size_t indexed_count() const { return indexed_.size(); }
  size_t uniform_count() const { return uniform_members_.size(); }
  double uniform_avg() const { return uniform_avg_; }

  /// Byte cost in the size model: 8 bytes per indexed term (id + exact
  /// frequency), 4 bytes per run of the RLE-compressed membership bitmap,
  /// plus 8 bytes for the bucket average and text count.
  size_t SizeBytes() const;

  /// Number of RLE runs of the uniform bucket's binary membership vector
  /// (runs of consecutive TermIds present/absent).
  size_t UniformRuns() const;

  /// Serialization accessors / reconstruction.
  const std::vector<std::pair<TermId, double>>& indexed() const {
    return indexed_;
  }
  const std::vector<TermId>& uniform_members() const {
    return uniform_members_;
  }
  static TermHistogram FromParts(std::vector<std::pair<TermId, double>> indexed,
                                 std::vector<TermId> uniform_members,
                                 double uniform_avg);

 private:
  // Indexed terms sorted by TermId so Frequency() can binary-search;
  // Compress selects the lowest-frequency entries with nth_element.
  std::vector<std::pair<TermId, double>> indexed_;
  std::vector<TermId> uniform_members_;  // sorted
  double uniform_avg_ = 0.0;

  void SortIndexed();

  /// The exact frequency of an indexed term, or nullptr.
  const double* IndexedFrequency(TermId term) const;

  /// Calls fn(term, merged frequency estimate) for each member of
  /// Merge(a, ., b, .)'s uniform bucket in ascending TermId order: the
  /// union of both buckets minus the terms indexed on either side.
  template <class Fn>
  static void ForEachMergedUniform(const TermHistogram& a, double wa,
                                   const TermHistogram& b, double wb, Fn fn);
};

}  // namespace xcluster

#endif  // XCLUSTER_SUMMARIES_TERM_HISTOGRAM_H_
