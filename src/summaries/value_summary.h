#ifndef XCLUSTER_SUMMARIES_VALUE_SUMMARY_H_
#define XCLUSTER_SUMMARIES_VALUE_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "summaries/histogram.h"
#include "summaries/pst.h"
#include "summaries/sample.h"
#include "summaries/term_histogram.h"
#include "summaries/wavelet.h"
#include "xml/document.h"

namespace xcluster {

/// An atomic value predicate used by the Delta clustering-error metric
/// (Sec. 4.1): a prefix range [domain_lo, h] for NUMERIC summaries, a stored
/// substring for STRING summaries, or a single term for TEXT summaries.
struct AtomicPredicate {
  ValueType type = ValueType::kNone;
  int64_t range_hi = 0;      // NUMERIC
  std::string substring;     // STRING
  TermId term = kInvalidSymbol;  // TEXT
};

/// Which structure summarizes NUMERIC distributions. The paper's primary
/// tool is the histogram; wavelets and random samples are the alternatives
/// it names (Sec. 3) and are supported as drop-in replacements.
enum class NumericSummaryKind : uint8_t {
  kHistogram = 0,
  kWavelet = 1,
  kSample = 2,
};

/// vsumm(u): the per-node value summary of Def. 3.1, dispatching to the
/// type-appropriate structure (Histogram / WaveletSummary / SampleSummary
/// for NUMERIC, Pst for STRING, TermHistogram for TEXT). A summary of type
/// kNone is empty and has selectivity 1 for the trivial predicate.
class ValueSummary {
 public:
  ValueSummary() = default;

  static ValueSummary FromNumeric(
      std::vector<int64_t> values, size_t max_buckets,
      NumericSummaryKind kind = NumericSummaryKind::kHistogram);
  static ValueSummary FromStrings(const std::vector<std::string>& values,
                                  size_t max_depth);
  static ValueSummary FromTexts(const std::vector<TermSet>& texts);

  /// Fuses two summaries of the same type per Sec. 4.1; weights are the
  /// extent sizes |u| and |v| (used by the TEXT centroid combination).
  static ValueSummary Merge(const ValueSummary& a, double weight_a,
                            const ValueSummary& b, double weight_b);

  ValueType type() const { return type_; }
  bool empty() const { return type_ == ValueType::kNone; }

  /// Fraction sigma_p(u) of the cluster's elements satisfying `pred`.
  /// Predicates of a kind mismatching the summary type have selectivity 0
  /// (a range predicate can never hold on a TEXT element).
  double Selectivity(const ValuePredicate& pred) const;

  /// Selectivity of an atomic predicate (Delta metric evaluation).
  double AtomicSelectivity(const AtomicPredicate& pred) const;

  /// Enumerates up to `cap` atomic predicates from this summary.
  std::vector<AtomicPredicate> AtomicPredicates(size_t cap) const;

  /// Applies one unit of type-appropriate value compression (Sec. 4.2):
  /// hist_cmprs / st_cmprs / tv_cmprs with b = `amount`. Returns the actual
  /// byte savings (0 if no further compression is possible).
  size_t Compress(size_t amount);

  bool CanCompress() const;

  /// A compressed copy for candidate evaluation.
  ValueSummary Compressed(size_t amount) const;

  /// Byte cost in the synopsis size model.
  size_t SizeBytes() const;

  NumericSummaryKind numeric_kind() const { return numeric_kind_; }

  const Histogram& histogram() const { return histogram_; }
  const WaveletSummary& wavelet() const { return wavelet_; }
  const SampleSummary& sample() const { return sample_; }
  const Pst& pst() const { return pst_; }
  const TermHistogram& terms() const { return terms_; }

  Histogram* mutable_histogram() { return &histogram_; }
  WaveletSummary* mutable_wavelet() { return &wavelet_; }
  SampleSummary* mutable_sample() { return &sample_; }
  Pst* mutable_pst() { return &pst_; }
  TermHistogram* mutable_terms() { return &terms_; }
  void set_type(ValueType type) { type_ = type; }
  void set_numeric_kind(NumericSummaryKind kind) { numeric_kind_ = kind; }

  /// Estimated count / selectivity for a numeric range, dispatched on the
  /// active numeric-summary kind.
  double NumericEstimate(int64_t lo, int64_t hi) const;
  double NumericSelectivity(int64_t lo, int64_t hi) const;

  /// Total number of summarized numeric values.
  double NumericTotal() const;

 private:
  ValueType type_ = ValueType::kNone;
  NumericSummaryKind numeric_kind_ = NumericSummaryKind::kHistogram;
  Histogram histogram_;
  WaveletSummary wavelet_;
  SampleSummary sample_;
  Pst pst_;
  TermHistogram terms_;
};

/// AtomicSelectivity of ValueSummary::Merge(a, weight_a, b, weight_b),
/// bit-identical to the materialized merge's, mostly without building it.
/// STRING and TEXT are read off the inputs (Pst::MergedSelectivity, which
/// needs the predicate's substring stored in a or b, and
/// TermHistogram::MergedFrequency); an empty side defers to the other.
/// Two non-empty NUMERIC summaries are merged once, here: bucket
/// alignment and coalescing have no bit-exact shortcut. The inputs must
/// outlive this object.
class MergedSelectivity {
 public:
  MergedSelectivity(const ValueSummary& a, double weight_a,
                    const ValueSummary& b, double weight_b);

  double operator()(const AtomicPredicate& pred) const;

 private:
  const ValueSummary& a_;
  const ValueSummary& b_;
  double weight_a_;
  double weight_b_;
  bool numeric_pair_;
  ValueSummary numeric_merge_;  ///< built only for a NUMERIC pair
};

}  // namespace xcluster

#endif  // XCLUSTER_SUMMARIES_VALUE_SUMMARY_H_
