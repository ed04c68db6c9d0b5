#include "summaries/term_histogram.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

namespace xcluster {

void TermHistogram::SortIndexed() {
  // Sorted by TermId so Frequency() can binary-search.
  std::sort(indexed_.begin(), indexed_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
}

TermHistogram TermHistogram::Build(const std::vector<TermSet>& texts) {
  TermHistogram hist;
  if (texts.empty()) return hist;
  std::map<TermId, double> counts;
  for (const TermSet& text : texts) {
    for (TermId term : text) counts[term] += 1.0;
  }
  const double k = static_cast<double>(texts.size());
  hist.indexed_.reserve(counts.size());
  for (const auto& [term, count] : counts) {
    hist.indexed_.push_back({term, count / k});
  }
  hist.SortIndexed();
  return hist;
}

template <class Fn>
void TermHistogram::ForEachMergedUniform(const TermHistogram& a, double wa,
                                         const TermHistogram& b, double wb,
                                         Fn fn) {
  const std::vector<TermId>& ua = a.uniform_members_;
  const std::vector<TermId>& ub = b.uniform_members_;
  size_t i = 0;
  size_t j = 0;
  while (i < ua.size() || j < ub.size()) {
    TermId term;
    if (j == ub.size() || (i < ua.size() && ua[i] < ub[j])) {
      term = ua[i++];
    } else if (i == ua.size() || ub[j] < ua[i]) {
      term = ub[j++];
    } else {
      term = ua[i++];
      ++j;
    }
    if (a.IndexedFrequency(term) != nullptr ||
        b.IndexedFrequency(term) != nullptr) {
      continue;
    }
    fn(term, wa * a.Frequency(term) + wb * b.Frequency(term));
  }
}

TermHistogram TermHistogram::Merge(const TermHistogram& a, double weight_a,
                                   const TermHistogram& b, double weight_b) {
  const double total = weight_a + weight_b;
  if (total <= 0.0) return TermHistogram();
  const double wa = weight_a / total;
  const double wb = weight_b / total;

  TermHistogram out;
  // Terms indexed on either side keep (approximately) exact frequencies;
  // the other side contributes its estimate for that term.
  std::map<TermId, double> indexed;
  for (const auto& [term, freq] : a.indexed_) {
    indexed[term] = wa * freq + wb * b.Frequency(term);
  }
  for (const auto& [term, freq] : b.indexed_) {
    auto it = indexed.find(term);
    if (it == indexed.end()) {
      indexed[term] = wb * freq + wa * a.Frequency(term);
    }
  }
  out.indexed_.assign(indexed.begin(), indexed.end());
  out.SortIndexed();

  // Uniform buckets: union of members not promoted to indexed; average is
  // the weighted mean of the members' estimated frequencies.
  double mass = 0.0;
  ForEachMergedUniform(a, wa, b, wb, [&](TermId term, double freq) {
    out.uniform_members_.push_back(term);
    mass += freq;
  });
  out.uniform_avg_ = out.uniform_members_.empty()
                         ? 0.0
                         : mass / static_cast<double>(out.uniform_members_.size());
  return out;
}

double TermHistogram::MergedFrequency(const TermHistogram& a, double weight_a,
                                      const TermHistogram& b, double weight_b,
                                      TermId term) {
  const double total = weight_a + weight_b;
  if (total <= 0.0) return 0.0;
  const double wa = weight_a / total;
  const double wb = weight_b / total;
  if (const double* freq = a.IndexedFrequency(term)) {
    return wa * *freq + wb * b.Frequency(term);
  }
  if (const double* freq = b.IndexedFrequency(term)) {
    return wb * *freq + wa * a.Frequency(term);
  }
  if (!std::binary_search(a.uniform_members_.begin(),
                          a.uniform_members_.end(), term) &&
      !std::binary_search(b.uniform_members_.begin(),
                          b.uniform_members_.end(), term)) {
    return 0.0;
  }
  double mass = 0.0;
  size_t members = 0;
  ForEachMergedUniform(a, wa, b, wb, [&](TermId, double freq) {
    mass += freq;
    ++members;
  });
  return mass / static_cast<double>(members);
}

const double* TermHistogram::IndexedFrequency(TermId term) const {
  auto it = std::lower_bound(
      indexed_.begin(), indexed_.end(), term,
      [](const auto& entry, TermId t) { return entry.first < t; });
  if (it != indexed_.end() && it->first == term) return &it->second;
  return nullptr;
}

double TermHistogram::Frequency(TermId term) const {
  if (const double* freq = IndexedFrequency(term)) return *freq;
  if (std::binary_search(uniform_members_.begin(), uniform_members_.end(),
                         term)) {
    return uniform_avg_;
  }
  return 0.0;
}

double TermHistogram::Selectivity(const TermSet& terms) const {
  double selectivity = 1.0;
  for (TermId term : terms) selectivity *= Frequency(term);
  return selectivity;
}

double TermHistogram::AnySelectivity(const TermSet& terms) const {
  if (terms.empty()) return 0.0;
  double none = 1.0;
  for (TermId term : terms) none *= 1.0 - Frequency(term);
  return 1.0 - none;
}

double TermHistogram::SimilaritySelectivity(const TermSet& terms,
                                             size_t required) const {
  if (required == 0) return 1.0;
  if (terms.size() < required) return 0.0;
  // dp[j] = probability that exactly j of the terms seen so far appear.
  std::vector<double> dp(terms.size() + 1, 0.0);
  dp[0] = 1.0;
  size_t seen = 0;
  for (TermId term : terms) {
    const double p = Frequency(term);
    for (size_t j = ++seen; j-- > 0;) {
      dp[j + 1] += dp[j] * p;
      dp[j] *= 1.0 - p;
    }
  }
  double at_least = 0.0;
  for (size_t j = required; j <= terms.size(); ++j) at_least += dp[j];
  return at_least;
}

void TermHistogram::Compress(size_t num_terms) {
  num_terms = std::min(num_terms, indexed_.size());
  if (num_terms == 0) return;
  // Select the num_terms lowest-frequency indexed entries.
  std::vector<size_t> order(indexed_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + static_cast<ptrdiff_t>(num_terms - 1),
                   order.end(), [&](size_t x, size_t y) {
                     if (indexed_[x].second != indexed_[y].second) {
                       return indexed_[x].second < indexed_[y].second;
                     }
                     return indexed_[x].first > indexed_[y].first;
                   });
  std::vector<bool> demote(indexed_.size(), false);
  for (size_t k = 0; k < num_terms; ++k) demote[order[k]] = true;

  double bucket_mass =
      uniform_avg_ * static_cast<double>(uniform_members_.size());
  std::vector<std::pair<TermId, double>> kept;
  kept.reserve(indexed_.size() - num_terms);
  for (size_t i = 0; i < indexed_.size(); ++i) {
    if (demote[i]) {
      uniform_members_.push_back(indexed_[i].first);
      bucket_mass += indexed_[i].second;
    } else {
      kept.push_back(indexed_[i]);
    }
  }
  indexed_ = std::move(kept);
  std::sort(uniform_members_.begin(), uniform_members_.end());
  uniform_members_.erase(
      std::unique(uniform_members_.begin(), uniform_members_.end()),
      uniform_members_.end());
  uniform_avg_ = uniform_members_.empty()
                     ? 0.0
                     : bucket_mass / static_cast<double>(uniform_members_.size());
}

TermHistogram TermHistogram::Compressed(size_t num_terms) const {
  TermHistogram copy = *this;
  copy.Compress(num_terms);
  return copy;
}

std::vector<TermId> TermHistogram::SampleTerms(size_t cap) const {
  std::vector<TermId> terms;
  for (const auto& [term, freq] : indexed_) {
    terms.push_back(term);
    if (cap != 0 && terms.size() >= cap) return terms;
  }
  for (TermId term : uniform_members_) {
    terms.push_back(term);
    if (cap != 0 && terms.size() >= cap) break;
  }
  return terms;
}

TermHistogram TermHistogram::FromParts(
    std::vector<std::pair<TermId, double>> indexed,
    std::vector<TermId> uniform_members, double uniform_avg) {
  TermHistogram hist;
  hist.indexed_ = std::move(indexed);
  hist.SortIndexed();
  hist.uniform_members_ = std::move(uniform_members);
  std::sort(hist.uniform_members_.begin(), hist.uniform_members_.end());
  hist.uniform_avg_ = uniform_avg;
  return hist;
}

size_t TermHistogram::UniformRuns() const {
  if (uniform_members_.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < uniform_members_.size(); ++i) {
    if (uniform_members_[i] != uniform_members_[i - 1] + 1) ++runs;
  }
  // Each gap between present-runs is also a run of zeros in the binary
  // vector; plus the leading zero-run if the first member is not term 0.
  size_t zero_runs = runs - 1 + (uniform_members_.front() != 0 ? 1 : 0);
  return runs + zero_runs;
}

size_t TermHistogram::SizeBytes() const {
  if (indexed_.empty() && uniform_members_.empty()) return 0;
  return indexed_.size() * 8 + UniformRuns() * 4 + 8;
}

}  // namespace xcluster
