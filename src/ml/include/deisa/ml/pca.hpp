// Principal component analysis — batch PCA and the incremental PCA of
// Ross et al. as implemented by scikit-learn/dask-ml (the model used in
// the paper's end-to-end workflow, §3.1–3.2). partial_fit follows the
// sklearn update exactly: incremental mean/variance tracking, the
// [S·V ; X_centered ; mean-correction] stacked SVD, and sign flipping for
// deterministic component orientation.
//
// Both fits solve that SVD exactly with linalg::svd_right: the update reads
// the singular values and the k = n_components leading right singular
// vectors, never U. It needs the whole spectrum's values (all
// min(rows, cols)), not a rank-k sketch, because Pca's
// explained_variance_ratio and IncrementalPca's noise_variance sum the
// unkept tail, but only k vectors, so the solver builds no others.
#pragma once

#include <cstdint>
#include <optional>

#include "deisa/linalg/decomp.hpp"
#include "deisa/linalg/matrix.hpp"

namespace deisa::ml {

struct PcaOptions {
  std::size_t n_components = 2;
  /// Listing 2's solver label (svd_solver='randomized'). It does not change
  /// the math: both labels run the same exact solver. Its modeled price is
  /// AnalyticsCostModel::cost_multiplier.
  bool randomized = false;
};

/// Batch PCA (requires all samples in memory — the limitation IPCA lifts).
class Pca {
public:
  explicit Pca(PcaOptions opts);

  /// Fit on X (rows = samples, cols = features).
  void fit(const linalg::Matrix& x);
  linalg::Matrix transform(const linalg::Matrix& x) const;

  const linalg::Matrix& components() const { return components_; }
  const std::vector<double>& singular_values() const {
    return singular_values_;
  }
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }
  const std::vector<double>& explained_variance_ratio() const {
    return explained_variance_ratio_;
  }
  const std::vector<double>& mean() const { return mean_; }

private:
  PcaOptions opts_;
  linalg::Matrix components_;  // k x f
  std::vector<double> singular_values_;
  std::vector<double> explained_variance_;
  std::vector<double> explained_variance_ratio_;
  std::vector<double> mean_;
};

/// Incremental PCA: constant-memory minibatch fitting.
class IncrementalPca {
public:
  explicit IncrementalPca(PcaOptions opts);

  /// Update the model with one minibatch (rows = samples).
  void partial_fit(const linalg::Matrix& x);
  linalg::Matrix transform(const linalg::Matrix& x) const;

  std::size_t n_samples_seen() const { return n_samples_seen_; }
  std::size_t n_features() const { return mean_.size(); }
  const linalg::Matrix& components() const { return components_; }
  const std::vector<double>& singular_values() const {
    return singular_values_;
  }
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }
  const std::vector<double>& explained_variance_ratio() const {
    return explained_variance_ratio_;
  }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& variance() const { return var_; }
  double noise_variance() const { return noise_variance_; }

  /// Serialized size estimate (what moves between tasks).
  std::uint64_t state_bytes() const;

private:
  PcaOptions opts_;
  std::size_t n_samples_seen_ = 0;
  std::vector<double> mean_;  // per-feature running mean
  std::vector<double> var_;   // per-feature running variance (population)
  linalg::Matrix components_;
  std::vector<double> singular_values_;
  std::vector<double> explained_variance_;
  std::vector<double> explained_variance_ratio_;
  double noise_variance_ = 0.0;
};

/// Deterministic component orientation (sklearn svd_flip with
/// u_based_decision=False): flip each right-singular row so its
/// largest-magnitude entry is positive.
void svd_flip_v(linalg::Matrix& u, linalg::Matrix& vt);

}  // namespace deisa::ml
