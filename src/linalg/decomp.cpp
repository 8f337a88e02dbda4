#include "deisa/linalg/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "deisa/util/error.hpp"
#include "deisa/util/rng.hpp"

namespace deisa::linalg {

namespace {

/// Reduces `r` (m x n, m >= n) to upper-triangular form in place by
/// Householder reflections. Each unit reflector is appended to `vs` when
/// one is given (qr_thin forms Q from them); svd_right needs only R.
void householder_reduce(Matrix& r, std::vector<std::vector<double>>* vs) {
  const std::size_t m = r.rows();
  const std::size_t n = r.cols();
  for (std::size_t k = 0; k < n; ++k) {
    // Build the reflector for column k below the diagonal.
    std::vector<double> v(m - k);
    for (std::size_t i = k; i < m; ++i) v[i - k] = r(i, k);
    const double alpha = norm2(v);
    if (alpha == 0.0) {
      // Zero column: identity reflector.
      if (vs) vs->emplace_back(m - k, 0.0);
      continue;
    }
    const double sign = v[0] >= 0.0 ? 1.0 : -1.0;
    v[0] += sign * alpha;
    const double vnorm = norm2(v);
    if (vnorm > 0.0)
      for (double& x : v) x /= vnorm;
    // Apply H = I - 2 v v^T to the trailing block of R.
    for (std::size_t j = k; j < n; ++j) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i - k] * r(i, j);
      proj *= 2.0;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= proj * v[i - k];
    }
    if (vs) vs->push_back(std::move(v));
  }
}

}  // namespace

QrResult qr_thin(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DEISA_CHECK(m >= n, "qr_thin requires rows >= cols, got " << m << "x" << n);
  Matrix r = a;  // reduced in place
  std::vector<std::vector<double>> vs;
  householder_reduce(r, &vs);

  // Q = H_0 H_1 ... H_{n-1} * [I_n; 0]  (thin).
  Matrix q(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    const auto& v = vs[k];
    for (std::size_t j = 0; j < n; ++j) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i - k] * q(i, j);
      proj *= 2.0;
      for (std::size_t i = k; i < m; ++i) q(i, j) -= proj * v[i - k];
    }
  }

  // Zero the sub-diagonal noise of R and truncate to n x n.
  Matrix r_out(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r_out(i, j) = r(i, j);
  return {std::move(q), std::move(r_out)};
}

namespace {

/// x <- c x - s y,  y <- s x + c y.
void rotate(std::span<double> x, std::span<double> y, double c, double s) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

/// One-sided Jacobi: rotates column pairs of `a` until every pair is
/// orthogonal to working precision, applying each rotation to the columns
/// of `v` too when one is given. The squared column norms are cached:
/// recomputed at the start of each sweep and updated per rotation by
/// Rutishauser's rule (alpha -= t gamma, beta += t gamma), so a pair costs
/// one dot product. The last sweep rotates nothing, so convergence is
/// always judged on freshly computed norms.
///
/// A column whose norm falls below kTol times the largest is set to exact
/// zero at the next sweep. Rank deficiency otherwise leaves a roundoff
/// residue inside the span of the other columns, where it can never become
/// orthogonal to them: it would only shrink, sweep after sweep, and then
/// normalize to a direction that duplicates another column.
/// Only pairs of the sweep's live (nonzero) columns are visited, in p < q
/// order: a zero column has gamma == 0 and is never rotated, so skipping it
/// changes no bit, and a low-rank PCA stack is mostly zero columns.
void jacobi_orthogonalize(Matrix& a, Matrix* v) {
  const std::size_t n = a.cols();
  std::vector<double> norms(n);
  std::vector<std::size_t> live;
  constexpr int kMaxSweeps = 64;
  constexpr double kTol = 1e-14;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    for (std::size_t j = 0; j < n; ++j) norms[j] = dot(a.col(j), a.col(j));
    const double negligible =
        kTol * kTol * *std::max_element(norms.begin(), norms.end());
    live.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (norms[j] > negligible) {
        live.push_back(j);
        continue;
      }
      std::fill(a.col(j).begin(), a.col(j).end(), 0.0);
      norms[j] = 0.0;
    }
    bool rotated = false;
    for (std::size_t lp = 0; lp + 1 < live.size(); ++lp) {
      for (std::size_t lq = lp + 1; lq < live.size(); ++lq) {
        const std::size_t p = live[lp];
        const std::size_t q = live[lq];
        const auto ap = a.col(p);
        const auto aq = a.col(q);
        double& alpha = norms[p];
        double& beta = norms[q];
        const double gamma = dot(ap, aq);
        if (std::abs(gamma) <= kTol * std::sqrt(alpha * beta)) continue;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotated = true;
        rotate(ap, aq, c, s);
        if (v) rotate(v->col(p), v->col(q), c, s);
        alpha -= t * gamma;
        beta += t * gamma;
      }
    }
    if (!rotated) break;
  }
}

/// The singular values are the converged columns' norms. Stores them in
/// `s` in descending order and returns the column order that sorts them.
std::vector<std::size_t> descending_norms(const Matrix& a,
                                          std::vector<double>& s) {
  const std::size_t n = a.cols();
  std::vector<double> norms(n);
  for (std::size_t j = 0; j < n; ++j) norms[j] = norm2(a.col(j));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return norms[x] > norms[y];
                   });
  s.resize(n);
  for (std::size_t j = 0; j < n; ++j) s[j] = norms[order[j]];
  return order;
}

/// Columns of `a` in `order`, each divided by its norm `s` (a zero column
/// stays zero).
Matrix unit_columns(const Matrix& a, const std::vector<std::size_t>& order,
                    const std::vector<double>& s) {
  Matrix u(a.rows(), order.size());
  for (std::size_t j = 0; j < order.size(); ++j)
    if (s[j] > 0.0)
      for (std::size_t i = 0; i < a.rows(); ++i)
        u(i, j) = a(i, order[j]) / s[j];
  return u;
}

/// Replaces the zero columns of `v` (n rows, at most n columns) — those of
/// the exactly-zero singular values, last in the descending `s` — by unit
/// vectors orthogonal to all earlier columns: each is the coordinate vector
/// least covered by them, projected off them twice (Gram-Schmidt with
/// reorthogonalization). Column j reads only columns 0..j-1, so a leading
/// block completes to the same bits as the whole square basis.
void complete_basis(Matrix& v, const std::vector<double>& s) {
  const std::size_t n = v.rows();
  const auto rank = static_cast<std::size_t>(
      std::find(s.begin(), s.end(), 0.0) - s.begin());
  for (std::size_t j = rank; j < v.cols(); ++j) {
    std::size_t e = 0;
    double least = 2.0;
    for (std::size_t i = 0; i < n; ++i) {
      double cover = 0.0;
      for (std::size_t c = 0; c < j; ++c) cover += v(i, c) * v(i, c);
      if (cover < least) {
        least = cover;
        e = i;
      }
    }
    const auto w = v.col(j);
    w[e] = 1.0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t c = 0; c < j; ++c) {
        const auto vc = v.col(c);
        const double proj = dot(vc, w);
        for (std::size_t i = 0; i < n; ++i) w[i] -= proj * vc[i];
      }
    }
    const double nw = norm2(w);
    for (double& x : w) x /= nw;
  }
}

/// U, s, V of an m x n matrix with m >= n by one-sided Jacobi on A itself,
/// accumulating V.
SvdResult jacobi_tall(Matrix a) {
  const std::size_t n = a.cols();
  DEISA_ASSERT(a.rows() >= n, "jacobi_tall requires m >= n");
  Matrix v = Matrix::identity(n);
  jacobi_orthogonalize(a, &v);
  SvdResult out;
  const std::vector<std::size_t> order = descending_norms(a, out.s);
  out.u = unit_columns(a, order, out.s);
  out.v = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, order[j]);
  return out;
}

}  // namespace

SvdResult svd(const Matrix& a) {
  DEISA_CHECK(!a.empty(), "svd of empty matrix");
  if (a.rows() >= a.cols()) return jacobi_tall(a);
  // A = U S V^T  <=>  A^T = V S U^T.
  SvdResult t = jacobi_tall(a.transposed());
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.s = std::move(t.s);
  return out;
}

RightSvdResult svd_right(const Matrix& a, std::size_t vectors) {
  DEISA_CHECK(!a.empty(), "svd_right of empty matrix");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  // Columns whose Jacobi rotation converges to V diag(s): with A = Q R,
  // R^T = V diag(s) (Q^T U)^T, and A^T = V diag(s) U^T.
  Matrix w;
  if (m > n) {
    Matrix r = a;
    householder_reduce(r, nullptr);
    w = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i <= j; ++i) w(j, i) = r(i, j);
  } else {
    w = a.transposed();
  }
  jacobi_orthogonalize(w, nullptr);
  RightSvdResult out;
  std::vector<std::size_t> order = descending_norms(w, out.s);
  order.resize(std::min(vectors, order.size()));
  out.v = unit_columns(w, order, out.s);
  if (m >= n) complete_basis(out.v, out.s);
  return out;
}

SvdResult randomized_svd(const Matrix& a, std::size_t k, std::size_t oversample,
                         std::size_t power_iters, std::uint64_t seed) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DEISA_CHECK(k >= 1, "randomized_svd needs k >= 1");
  const std::size_t rank_cap = std::min(m, n);
  k = std::min(k, rank_cap);
  const std::size_t p = std::min(k + oversample, rank_cap);

  util::Rng rng(seed);
  Matrix omega(n, p);
  for (double& x : omega.data()) x = rng.normal();

  Matrix q = qr_thin(matmul(a, omega)).q;  // m x p
  for (std::size_t it = 0; it < power_iters; ++it) {
    const Matrix z = qr_thin(matmul_tn(a, q)).q;  // n x p
    q = qr_thin(matmul(a, z)).q;
  }
  const Matrix b = matmul_tn(q, a);  // p x n
  SvdResult small = svd(b);
  SvdResult out;
  out.u = matmul(q, small.u.block(0, 0, p, std::min(k, small.u.cols())));
  const std::size_t kk = std::min(k, small.s.size());
  out.s.assign(small.s.begin(), small.s.begin() + static_cast<long>(kk));
  out.v = small.v.block(0, 0, n, kk);
  return out;
}

Matrix svd_reconstruct(const SvdResult& r) {
  Matrix us = r.u;
  for (std::size_t j = 0; j < us.cols(); ++j) {
    auto cj = us.col(j);
    for (double& x : cj) x *= r.s[j];
  }
  return matmul(us, r.v.transposed());
}

}  // namespace deisa::linalg
