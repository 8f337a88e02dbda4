// Matrix decompositions: Householder QR, one-sided Jacobi SVD (full, and
// right-only for the PCA updates), and the randomized truncated SVD of
// Halko et al.
#pragma once

#include <cstdint>
#include <vector>

#include "deisa/linalg/matrix.hpp"

namespace deisa::linalg {

struct QrResult {
  Matrix q;  // m x n, orthonormal columns (thin)
  Matrix r;  // n x n, upper triangular
};

/// Thin Householder QR of an m x n matrix with m >= n.
QrResult qr_thin(const Matrix& a);

struct SvdResult {
  Matrix u;               // m x k, orthonormal columns
  std::vector<double> s;  // k singular values, descending
  Matrix v;               // n x k, orthonormal columns (A = U diag(s) V^T)
};

/// Full thin SVD by one-sided Jacobi (robust, O(mn^2) per sweep).
/// Works for any m, n (internally transposes when m < n).
SvdResult svd(const Matrix& a);

struct RightSvdResult {
  std::vector<double> s;  // min(m, n) singular values, descending
  Matrix v;               // n x min(m, n), right singular vectors
};

/// Exact s and V of an m x n matrix, without U: the same one-sided Jacobi
/// as svd(), run on a matrix whose columns converge to V diag(s) — the
/// n x n R^T of an R-only Householder QR when m > n, A^T when m <= n — so
/// neither U nor V is accumulated. s matches svd() to rounding. When
/// m >= n, V is square and orthogonal: columns of exactly-zero singular
/// values are completed to an orthonormal basis. When m < n, those columns
/// are zero, as in svd().
RightSvdResult svd_right(const Matrix& a);

/// Randomized truncated SVD: rank-k approximation with `oversample` extra
/// probe vectors and `power_iters` subspace iterations (Halko, Martinsson,
/// Tropp 2011). Deterministic for a fixed seed.
SvdResult randomized_svd(const Matrix& a, std::size_t k,
                         std::size_t oversample = 10,
                         std::size_t power_iters = 2,
                         std::uint64_t seed = 0x5eed);

/// Reconstruct U * diag(s) * V^T (tests and error measures).
Matrix svd_reconstruct(const SvdResult& r);

}  // namespace deisa::linalg
