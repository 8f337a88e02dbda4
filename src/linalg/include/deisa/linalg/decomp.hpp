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
  Matrix v;               // n x min(vectors, m, n), leading right vectors
};

/// Exact s and the leading `vectors` columns of V of an m x n matrix,
/// without U: the same one-sided Jacobi as svd() over the still-nonzero
/// columns of a matrix that converges to V diag(s) — the n x n R^T of an
/// R-only Householder QR when m > n, A^T when m <= n — so neither U nor V
/// is accumulated. s is the whole spectrum, matching svd() to rounding; a
/// kept V column has the same bits whatever `vectors` is. When m >= n,
/// columns of exactly-zero singular values are completed to orthonormal
/// vectors; when m < n, they are zero, as in svd().
RightSvdResult svd_right(const Matrix& a, std::size_t vectors);

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
