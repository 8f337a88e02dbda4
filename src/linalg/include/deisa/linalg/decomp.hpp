// Matrix decompositions: Householder QR and one-sided Jacobi SVD (full,
// and right-only for the PCA updates).
#pragma once

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

}  // namespace deisa::linalg
