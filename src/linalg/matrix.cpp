#include "deisa/linalg/matrix.hpp"

#include <cmath>

#include "deisa/util/error.hpp"

namespace deisa::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t nr = rows.size();
  DEISA_CHECK(nr > 0, "from_rows needs at least one row");
  const std::size_t nc = rows.begin()->size();
  Matrix m(nr, nc);
  std::size_t i = 0;
  for (const auto& r : rows) {
    DEISA_CHECK(r.size() == nc, "ragged rows in from_rows");
    std::size_t j = 0;
    for (double v : r) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_row_major(std::size_t rows, std::size_t cols,
                              std::span<const double> values) {
  DEISA_CHECK(values.size() == rows * cols,
              "from_row_major size mismatch: " << values.size() << " values "
                                               << "for " << rows << "x"
                                               << cols);
  Matrix m(rows, cols);
  const double* src = values.data();
  for (std::size_t j = 0; j < cols; ++j) {
    const auto mj = m.col(j);
    const double* sp = src + j;
    for (std::size_t i = 0; i < rows; ++i) {
      mj[i] = *sp;
      sp += cols;
    }
  }
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t j = 0; j < cols_; ++j) {
    const auto src = col(j);
    double* dst = t.data().data() + j;
    for (std::size_t i = 0; i < rows_; ++i) dst[i * cols_] = src[i];
  }
  return t;
}

Matrix Matrix::vstack(const Matrix& below) const {
  if (empty()) return below;
  if (below.empty()) return *this;
  DEISA_CHECK(cols_ == below.cols_, "vstack column mismatch: "
                                        << cols_ << " vs " << below.cols_);
  Matrix out(rows_ + below.rows_, cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    const auto a = col(j);
    const auto b = below.col(j);
    const auto o = out.col(j);
    std::copy(a.begin(), a.end(), o.begin());
    std::copy(b.begin(), b.end(),
              o.begin() + static_cast<std::ptrdiff_t>(rows_));
  }
  return out;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  DEISA_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_,
              "block out of range: (" << r0 << "," << c0 << ")+(" << nr << ","
                                      << nc << ") in " << rows_ << "x"
                                      << cols_);
  Matrix out(nr, nc);
  for (std::size_t j = 0; j < nc; ++j) {
    const auto src = col(c0 + j).subspan(r0, nr);
    std::copy(src.begin(), src.end(), out.col(j).begin());
  }
  return out;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  DEISA_CHECK(a.cols() == b.rows(), "matmul shape mismatch: "
                                        << a.rows() << "x" << a.cols() << " * "
                                        << b.rows() << "x" << b.cols());
  Matrix c(a.rows(), b.cols());
  // j-i-tiled-k loops over the raw column spans: for each output column,
  // a tile of c's rows stays register/L1-resident while the whole k sweep
  // runs over it. Per output element the k additions still happen in
  // ascending k order (and zero b(k,j) terms are still skipped), so the
  // result is bit-identical to the untiled j-k-i kernel.
  constexpr std::size_t kRowTile = 256;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double* ad = a.data().data();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    double* cj = c.col(j).data();
    const double* bj = b.col(j).data();
    for (std::size_t i0 = 0; i0 < m; i0 += kRowTile) {
      const std::size_t i1 = std::min(m, i0 + kRowTile);
      for (std::size_t k = 0; k < n; ++k) {
        const double bkj = bj[k];
        if (bkj == 0.0) continue;
        const double* ak = ad + k * m;
        for (std::size_t i = i0; i < i1; ++i) cj[i] += ak[i] * bkj;
      }
    }
  }
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  DEISA_CHECK(a.rows() == b.rows(), "matmul_tn shape mismatch");
  Matrix c(a.cols(), b.cols());
  // Both operands are read column-wise (contiguous spans); each output
  // element is one sequential dot, so accumulation order is unchanged.
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const auto bj = b.col(j);
    double* cj = c.col(j).data();
    for (std::size_t i = 0; i < a.cols(); ++i) cj[i] = dot(a.col(i), bj);
  }
  return c;
}

double dot(std::span<const double> a, std::span<const double> b) {
  DEISA_CHECK(a.size() == b.size(), "dot length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  DEISA_CHECK(a.same_shape(b), "max_abs_diff shape mismatch");
  double m = 0.0;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i)
    m = std::max(m, std::abs(ad[i] - bd[i]));
  return m;
}

}  // namespace deisa::linalg
