#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vmlp::stats {

Histogram2D::Histogram2D(std::size_t rows, double col_lo, double col_hi, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      lo_(col_lo),
      width_((col_hi - col_lo) / static_cast<double>(cols)),
      counts_(rows * cols, 0.0) {
  VMLP_CHECK(rows > 0 && cols > 0 && col_hi > col_lo);
}

void Histogram2D::add(std::size_t row, double x, double weight) {
  VMLP_CHECK_MSG(row < rows_, "histogram2d row " << row << " >= " << rows_);
  std::size_t col;
  if (x < lo_) {
    col = 0;
  } else {
    col = std::min(static_cast<std::size_t>((x - lo_) / width_), cols_ - 1);
  }
  counts_[row * cols_ + col] += weight;
}

double Histogram2D::count(std::size_t row, std::size_t col) const {
  VMLP_CHECK(row < rows_ && col < cols_);
  return counts_[row * cols_ + col];
}

double Histogram2D::row_total(std::size_t row) const {
  VMLP_CHECK(row < rows_);
  double total = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) total += counts_[row * cols_ + c];
  return total;
}

double Histogram2D::row_fraction(std::size_t row, std::size_t col) const {
  const double total = row_total(row);
  return total == 0.0 ? 0.0 : count(row, col) / total;
}

double Histogram2D::col_lo(std::size_t col) const { return lo_ + width_ * static_cast<double>(col); }
double Histogram2D::col_hi(std::size_t col) const {
  return lo_ + width_ * static_cast<double>(col + 1);
}

}  // namespace vmlp::stats
