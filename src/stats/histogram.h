// Fixed-bin 2-D histogram: the communication-time heat map of Fig. 4
// (callee × latency-range frequency).
#pragma once

#include <cstddef>
#include <vector>

namespace vmlp::stats {

/// Row-major 2-D frequency table: rows are categories (e.g. callee service),
/// columns are uniform value bins (e.g. latency ranges).
class Histogram2D {
 public:
  Histogram2D(std::size_t rows, double col_lo, double col_hi, std::size_t cols);

  void add(std::size_t row, double x, double weight = 1.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] double count(std::size_t row, std::size_t col) const;
  [[nodiscard]] double row_total(std::size_t row) const;
  /// Frequency of (row, col) relative to the row's total, as plotted in Fig. 4.
  [[nodiscard]] double row_fraction(std::size_t row, std::size_t col) const;
  [[nodiscard]] double col_lo(std::size_t col) const;
  [[nodiscard]] double col_hi(std::size_t col) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  double lo_;
  double width_;
  std::vector<double> counts_;  // rows_ * cols_
};

}  // namespace vmlp::stats
