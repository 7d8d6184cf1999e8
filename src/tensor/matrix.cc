#include "tensor/matrix.h"

#include <algorithm>

#include "util/string_util.h"

namespace hosr::tensor {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    HOSR_CHECK(rows[r].size() == m.cols()) << "ragged rows";
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

void Matrix::Reshape(size_t rows, size_t cols) {
  if (rows * cols > data_.capacity()) {
    data_ = {};  // free the old storage before taking the new
    data_.reserve(rows * cols);
  }
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Matrix::ToString(size_t max_rows) const {
  std::string out = util::StrFormat("Matrix %zux%zu [", rows_, cols_);
  const size_t show = std::min(rows_, max_rows);
  for (size_t r = 0; r < show; ++r) {
    out += r == 0 ? "[" : ", [";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += util::StrFormat("%.4g", (*this)(r, c));
    }
    out += "]";
  }
  if (show < rows_) out += ", ...";
  out += "]";
  return out;
}

}  // namespace hosr::tensor
