#ifndef HOSR_TENSOR_MATRIX_H_
#define HOSR_TENSOR_MATRIX_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/logging.h"

namespace hosr::tensor {

namespace internal {

// Leaves the elements a resize adds uninitialized, so a Reshape within
// the storage costs no fill pass; every other construction is unchanged.
template <typename T>
struct NoFillAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoFillAllocator<U>;
  };
  // Hides std::allocator's construct: a fill value is still placed by
  // allocator_traits, a value-initialization is not.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace internal

// Dense row-major float matrix. This is the single tensor type the entire
// library is built on: embeddings are (n x d) matrices, vectors are (1 x d)
// or (n x 1) matrices. Copyable (deep copy) and movable.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill_value = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill_value) {}

  // Builds from nested init-list-like rows; all rows must be equally long.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* row(size_t r) {
    HOSR_CHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* row(size_t r) const {
    HOSR_CHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float& at(size_t r, size_t c) {
    HOSR_CHECK(r < rows_ && c < cols_) << r << "," << c << " in " << rows_
                                       << "x" << cols_;
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    HOSR_CHECK(r < rows_ && c < cols_) << r << "," << c << " in " << rows_
                                       << "x" << cols_;
    return data_[r * cols_ + c];
  }

  // Unchecked fast path for inner loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  // Floats the storage holds without reallocating.
  size_t capacity() const { return data_.capacity(); }

  // Becomes rows x cols, reusing the storage when its capacity suffices
  // (allocating exactly rows * cols otherwise). Element values are
  // unspecified afterwards: callers overwrite or SetZero.
  void Reshape(size_t rows, size_t cols);

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Debug rendering, e.g. "[[1, 2], [3, 4]]" (rows capped for large mats).
  std::string ToString(size_t max_rows = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float, internal::NoFillAllocator<float>> data_;
};

}  // namespace hosr::tensor

#endif  // HOSR_TENSOR_MATRIX_H_
