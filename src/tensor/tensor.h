// Dense row-major float32 tensor.
//
// This is the numeric substrate for the whole library: contiguous storage,
// shared ownership of the buffer (copies are cheap shallow copies; ops
// allocate fresh outputs), N-d shapes with NumPy-style broadcasting in the
// binary ops (see tensor/ops.h).
#ifndef RTGCN_TENSOR_TENSOR_H_
#define RTGCN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

namespace rtgcn {

using Shape = std::vector<int64_t>;

/// Number of elements for a shape.
int64_t ShapeNumel(const Shape& shape);

/// Human-readable "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// Row-major strides (in elements) for a shape.
std::vector<int64_t> RowMajorStrides(const Shape& shape);

/// \brief Contiguous float32 tensor with shared storage.
///
/// An empty (default-constructed) tensor has zero dimensions and no storage;
/// `defined()` distinguishes it from a 0-d scalar.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-filled tensor of `shape`.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        numel_(ShapeNumel(shape_)),
        data_(std::make_shared<float[]>(static_cast<size_t>(numel_))) {}

  /// Takes over an existing buffer; `values.size()` must match the shape.
  Tensor(Shape shape, std::vector<float> values);

  /// Allocates a tensor of `shape` whose elements are left uninitialized,
  /// for an output whose every element the caller then writes.
  static Tensor Uninitialized(Shape shape);
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// 0-d scalar tensor.
  static Tensor Scalar(float value);
  /// Identity matrix [n, n].
  static Tensor Eye(int64_t n);
  /// 1-d tensor [n] with values 0, 1, ..., n-1.
  static Tensor Arange(int64_t n);

  bool defined() const { return data_ != nullptr; }
  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t numel() const { return numel_; }
  int64_t dim(int64_t axis) const {
    RTGCN_DCHECK(axis >= 0 && axis < ndim()) << "axis " << axis;
    return shape_[axis];
  }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  /// Deep copy of storage.
  Tensor Clone() const;

  /// True when no other tensor shares this tensor's storage.
  bool sole_owner() const { return data_.use_count() == 1; }

  /// Shares storage under a new shape; numel must match. One dimension may
  /// be -1 (inferred).
  Tensor Reshape(Shape new_shape) const;

  /// Value of a 0-d or 1-element tensor.
  float item() const {
    RTGCN_CHECK_EQ(numel(), 1) << "item() on tensor " << ShapeToString(shape_);
    return data_[0];
  }

  // Element accessors. Cost: O(ndim) index arithmetic; use data() in kernels.
  float& at(std::initializer_list<int64_t> idx) {
    return data_[FlatIndex(idx)];
  }
  float at(std::initializer_list<int64_t> idx) const {
    return data_[FlatIndex(idx)];
  }

  /// In-place fill.
  void Fill(float value);

  std::string ToString(int64_t max_elems = 32) const;

 private:
  int64_t FlatIndex(std::initializer_list<int64_t> idx) const;

  Shape shape_;
  int64_t numel_ = 0;
  std::shared_ptr<float[]> data_;
};

}  // namespace rtgcn

#endif  // RTGCN_TENSOR_TENSOR_H_
