#include "tensor/tensor.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace rtgcn {

namespace {

#if defined(__GLIBC__)
// A train step allocates and frees megabytes of tensor storage. Under
// glibc's dynamic thresholds, whether the heap top is trimmed back to the
// OS at the end of each step depends on where the few long-lived blocks
// land, so some processes re-fault ~8 MB per N = 840 step (~2000 minor
// faults) and run at half speed. Fixed thresholds keep freed storage in
// the heap: blocks up to 32 MB come from it, and it is trimmed only when
// 64 MB sit free at its top.
[[maybe_unused]] const bool kHeapKeepsTensorStorage = [] {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  return true;
}();
#endif

}  // namespace

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    RTGCN_CHECK_GE(d, 0) << "negative dimension in " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) oss << ", ";
    oss << shape[i];
  }
  oss << "]";
  return oss.str();
}

std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (int64_t i = static_cast<int64_t>(shape.size()) - 1; i >= 0; --i) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), numel_(ShapeNumel(shape_)) {
  RTGCN_CHECK_EQ(static_cast<int64_t>(values.size()), numel_)
      << "buffer size does not match shape " << ShapeToString(shape_);
  // The vector stays the owner; data_ aliases its buffer, so no copy.
  auto owner = std::make_shared<std::vector<float>>(std::move(values));
  data_ = std::shared_ptr<float[]>(owner, owner->data());
}

Tensor Tensor::Uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = ShapeNumel(t.shape_);
  t.data_ = std::make_shared_for_overwrite<float[]>(
      static_cast<size_t>(t.numel_));
  return t;
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Uninitialized(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape{}};
  *t.data() = value;
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t = Zeros({n, n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i * n + i] = 1.0f;
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t({n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::Clone() const {
  RTGCN_CHECK(defined());
  Tensor t = Uninitialized(shape_);
  std::copy_n(data_.get(), numel_, t.data_.get());
  return t;
}

Tensor Tensor::Reshape(Shape new_shape) const {
  RTGCN_CHECK(defined());
  int64_t known = 1;
  int64_t infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      RTGCN_CHECK_EQ(infer_axis, -1) << "multiple -1 dims in reshape";
      infer_axis = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    RTGCN_CHECK(known > 0 && numel() % known == 0)
        << "cannot infer reshape " << ShapeToString(new_shape) << " from "
        << ShapeToString(shape_);
    new_shape[infer_axis] = numel() / known;
  }
  RTGCN_CHECK_EQ(ShapeNumel(new_shape), numel())
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  out.data_ = data_;
  return out;
}

void Tensor::Fill(float value) {
  RTGCN_CHECK(defined());
  std::fill_n(data_.get(), numel_, value);
}

int64_t Tensor::FlatIndex(std::initializer_list<int64_t> idx) const {
  RTGCN_DCHECK(static_cast<int64_t>(idx.size()) == ndim())
      << "index rank " << idx.size() << " vs tensor rank " << ndim();
  int64_t flat = 0;
  int64_t axis = 0;
  for (int64_t i : idx) {
    RTGCN_DCHECK(i >= 0 && i < shape_[axis])
        << "index " << i << " out of bounds for axis " << axis << " with size "
        << shape_[axis];
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

std::string Tensor::ToString(int64_t max_elems) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream oss;
  oss << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) oss << ", ";
    oss << data_[i];
  }
  if (numel() > n) oss << ", ...";
  oss << "}";
  return oss.str();
}

}  // namespace rtgcn
