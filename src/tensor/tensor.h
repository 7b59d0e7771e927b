// Dense host tensors with shared ownership.
//
// Tensors are the currency of the whole stack: graph edges, operator inputs
// and outputs, and model weights. Data always lives in host memory; the GPU
// simulator charges *time* for device traffic but computes on these buffers.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/dtype.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/shape.h"

namespace igc {

/// A reference-counted dense tensor. Copying a Tensor aliases the buffer;
/// use clone() for a deep copy.
class Tensor {
 public:
  Tensor() = default;
  Tensor(Shape shape, DType dtype);

  static Tensor zeros(Shape shape, DType dtype = DType::kFloat32);
  static Tensor full(Shape shape, float value);
  /// Uniform values in [lo, hi) from a caller-provided deterministic rng.
  static Tensor random_uniform(Shape shape, Rng& rng, float lo = -1.0f,
                               float hi = 1.0f);
  /// Gaussian values with the given std from a deterministic rng.
  static Tensor random_normal(Shape shape, Rng& rng, float stddev = 0.1f);
  static Tensor from_vector(Shape shape, const std::vector<float>& values);
  static Tensor from_vector_i32(Shape shape, const std::vector<int32_t>& values);
  /// Views caller-owned storage (e.g. a PagedArena page run) as a tensor.
  /// `capacity_bytes` is the usable size of `data`; it must fit the shape.
  static Tensor wrap(Shape shape, DType dtype, std::shared_ptr<char[]> data,
                     int64_t capacity_bytes);

  bool defined() const { return data_ != nullptr; }
  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  int64_t numel() const { return shape_.numel(); }
  int64_t nbytes() const { return numel() * dtype_bytes(dtype_); }

  float* data_f32() {
    IGC_CHECK(dtype_ == DType::kFloat32);
    return reinterpret_cast<float*>(data_.get());
  }
  const float* data_f32() const {
    IGC_CHECK(dtype_ == DType::kFloat32);
    return reinterpret_cast<const float*>(data_.get());
  }
  int32_t* data_i32() {
    IGC_CHECK(dtype_ == DType::kInt32);
    return reinterpret_cast<int32_t*>(data_.get());
  }
  const int32_t* data_i32() const {
    IGC_CHECK(dtype_ == DType::kInt32);
    return reinterpret_cast<const int32_t*>(data_.get());
  }
  void* raw_data() { return data_.get(); }
  const void* raw_data() const { return data_.get(); }

  std::span<float> span_f32() { return {data_f32(), static_cast<size_t>(numel())}; }
  std::span<const float> span_f32() const {
    return {data_f32(), static_cast<size_t>(numel())};
  }
  std::span<int32_t> span_i32() { return {data_i32(), static_cast<size_t>(numel())}; }
  std::span<const int32_t> span_i32() const {
    return {data_i32(), static_cast<size_t>(numel())};
  }

  /// Deep copy.
  Tensor clone() const;

  /// Same buffer viewed with a different shape (numel must match).
  Tensor reshape(Shape new_shape) const;

  /// Element access helpers for rank-4 tensors (the common conv case).
  float& at4(int64_t a, int64_t b, int64_t c, int64_t d) {
    return data_f32()[offset4(a, b, c, d)];
  }
  float at4(int64_t a, int64_t b, int64_t c, int64_t d) const {
    return data_f32()[offset4(a, b, c, d)];
  }

  /// Max absolute elementwise difference against another tensor of the same
  /// shape and dtype (float32 only).
  float max_abs_diff(const Tensor& other) const;

 private:
  int64_t offset4(int64_t a, int64_t b, int64_t c, int64_t d) const {
    IGC_DCHECK(shape_.ndim() == 4);
    return ((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d;
  }

  Shape shape_;
  DType dtype_ = DType::kFloat32;
  std::shared_ptr<char[]> data_;
};

}  // namespace igc
