// Unit tests for src/tensor: Tensor semantics and layout transforms.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/layout.h"
#include "tensor/tensor.h"

namespace igc {
namespace {

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros(Shape{2, 3});
  for (float v : z.span_f32()) EXPECT_EQ(v, 0.0f);
  Tensor f = Tensor::full(Shape{4}, 2.5f);
  for (float v : f.span_f32()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, CopyAliasesCloneDoesNot) {
  Tensor a = Tensor::zeros(Shape{4});
  Tensor alias = a;
  Tensor deep = a.clone();
  a.data_f32()[0] = 7.0f;
  EXPECT_EQ(alias.data_f32()[0], 7.0f);
  EXPECT_EQ(deep.data_f32()[0], 0.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Rng rng(1);
  Tensor a = Tensor::random_uniform(Shape{2, 6}, rng);
  Tensor b = a.reshape(Shape{3, 4});
  EXPECT_EQ(b.shape(), Shape({3, 4}));
  EXPECT_EQ(a.data_f32()[5], b.data_f32()[5]);
  EXPECT_THROW(a.reshape(Shape{5}), Error);
}

TEST(Tensor, FromVectorAndMaxAbsDiff) {
  Tensor a = Tensor::from_vector(Shape{3}, {1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::from_vector(Shape{3}, {1.0f, 2.5f, 3.0f});
  EXPECT_FLOAT_EQ(a.max_abs_diff(b), 0.5f);
  EXPECT_FLOAT_EQ(a.max_abs_diff(a), 0.0f);
}

TEST(Tensor, RandomIsDeterministicPerSeed) {
  Rng r1(42), r2(42);
  Tensor a = Tensor::random_uniform(Shape{64}, r1);
  Tensor b = Tensor::random_uniform(Shape{64}, r2);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
}

TEST(Tensor, Int32Accessors) {
  Tensor t = Tensor::from_vector_i32(Shape{3}, {5, -2, 9});
  EXPECT_EQ(t.data_i32()[2], 9);
  EXPECT_THROW(t.data_f32(), Error);
}

TEST(Layout, Names) {
  EXPECT_EQ(Layout::nchw().str(), "NCHW");
  EXPECT_EQ(Layout::nchwc(8).str(), "NCHW8c");
  EXPECT_THROW(Layout::nchwc(1), Error);
}

TEST(Layout, BlockedRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::random_uniform(Shape{2, 16, 5, 7}, rng);
  for (int block : {2, 4, 8, 16}) {
    Tensor blocked = nchw_to_nchwc(a, block);
    EXPECT_EQ(blocked.shape(), Shape({2, 16 / block, 5, 7, block}));
    Tensor back = nchwc_to_nchw(blocked);
    EXPECT_EQ(a.max_abs_diff(back), 0.0f) << "block=" << block;
  }
}

TEST(Layout, BlockedLayoutPlacesChannelsInnermost) {
  // 1x4x1x1 with values 0..3: NCHW4c must be identical vector (single cell).
  Tensor a = Tensor::from_vector(Shape{1, 4, 1, 1}, {0, 1, 2, 3});
  Tensor blocked = nchw_to_nchwc(a, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(blocked.data_f32()[i], static_cast<float>(i));
  }
}

TEST(Layout, IndivisibleChannelsRejected) {
  Tensor a = Tensor::zeros(Shape{1, 6, 2, 2});
  EXPECT_THROW(nchw_to_nchwc(a, 4), Error);
}

}  // namespace
}  // namespace igc
