// Tests for tensor/shape and tensor/tensor.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace dcn {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, ScalarShape) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, StridesRowMajor) {
  const Shape s{2, 3, 4};
  const auto strides = s.strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, EqualityAndNegativeDims) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_THROW(Shape({-1, 2}), Error);
  EXPECT_THROW(Shape(std::vector<std::int64_t>{3, -4}), Error);
}

TEST(Shape, AxisOutOfRangeThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillValueConstructor) {
  const Tensor t(Shape{4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, AdoptDataValidatesSize) {
  EXPECT_NO_THROW(Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3}), Error);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t(Shape{2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
  EXPECT_THROW(t.at({1}), Error);  // wrong rank
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = arange(6);
  t.reshape(Shape{2, 3});
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_THROW(t.reshape(Shape{4}), Error);
}

TEST(Tensor, ReshapedCopies) {
  const Tensor t = arange(4);
  Tensor r = t.reshaped(Shape{2, 2});
  r[0] = 100.0f;
  EXPECT_EQ(t[0], 0.0f);  // original untouched
}

TEST(Tensor, FillNormalStatistics) {
  Rng rng(3);
  Tensor t(Shape{10000});
  t.fill_normal(rng, 1.0f, 0.5f);
  double sum = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) sum += t[i];
  EXPECT_NEAR(sum / t.numel(), 1.0, 0.05);
}

TEST(Tensor, FillUniformBounds) {
  Rng rng(3);
  Tensor t(Shape{1000});
  t.fill_uniform(rng, -1.0f, 1.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -1.0f);
    EXPECT_LT(t[i], 1.0f);
  }
}

TEST(Tensor, Factories) {
  EXPECT_EQ(ones(Shape{3})[1], 1.0f);
  EXPECT_EQ(full(Shape{2}, 9.0f)[0], 9.0f);
  const Tensor a = arange(5);
  EXPECT_EQ(a[4], 4.0f);
}

TEST(Tensor, ToStringTruncates) {
  const Tensor t = arange(100);
  const std::string s = t.to_string(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("[100]"), std::string::npos);
}

}  // namespace
}  // namespace dcn
