#include "rstar/rect.h"

#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace tsq::rstar {
namespace {

Rect MakeRect(std::vector<double> low, std::vector<double> high) {
  return Rect(std::move(low), std::move(high));
}

TEST(RectTest, BasicAccessors) {
  const Rect r = MakeRect({0.0, 1.0}, {2.0, 4.0});
  EXPECT_EQ(r.dimensions(), 2u);
  EXPECT_EQ(r.low(0), 0.0);
  EXPECT_EQ(r.high(1), 4.0);
  EXPECT_EQ(r.Extent(0), 2.0);
  EXPECT_EQ(r.Extent(1), 3.0);
  EXPECT_EQ(r.Area(), 6.0);
  EXPECT_EQ(r.Margin(), 5.0);
  EXPECT_EQ(r.Center(1), 2.5);
}

TEST(RectTest, FromPointIsDegenerate) {
  const Rect r = Rect::FromPoint({1.0, 2.0, 3.0});
  EXPECT_EQ(r.Area(), 0.0);
  EXPECT_EQ(r.low(2), r.high(2));
  EXPECT_FALSE(r.empty());
}

TEST(RectTest, EmptyRect) {
  const Rect r = Rect::Empty(3);
  EXPECT_TRUE(r.empty());
  Rect grown = r;
  grown.Enlarge(Rect::FromPoint({1.0, 2.0, 3.0}));
  EXPECT_FALSE(grown.empty());
  EXPECT_EQ(grown, Rect::FromPoint({1.0, 2.0, 3.0}));
}

TEST(RectTest, IntersectionCases) {
  const Rect a = MakeRect({0.0, 0.0}, {2.0, 2.0});
  EXPECT_TRUE(a.Intersects(MakeRect({1.0, 1.0}, {3.0, 3.0})));
  EXPECT_TRUE(a.Intersects(MakeRect({2.0, 2.0}, {3.0, 3.0})));  // touching
  EXPECT_FALSE(a.Intersects(MakeRect({2.1, 0.0}, {3.0, 2.0})));
  EXPECT_FALSE(a.Intersects(MakeRect({0.0, -2.0}, {2.0, -0.1})));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(RectTest, Containment) {
  const Rect a = MakeRect({0.0, 0.0}, {4.0, 4.0});
  EXPECT_TRUE(a.Contains(MakeRect({1.0, 1.0}, {2.0, 2.0})));
  EXPECT_TRUE(a.Contains(a));
  EXPECT_FALSE(a.Contains(MakeRect({1.0, 1.0}, {5.0, 2.0})));
  EXPECT_TRUE(a.ContainsPoint({0.0, 4.0}));
  EXPECT_FALSE(a.ContainsPoint({-0.1, 2.0}));
}

TEST(RectTest, EnlargeAndEnlargement) {
  Rect a = MakeRect({0.0, 0.0}, {1.0, 1.0});
  EXPECT_NEAR(a.Enlargement(MakeRect({2.0, 0.0}, {3.0, 1.0})), 2.0, 1e-12);
  EXPECT_NEAR(a.Enlargement(MakeRect({0.2, 0.2}, {0.8, 0.8})), 0.0, 1e-12);
  a.Enlarge(MakeRect({2.0, 0.0}, {3.0, 1.0}));
  EXPECT_EQ(a, MakeRect({0.0, 0.0}, {3.0, 1.0}));
}

TEST(RectTest, OverlapArea) {
  const Rect a = MakeRect({0.0, 0.0}, {2.0, 2.0});
  EXPECT_NEAR(a.OverlapArea(MakeRect({1.0, 1.0}, {3.0, 3.0})), 1.0, 1e-12);
  EXPECT_EQ(a.OverlapArea(MakeRect({5.0, 5.0}, {6.0, 6.0})), 0.0);
  EXPECT_NEAR(a.OverlapArea(a), 4.0, 1e-12);
}

TEST(RectTest, MinSquaredDistance) {
  const Rect r = MakeRect({0.0, 0.0}, {2.0, 2.0});
  EXPECT_EQ(r.MinSquaredDistance({1.0, 1.0}), 0.0);  // inside
  EXPECT_NEAR(r.MinSquaredDistance({3.0, 1.0}), 1.0, 1e-12);
  EXPECT_NEAR(r.MinSquaredDistance({3.0, 3.0}), 2.0, 1e-12);
  EXPECT_NEAR(r.MinSquaredDistance({-1.0, -1.0}), 2.0, 1e-12);
}

TEST(RectTest, MinDistLowerBoundsContainedPoints) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> low(3), high(3);
    for (int d = 0; d < 3; ++d) {
      const double a = rng.Uniform(-5.0, 5.0);
      const double b = rng.Uniform(-5.0, 5.0);
      low[d] = std::min(a, b);
      high[d] = std::max(a, b);
    }
    const Rect rect(low, high);
    Point q = {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0),
               rng.Uniform(-8.0, 8.0)};
    Point inside(3);
    for (int d = 0; d < 3; ++d) inside[d] = rng.Uniform(low[d], high[d]);
    double d2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      d2 += (inside[d] - q[d]) * (inside[d] - q[d]);
    }
    EXPECT_LE(rect.MinSquaredDistance(q), d2 + 1e-9);
  }
}

TEST(RectTest, MinMaxDistAtLeastMinDist) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> low(2), high(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.Uniform(-5.0, 5.0);
      const double b = rng.Uniform(-5.0, 5.0);
      low[d] = std::min(a, b);
      high[d] = std::max(a, b);
    }
    const Rect rect(low, high);
    const Point q = {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)};
    EXPECT_GE(rect.MinMaxSquaredDistance(q),
              rect.MinSquaredDistance(q) - 1e-9);
  }
}

TEST(RectTest, MinMaxDistKnownCase) {
  const Rect r = MakeRect({1.0, 0.0}, {2.0, 1.0});
  const Point q = {0.0, 0.5};
  EXPECT_NEAR(r.MinMaxSquaredDistance(q), 1.25, 1e-9);
}

TEST(RectTest, CenterSquaredDistance) {
  const Rect a = MakeRect({0.0, 0.0}, {2.0, 2.0});
  const Rect b = MakeRect({4.0, 1.0}, {6.0, 3.0});
  EXPECT_NEAR(a.CenterSquaredDistance(b), 16.0 + 1.0, 1e-12);
}

TEST(RectTest, BoundingRect) {
  const std::vector<Rect> rects = {MakeRect({0.0}, {1.0}),
                                   MakeRect({5.0}, {6.0}),
                                   MakeRect({-2.0}, {-1.0})};
  EXPECT_EQ(BoundingRect(rects), MakeRect({-2.0}, {6.0}));
}

// Rects of up to eight dimensions keep their bounds inside the object, wider
// ones on the heap; both must behave the same.
TEST(RectTest, WideRectsBehaveLikeNarrowOnes) {
  for (const std::size_t dims : {std::size_t{8}, std::size_t{12}}) {
    std::vector<double> low(dims, 0.0), high(dims, 2.0);
    const Rect a(low, high);
    EXPECT_EQ(a.dimensions(), dims);
    EXPECT_EQ(a.lows().size(), dims);
    EXPECT_EQ(a.high(dims - 1), 2.0);
    EXPECT_EQ(a.Area(), std::pow(2.0, static_cast<double>(dims)));

    Rect copy = a;
    EXPECT_EQ(copy, a);
    copy.set_high(dims - 1, 3.0);
    EXPECT_NE(copy, a);
    EXPECT_EQ(a.high(dims - 1), 2.0);  // the copy owns its bounds
    EXPECT_TRUE(copy.Contains(a));
    EXPECT_EQ(a.OverlapArea(copy), a.Area());

    low.back() = 5.0;
    high.back() = 6.0;
    const Rect b(low, high);
    EXPECT_EQ(a.OverlapArea(b), 0.0);
    Rect grown = a;
    grown.Enlarge(b);
    EXPECT_EQ(grown.low(dims - 1), 0.0);
    EXPECT_EQ(grown.high(dims - 1), 6.0);
    EXPECT_EQ(a.Enlargement(b), grown.Area() - a.Area());

    EXPECT_NE(Rect::FromPoint(low), Rect::FromPoint({0.0}));
    const Rect empty = Rect::Empty(dims);
    EXPECT_TRUE(empty.empty());
  }
}

TEST(RectTest, ToStringIsReadable) {
  EXPECT_EQ(MakeRect({0.0, 1.0}, {2.0, 3.0}).ToString(), "(0..2)x(1..3)");
}

TEST(RectDeathTest, MismatchedBoundsRejected) {
  EXPECT_DEATH(Rect({0.0, 1.0}, {2.0}), "CHECK failed");
}

}  // namespace
}  // namespace tsq::rstar
