#ifndef TSQ_RSTAR_RECT_H_
#define TSQ_RSTAR_RECT_H_

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace tsq::rstar {

/// A point in d-dimensional space.
using Point = std::vector<double>;

/// An axis-aligned d-dimensional rectangle [low_i, high_i] per dimension.
///
/// Used for R*-tree node/entry bounding boxes, for transformation MBRs and
/// for query regions. Degenerate rectangles (low == high) represent points.
class Rect {
 public:
  Rect() = default;

  /// Constructs from explicit bounds. Requires equal sizes and
  /// low[i] <= high[i] for all i.
  Rect(std::span<const double> low, std::span<const double> high);
  Rect(const std::vector<double>& low, const std::vector<double>& high)
      : Rect(std::span<const double>(low), std::span<const double>(high)) {}

  /// A degenerate rectangle covering exactly `point`.
  static Rect FromPoint(const Point& point);

  /// The "empty" rectangle of dimension d (low = +inf, high = -inf), the
  /// identity for Enlarge.
  static Rect Empty(std::size_t dimensions);

  std::size_t dimensions() const { return dims_; }
  bool empty() const;

  double low(std::size_t dim) const { return low_data()[dim]; }
  double high(std::size_t dim) const { return high_data()[dim]; }
  std::span<const double> lows() const { return {low_data(), dims_}; }
  std::span<const double> highs() const { return {high_data(), dims_}; }

  void set_low(std::size_t dim, double v) { low_data()[dim] = v; }
  void set_high(std::size_t dim, double v) { high_data()[dim] = v; }

  /// Side length along `dim` (0 for points, never negative for valid rects).
  double Extent(std::size_t dim) const { return high(dim) - low(dim); }

  /// Product of extents. 0 for degenerate rectangles.
  double Area() const;

  /// Sum of extents (the R*-split "margin" objective).
  double Margin() const;

  /// Center coordinate along `dim`.
  double Center(std::size_t dim) const {
    return 0.5 * (low(dim) + high(dim));
  }

  /// Squared Euclidean distance between the centers of two rects.
  double CenterSquaredDistance(const Rect& other) const;

  /// Closed-interval intersection test.
  bool Intersects(const Rect& other) const;

  /// True when `other` lies fully inside this rect.
  bool Contains(const Rect& other) const;
  bool ContainsPoint(const Point& point) const;

  /// Grows this rect to cover `other`.
  void Enlarge(const Rect& other);

  /// Area increase if this rect were enlarged to cover `other`.
  double Enlargement(const Rect& other) const;

  /// Area of the intersection with `other` (0 when disjoint).
  double OverlapArea(const Rect& other) const;

  /// MINDIST of Roussopoulos et al.: squared distance from `point` to the
  /// nearest face of the rect; 0 if the point is inside. Lower-bounds the
  /// squared distance from `point` to anything inside the rect.
  double MinSquaredDistance(const Point& point) const;

  /// MINMAXDIST of Roussopoulos et al.: the smallest upper bound on the
  /// squared distance from `point` to the nearest *object contained in* the
  /// rect (every face of an R-tree MBR touches at least one object).
  double MinMaxSquaredDistance(const Point& point) const;

  /// "(lo..hi)x(lo..hi)" rendering for diagnostics.
  std::string ToString() const;

  bool operator==(const Rect& other) const;

 private:
  // The bounds are one buffer, the lows then the highs. Up to
  // kInlineDimensions dimensions (every layout of up to three coefficients)
  // it lives inside the object, so copying, growing or decoding a rect
  // allocates nothing; a wider rect keeps it in wide_.
  static constexpr std::size_t kInlineDimensions = 8;

  explicit Rect(std::size_t dimensions);

  double* low_data() { return wide_.empty() ? inline_.data() : wide_.data(); }
  const double* low_data() const {
    return wide_.empty() ? inline_.data() : wide_.data();
  }
  double* high_data() { return low_data() + dims_; }
  const double* high_data() const { return low_data() + dims_; }

  std::size_t dims_ = 0;
  std::array<double, 2 * kInlineDimensions> inline_{};
  std::vector<double> wide_;
};

/// MBR of a set of rectangles. Requires a non-empty span.
Rect BoundingRect(std::span<const Rect> rects);

}  // namespace tsq::rstar

#endif  // TSQ_RSTAR_RECT_H_
