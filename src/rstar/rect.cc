#include "rstar/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace tsq::rstar {

Rect::Rect(std::size_t dimensions) : dims_(dimensions) {
  if (dimensions > kInlineDimensions) wide_.resize(2 * dimensions);
}

Rect::Rect(std::span<const double> low, std::span<const double> high)
    : Rect(low.size()) {
  TSQ_CHECK_EQ(low.size(), high.size());
  std::copy(low.begin(), low.end(), low_data());
  std::copy(high.begin(), high.end(), high_data());
  for (std::size_t d = 0; d < dims_; ++d) {
    TSQ_DCHECK(low[d] <= high[d])
        << "invalid rect bounds in dim " << d << ": " << low[d] << " > "
        << high[d];
  }
}

Rect Rect::FromPoint(const Point& point) {
  return Rect(point, point);
}

Rect Rect::Empty(std::size_t dimensions) {
  Rect r(dimensions);
  std::fill_n(r.low_data(), dimensions,
              std::numeric_limits<double>::infinity());
  std::fill_n(r.high_data(), dimensions,
              -std::numeric_limits<double>::infinity());
  return r;
}

bool Rect::empty() const {
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (low(d) > high(d)) return true;
  }
  return dimensions() == 0;
}

double Rect::Area() const {
  double area = 1.0;
  for (std::size_t d = 0; d < dimensions(); ++d) area *= Extent(d);
  return area;
}

double Rect::Margin() const {
  double margin = 0.0;
  for (std::size_t d = 0; d < dimensions(); ++d) margin += Extent(d);
  return margin;
}

double Rect::CenterSquaredDistance(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  double acc = 0.0;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    const double diff = Center(d) - other.Center(d);
    acc += diff * diff;
  }
  return acc;
}

bool Rect::Intersects(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (low(d) > other.high(d) || other.low(d) > high(d)) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (other.low(d) < low(d) || other.high(d) > high(d)) return false;
  }
  return true;
}

bool Rect::ContainsPoint(const Point& point) const {
  TSQ_DCHECK(dimensions() == point.size());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (point[d] < low(d) || point[d] > high(d)) return false;
  }
  return true;
}

void Rect::Enlarge(const Rect& other) {
  TSQ_DCHECK(dimensions() == other.dimensions());
  double* low = low_data();
  double* high = high_data();
  for (std::size_t d = 0; d < dimensions(); ++d) {
    low[d] = std::min(low[d], other.low(d));
    high[d] = std::max(high[d], other.high(d));
  }
}

double Rect::Enlargement(const Rect& other) const {
  Rect grown = *this;
  grown.Enlarge(other);
  return grown.Area() - Area();
}

double Rect::OverlapArea(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  double area = 1.0;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    const double lo = std::max(low(d), other.low(d));
    const double hi = std::min(high(d), other.high(d));
    if (lo > hi) return 0.0;
    area *= hi - lo;
  }
  return area;
}

double Rect::MinSquaredDistance(const Point& point) const {
  TSQ_DCHECK(dimensions() == point.size());
  double acc = 0.0;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    double diff = 0.0;
    if (point[d] < low(d)) {
      diff = low(d) - point[d];
    } else if (point[d] > high(d)) {
      diff = point[d] - high(d);
    }
    acc += diff * diff;
  }
  return acc;
}

double Rect::MinMaxSquaredDistance(const Point& point) const {
  TSQ_DCHECK(dimensions() == point.size());
  const std::size_t dims = dimensions();
  TSQ_DCHECK(dims > 0);
  // Precompute per-dimension contributions.
  // rm_k = distance to the nearer face along k; rM_k = to the farther face.
  std::vector<double> rm2(dims), rM2(dims);
  double total_rM2 = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double mid = Center(d);
    const double rm = point[d] <= mid ? low(d) : high(d);
    const double rM = point[d] >= mid ? low(d) : high(d);
    rm2[d] = (point[d] - rm) * (point[d] - rm);
    rM2[d] = (point[d] - rM) * (point[d] - rM);
    total_rM2 += rM2[d];
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < dims; ++d) {
    best = std::min(best, total_rM2 - rM2[d] + rm2[d]);
  }
  return best;
}

std::string Rect::ToString() const {
  std::ostringstream os;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (d > 0) os << "x";
    os << "(" << low(d) << ".." << high(d) << ")";
  }
  return os.str();
}

bool Rect::operator==(const Rect& other) const {
  return std::ranges::equal(lows(), other.lows()) &&
         std::ranges::equal(highs(), other.highs());
}

Rect BoundingRect(std::span<const Rect> rects) {
  TSQ_CHECK(!rects.empty());
  Rect out = rects.front();
  for (std::size_t i = 1; i < rects.size(); ++i) out.Enlarge(rects[i]);
  return out;
}

}  // namespace tsq::rstar
