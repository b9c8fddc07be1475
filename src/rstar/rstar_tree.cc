#include "rstar/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>

#include "common/check.h"

namespace tsq::rstar {

namespace {

// Node page layout: [u16 magic][u16 level][u32 count][entries...], entry =
// [u64 id][dim f64 lows][dim f64 highs].
constexpr std::uint16_t kNodeMagic = 0x5254;  // "RT"
constexpr std::size_t kHeaderSize = 8;

// Deep-enough bound for reinsertion bookkeeping; R-tree height is
// logarithmic, so 64 levels can never be reached.
constexpr std::size_t kMaxLevels = 64;

// How much more the child entries[i] overlaps its siblings once grown to
// cover `rect`: the sum over siblings j of area(grown & j) - area(child & j).
// Every term is >= 0, so the partial sums never decrease; the sum stops,
// with a value >= `bound`, once it reaches `bound`. A term is exactly 0 - 0,
// and skipped, for a sibling the grown child does not overlap (the child
// lies inside it, so it does not overlap the sibling either), and every term
// is 0 - 0 for a child that already covers `rect`.
double OverlapEnlargement(const std::vector<Entry>& entries, std::size_t i,
                          const Rect& rect, double bound) {
  const Rect& child = entries[i].rect;
  if (child.Contains(rect)) return 0.0;
  Rect grown = child;
  grown.Enlarge(rect);
  double sum = 0.0;
  for (std::size_t j = 0; j < entries.size() && sum < bound; ++j) {
    if (j == i) continue;
    const double grown_overlap = grown.OverlapArea(entries[j].rect);
    if (grown_overlap == 0.0) continue;
    sum += grown_overlap - child.OverlapArea(entries[j].rect);
  }
  return sum;
}

}  // namespace

RStarTree::RStarTree(storage::PageFile* file, std::size_t dimensions,
                     TreeOptions options)
    : file_(file), dimensions_(dimensions), options_(options) {
  TSQ_CHECK(file != nullptr);
  TSQ_CHECK_GE(dimensions, std::size_t{1});
  const std::size_t entry_size = sizeof(std::uint64_t) +
                                 2 * dimensions_ * sizeof(double);
  const std::size_t fit = (storage::kPageSize - kHeaderSize) / entry_size;
  capacity_ = options_.capacity_override > 0
                  ? options_.capacity_override
                  : static_cast<std::uint32_t>(fit);
  TSQ_CHECK_GE(capacity_, 4u) << "page too small for dimension "
                              << dimensions_;
  TSQ_CHECK(options_.capacity_override == 0 || options_.capacity_override <= fit)
      << "capacity override does not fit in a page";
  min_fill_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(options_.min_fill_fraction *
                                    static_cast<double>(capacity_)));
  // The split algorithm needs 2*min_fill <= capacity + 1.
  min_fill_ = std::min(min_fill_, (capacity_ + 1) / 2);
}

// --- node I/O ----------------------------------------------------------------

Status RStarTree::SerializeNode(const Node& node, storage::Page* page) const {
  TSQ_CHECK_LE(node.entries.size(), static_cast<std::size_t>(capacity_) + 1);
  std::uint8_t* out = page->bytes.data();
  std::memset(out, 0, storage::kPageSize);
  const std::uint16_t level = static_cast<std::uint16_t>(node.level);
  const std::uint32_t count = static_cast<std::uint32_t>(node.entries.size());
  std::memcpy(out + 0, &kNodeMagic, 2);
  std::memcpy(out + 2, &level, 2);
  std::memcpy(out + 4, &count, 4);
  std::size_t cursor = kHeaderSize;
  for (const Entry& entry : node.entries) {
    TSQ_CHECK_EQ(entry.rect.dimensions(), dimensions_);
    std::memcpy(out + cursor, &entry.id, sizeof entry.id);
    cursor += sizeof entry.id;
    std::memcpy(out + cursor, entry.rect.lows().data(),
                dimensions_ * sizeof(double));
    cursor += dimensions_ * sizeof(double);
    std::memcpy(out + cursor, entry.rect.highs().data(),
                dimensions_ * sizeof(double));
    cursor += dimensions_ * sizeof(double);
  }
  if (cursor > storage::kPageSize) {
    return Status::Internal("serialized node exceeds page size");
  }
  return Status::Ok();
}

Status RStarTree::DeserializeNode(storage::PageId id,
                                  const storage::Page& page, Node* out) const {
  const std::uint8_t* in = page.bytes.data();
  std::uint16_t magic = 0;
  std::uint16_t level = 0;
  std::uint32_t count = 0;
  std::memcpy(&magic, in + 0, 2);
  std::memcpy(&level, in + 2, 2);
  std::memcpy(&count, in + 4, 4);
  if (magic != kNodeMagic) {
    return Status::Corruption("page is not an R*-tree node");
  }
  if (count > capacity_ + 1) {
    return Status::Corruption("node entry count exceeds capacity");
  }
  out->self = id;
  out->level = level;
  out->entries.clear();
  out->entries.reserve(count);
  // An entry's lows and highs sit next to each other, as in a Rect.
  std::vector<double> bounds(2 * dimensions_);
  const std::span<const double> lows(bounds.data(), dimensions_);
  const std::span<const double> highs(bounds.data() + dimensions_,
                                      dimensions_);
  std::size_t cursor = kHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t entry_id = 0;
    std::memcpy(&entry_id, in + cursor, sizeof entry_id);
    cursor += sizeof entry_id;
    std::memcpy(bounds.data(), in + cursor, bounds.size() * sizeof(double));
    cursor += bounds.size() * sizeof(double);
    out->entries.push_back(Entry{Rect(lows, highs), entry_id});
  }
  return Status::Ok();
}

Status RStarTree::ReadNode(storage::PageId id, Node* out,
                           SearchStats* stats) const {
  storage::Page page;
  if (pool_ != nullptr) {
    TSQ_RETURN_IF_ERROR(pool_->Read(id, &page));
  } else {
    TSQ_RETURN_IF_ERROR(file_->Read(id, &page));
  }
  TSQ_RETURN_IF_ERROR(DeserializeNode(id, page, out));
  if (stats != nullptr) {
    ++stats->nodes_accessed;
    if (out->is_leaf()) ++stats->leaf_nodes_accessed;
  }
  return Status::Ok();
}

Status RStarTree::WriteNode(const Node& node) {
  storage::Page page;
  TSQ_RETURN_IF_ERROR(SerializeNode(node, &page));
  if (pool_ != nullptr) return pool_->Write(node.self, page);
  return file_->Write(node.self, page);
}

Rect RStarTree::NodeRect(const Node& node) const {
  TSQ_CHECK(!node.entries.empty());
  Rect rect = node.entries.front().rect;
  for (std::size_t i = 1; i < node.entries.size(); ++i) {
    rect.Enlarge(node.entries[i].rect);
  }
  return rect;
}

// --- insertion ---------------------------------------------------------------

Status RStarTree::Insert(const Rect& rect, std::uint64_t id) {
  TSQ_CHECK_EQ(rect.dimensions(), dimensions_);
  std::vector<bool> reinserted(kMaxLevels, false);
  TSQ_RETURN_IF_ERROR(InsertAtLevel(Entry{rect, id}, 0, reinserted));
  ++size_;
  return Status::Ok();
}

std::size_t RStarTree::ChooseSubtree(const Node& node,
                                     const Rect& rect) const {
  TSQ_CHECK(!node.entries.empty());
  const std::size_t count = node.entries.size();
  std::size_t best = 0;
  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement, ties by area
    // enlargement, then by area, then by position (R* refinement). The
    // children are tried in (area enlargement, area, position) order, so the
    // first one with the least overlap enlargement is the answer: a later
    // one must add strictly less overlap to replace it. That lets each sum
    // stop once it reaches the best so far, and the search stop at the
    // first child that adds no overlap at all.
    std::vector<double> enlarge(count), area(count);
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) {
      enlarge[i] = node.entries[i].rect.Enlargement(rect);
      area[i] = node.entries[i].rect.Area();
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (enlarge[a] != enlarge[b]) return enlarge[a] < enlarge[b];
      if (area[a] != area[b]) return area[a] < area[b];
      return a < b;
    });
    best = order.front();
    double best_overlap = OverlapEnlargement(
        node.entries, best, rect, std::numeric_limits<double>::infinity());
    for (std::size_t k = 1; k < count && best_overlap > 0.0; ++k) {
      const double overlap =
          OverlapEnlargement(node.entries, order[k], rect, best_overlap);
      if (overlap < best_overlap) {
        best = order[k];
        best_overlap = overlap;
      }
    }
    return best;
  }
  // Higher levels: minimize area enlargement, ties by area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const double enlarge = node.entries[i].rect.Enlargement(rect);
    const double area = node.entries[i].rect.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

Status RStarTree::InsertAtLevel(const Entry& entry, std::uint32_t target_level,
                                std::vector<bool>& reinserted_levels) {
  if (root_ == storage::kInvalidPageId) {
    TSQ_CHECK_EQ(target_level, 0u);
    Node root;
    root.self = file_->Allocate();
    root.level = 0;
    root.entries.push_back(entry);
    root_ = root.self;
    height_ = 1;
    return WriteNode(root);
  }

  // Descend to the target level, remembering the path.
  std::vector<storage::PageId> path{root_};
  Node node;
  TSQ_RETURN_IF_ERROR(ReadNode(root_, &node));
  TSQ_CHECK_GE(node.level, target_level)
      << "reinsertion level deeper than the tree";
  while (node.level > target_level) {
    const std::size_t child_index = ChooseSubtree(node, entry.rect);
    const storage::PageId child =
        static_cast<storage::PageId>(node.entries[child_index].id);
    path.push_back(child);
    TSQ_RETURN_IF_ERROR(ReadNode(child, &node));
  }

  node.entries.push_back(entry);
  if (node.entries.size() <= capacity_) {
    TSQ_RETURN_IF_ERROR(WriteNode(node));
    return AdjustPath(path, node);
  }
  return OverflowTreatment(std::move(node), std::move(path),
                           reinserted_levels);
}

Status RStarTree::OverflowTreatment(Node node,
                                    std::vector<storage::PageId> path,
                                    std::vector<bool>& reinserted_levels) {
  TSQ_CHECK_LT(node.level, kMaxLevels);
  const bool is_root = node.self == root_;
  if (!is_root && options_.forced_reinsert &&
      !reinserted_levels[node.level]) {
    reinserted_levels[node.level] = true;
    // Remove the p entries whose centers are farthest from the node center.
    const Rect node_rect = NodeRect(node);
    const std::size_t p = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.reinsert_fraction *
                                    static_cast<double>(node.entries.size())));
    std::vector<std::pair<double, std::size_t>> by_distance;
    by_distance.reserve(node.entries.size());
    for (std::size_t i = 0; i < node.entries.size(); ++i) {
      by_distance.emplace_back(
          node.entries[i].rect.CenterSquaredDistance(node_rect), i);
    }
    std::sort(by_distance.begin(), by_distance.end());
    // Keep the close ones, reinsert the far ones starting with the closest
    // ("close reinsert" performed best in the R* paper).
    std::vector<Entry> keep, reinsert;
    const std::size_t keep_count = node.entries.size() - p;
    for (std::size_t rank = 0; rank < by_distance.size(); ++rank) {
      const Entry& e = node.entries[by_distance[rank].second];
      if (rank < keep_count) {
        keep.push_back(e);
      } else {
        reinsert.push_back(e);
      }
    }
    node.entries = std::move(keep);
    TSQ_RETURN_IF_ERROR(WriteNode(node));
    TSQ_RETURN_IF_ERROR(AdjustPath(path, node));
    const std::uint32_t level = node.level;
    for (const Entry& e : reinsert) {
      TSQ_RETURN_IF_ERROR(InsertAtLevel(e, level, reinserted_levels));
    }
    return Status::Ok();
  }
  return SplitNode(std::move(node), std::move(path), reinserted_levels);
}

void RStarTree::ChooseSplit(const std::vector<Entry>& entries,
                            std::vector<Entry>* group_a,
                            std::vector<Entry>* group_b) const {
  const std::size_t total = entries.size();
  const std::size_t m = min_fill_;
  TSQ_CHECK_GE(total, 2 * m);

  // For every axis consider entries sorted by low and by high value; the
  // split axis is the one with the smallest margin sum over all candidate
  // distributions (R* "ChooseSplitAxis").
  std::size_t best_axis = 0;
  bool best_axis_by_low = true;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  // Remember the winning axis' distributions to avoid re-sorting.
  std::vector<std::size_t> best_order;

  std::vector<std::size_t> order(total);
  // Prefix/suffix bounding rects for O(n) margin evaluation, reused by every
  // candidate order.
  std::vector<Rect> prefix(total), suffix(total);
  for (std::size_t axis = 0; axis < dimensions_; ++axis) {
    for (const bool by_low : {true, false}) {
      for (std::size_t i = 0; i < total; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Rect& ra = entries[a].rect;
        const Rect& rb = entries[b].rect;
        if (by_low) {
          if (ra.low(axis) != rb.low(axis)) return ra.low(axis) < rb.low(axis);
          return ra.high(axis) < rb.high(axis);
        }
        if (ra.high(axis) != rb.high(axis)) {
          return ra.high(axis) < rb.high(axis);
        }
        return ra.low(axis) < rb.low(axis);
      });
      prefix[0] = entries[order[0]].rect;
      for (std::size_t i = 1; i < total; ++i) {
        prefix[i] = prefix[i - 1];
        prefix[i].Enlarge(entries[order[i]].rect);
      }
      suffix[total - 1] = entries[order[total - 1]].rect;
      for (std::size_t i = total - 1; i-- > 0;) {
        suffix[i] = suffix[i + 1];
        suffix[i].Enlarge(entries[order[i]].rect);
      }
      double margin_sum = 0.0;
      for (std::size_t split = m; split + m <= total; ++split) {
        margin_sum += prefix[split - 1].Margin() + suffix[split].Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
        best_axis_by_low = by_low;
        best_order = order;
      }
    }
  }
  (void)best_axis;
  (void)best_axis_by_low;

  // On the chosen axis/order, pick the distribution with minimum overlap,
  // ties by minimum combined area (R* "ChooseSplitIndex").
  const std::vector<std::size_t>& ord = best_order;
  prefix[0] = entries[ord[0]].rect;
  for (std::size_t i = 1; i < total; ++i) {
    prefix[i] = prefix[i - 1];
    prefix[i].Enlarge(entries[ord[i]].rect);
  }
  suffix[total - 1] = entries[ord[total - 1]].rect;
  for (std::size_t i = total - 1; i-- > 0;) {
    suffix[i] = suffix[i + 1];
    suffix[i].Enlarge(entries[ord[i]].rect);
  }
  std::size_t best_split = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (std::size_t split = m; split + m <= total; ++split) {
    const double overlap = prefix[split - 1].OverlapArea(suffix[split]);
    const double area = prefix[split - 1].Area() + suffix[split].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split;
    }
  }

  group_a->clear();
  group_b->clear();
  for (std::size_t i = 0; i < total; ++i) {
    if (i < best_split) {
      group_a->push_back(entries[ord[i]]);
    } else {
      group_b->push_back(entries[ord[i]]);
    }
  }
}

Status RStarTree::SplitNode(Node node, std::vector<storage::PageId> path,
                            std::vector<bool>& reinserted_levels) {
  std::vector<Entry> group_a, group_b;
  ChooseSplit(node.entries, &group_a, &group_b);

  Node sibling;
  sibling.self = file_->Allocate();
  sibling.level = node.level;
  sibling.entries = std::move(group_b);
  node.entries = std::move(group_a);
  TSQ_RETURN_IF_ERROR(WriteNode(node));
  TSQ_RETURN_IF_ERROR(WriteNode(sibling));

  if (node.self == root_) {
    Node new_root;
    new_root.self = file_->Allocate();
    new_root.level = node.level + 1;
    new_root.entries.push_back(Entry{NodeRect(node), node.self});
    new_root.entries.push_back(Entry{NodeRect(sibling), sibling.self});
    root_ = new_root.self;
    ++height_;
    return WriteNode(new_root);
  }

  // Replace the parent's entry for `node` and add one for the sibling.
  TSQ_CHECK_GE(path.size(), std::size_t{2});
  path.pop_back();
  Node parent;
  TSQ_RETURN_IF_ERROR(ReadNode(path.back(), &parent));
  bool replaced = false;
  for (Entry& entry : parent.entries) {
    if (entry.id == node.self) {
      entry.rect = NodeRect(node);
      replaced = true;
      break;
    }
  }
  TSQ_CHECK(replaced) << "parent lost track of split child";
  parent.entries.push_back(Entry{NodeRect(sibling), sibling.self});
  if (parent.entries.size() <= capacity_) {
    TSQ_RETURN_IF_ERROR(WriteNode(parent));
    return AdjustPath(path, parent);
  }
  return OverflowTreatment(std::move(parent), std::move(path),
                           reinserted_levels);
}

Status RStarTree::AdjustPath(const std::vector<storage::PageId>& path,
                             const Node& changed) {
  // Walk up from the changed node, refreshing each parent's rect for the
  // child on the path. Before the change every parent rect was the tight
  // MBR of its child, so the walk stops at the first parent whose rect for
  // the child is already right: nothing above it changes either.
  TSQ_CHECK(!path.empty() && path.back() == changed.self);
  Rect rect = NodeRect(changed);
  Node parent;
  for (std::size_t i = path.size(); i-- > 1;) {
    TSQ_RETURN_IF_ERROR(ReadNode(path[i - 1], &parent));
    const auto entry = std::find_if(
        parent.entries.begin(), parent.entries.end(),
        [&](const Entry& e) { return e.id == path[i]; });
    if (entry == parent.entries.end()) {
      return Status::Internal("path child missing from parent during adjust");
    }
    if (entry->rect == rect) break;
    entry->rect = rect;
    TSQ_RETURN_IF_ERROR(WriteNode(parent));
    rect = NodeRect(parent);
  }
  return Status::Ok();
}

Status RStarTree::RestoreForLoad(storage::PageId root, std::size_t height,
                                 std::size_t size) {
  if (root_ != storage::kInvalidPageId) {
    return Status::FailedPrecondition("restore requires an empty tree");
  }
  if (size == 0) {
    if (height != 0 || root != storage::kInvalidPageId) {
      return Status::InvalidArgument("empty tree must have no root");
    }
    return Status::Ok();
  }
  Node probe;
  TSQ_RETURN_IF_ERROR(ReadNode(root, &probe));
  if (probe.level + 1 != height) {
    return Status::Corruption("root level does not match recorded height");
  }
  root_ = root;
  height_ = height;
  size_ = size;
  return Status::Ok();
}

// --- bulk loading ------------------------------------------------------------

namespace {

// Splits `count` items into full groups of `capacity`, except that a short
// remainder below `min_fill` borrows from the previous group so every group
// respects the fill invariant. Returned as end indices.
std::vector<std::size_t> PackedChunks(std::size_t count, std::size_t capacity,
                                      std::size_t min_fill) {
  std::vector<std::size_t> ends;
  std::size_t produced = 0;
  while (count - produced > capacity) {
    const std::size_t remaining_after = count - produced - capacity;
    if (remaining_after >= min_fill || remaining_after == 0) {
      produced += capacity;
    } else {
      // Split the final capacity + remainder evenly across two groups.
      const std::size_t tail = capacity + remaining_after;
      produced += (tail + 1) / 2;
    }
    ends.push_back(produced);
  }
  if (produced < count) ends.push_back(count);
  return ends;
}

}  // namespace

Status RStarTree::BulkLoad(std::vector<Entry> entries) {
  if (root_ != storage::kInvalidPageId) {
    return Status::FailedPrecondition("bulk load requires an empty tree");
  }
  if (entries.empty()) return Status::Ok();
  for (const Entry& entry : entries) {
    TSQ_CHECK_EQ(entry.rect.dimensions(), dimensions_);
  }
  size_ = entries.size();

  // STR tiling: recursively sort by each dimension's center and slice into
  // vertical slabs until groups fit in one node.
  struct Tiler {
    std::size_t dims;
    std::uint32_t capacity;
    std::uint32_t min_fill;

    void Tile(std::vector<Entry>& es, std::size_t lo, std::size_t hi,
              std::size_t dim, std::vector<std::pair<std::size_t, std::size_t>>*
                                   groups) const {
      const std::size_t count = hi - lo;
      if (count <= capacity) {
        groups->emplace_back(lo, hi);
        return;
      }
      std::sort(es.begin() + static_cast<std::ptrdiff_t>(lo),
                es.begin() + static_cast<std::ptrdiff_t>(hi),
                [dim](const Entry& a, const Entry& b) {
                  return a.rect.Center(dim) < b.rect.Center(dim);
                });
      if (dim + 1 == dims) {
        // Last dimension: emit (nearly) full node-size groups.
        std::size_t start = lo;
        for (const std::size_t end : PackedChunks(count, capacity, min_fill)) {
          groups->emplace_back(start, lo + end);
          start = lo + end;
        }
        return;
      }
      // Slabs ~ leaves^(1/remaining dims); each slab holds a whole number of
      // node-size groups so only the last dimension's packing creates any
      // partially-filled node.
      const std::size_t leaves = (count + capacity - 1) / capacity;
      const double exponent = 1.0 / static_cast<double>(dims - dim);
      const std::size_t slabs = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(std::pow(static_cast<double>(leaves), exponent))));
      const std::size_t leaves_per_slab = (leaves + slabs - 1) / slabs;
      std::size_t start = lo;
      for (const std::size_t end :
           PackedChunks(count, leaves_per_slab * capacity,
                        min_fill)) {
        Tile(es, start, lo + end, dim + 1, groups);
        start = lo + end;
      }
    }
  };

  // Build one level: pack `level_entries` into nodes, returning the parent
  // entries.
  std::uint32_t level = 0;
  std::vector<Entry> current = std::move(entries);
  while (true) {
    if (current.size() <= capacity_) {
      Node root;
      root.self = file_->Allocate();
      root.level = level;
      root.entries = std::move(current);
      root_ = root.self;
      height_ = level + 1;
      return WriteNode(root);
    }
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    Tiler tiler{dimensions_, capacity_, min_fill_};
    tiler.Tile(current, 0, current.size(), 0, &groups);
    std::vector<Entry> parents;
    parents.reserve(groups.size());
    for (const auto& [lo, hi] : groups) {
      TSQ_CHECK_LT(lo, hi);
      Node node;
      node.self = file_->Allocate();
      node.level = level;
      node.entries.assign(current.begin() + static_cast<std::ptrdiff_t>(lo),
                          current.begin() + static_cast<std::ptrdiff_t>(hi));
      TSQ_CHECK_LE(node.entries.size(), capacity_);
      TSQ_RETURN_IF_ERROR(WriteNode(node));
      parents.push_back(Entry{NodeRect(node), node.self});
    }
    current = std::move(parents);
    ++level;
  }
}

// --- deletion ----------------------------------------------------------------

Status RStarTree::FindLeaf(const Node& node, const Rect& rect,
                           std::uint64_t id,
                           std::vector<storage::PageId>& path,
                           bool* found) const {
  path.push_back(node.self);
  if (node.is_leaf()) {
    for (const Entry& entry : node.entries) {
      if (entry.id == id && entry.rect == rect) {
        *found = true;
        return Status::Ok();
      }
    }
    path.pop_back();
    return Status::Ok();
  }
  for (const Entry& entry : node.entries) {
    if (!entry.rect.Contains(rect)) continue;
    Node child;
    TSQ_RETURN_IF_ERROR(
        ReadNode(static_cast<storage::PageId>(entry.id), &child));
    TSQ_RETURN_IF_ERROR(FindLeaf(child, rect, id, path, found));
    if (*found) return Status::Ok();
  }
  path.pop_back();
  return Status::Ok();
}

Status RStarTree::Delete(const Rect& rect, std::uint64_t id) {
  if (root_ == storage::kInvalidPageId) {
    return Status::NotFound("delete from empty tree");
  }
  Node root;
  TSQ_RETURN_IF_ERROR(ReadNode(root_, &root));
  std::vector<storage::PageId> path;
  bool found = false;
  TSQ_RETURN_IF_ERROR(FindLeaf(root, rect, id, path, &found));
  if (!found) return Status::NotFound("entry not in tree");

  // ---- Phase 1: reads and in-memory planning only. Nothing is written
  // until every fallible read has succeeded, so a failure up to the apply
  // marker below (an injected read fault included) leaves the tree exactly
  // as it was. ----
  std::vector<Node> nodes(path.size());
  nodes[0] = std::move(root);
  for (std::size_t i = 1; i < path.size(); ++i) {
    TSQ_RETURN_IF_ERROR(ReadNode(path[i], &nodes[i]));
  }

  // Erase the entry from the in-memory leaf.
  Node& leaf = nodes.back();
  auto it = std::find_if(leaf.entries.begin(), leaf.entries.end(),
                         [&](const Entry& e) {
                           return e.id == id && e.rect == rect;
                         });
  TSQ_CHECK(it != leaf.entries.end());
  leaf.entries.erase(it);

  // Condense in memory: walking up from the leaf, orphan underfull nodes
  // (their surviving entries get reinserted below) and refresh ancestor
  // rects.
  std::vector<bool> alive(nodes.size(), true);
  std::vector<std::pair<Entry, std::uint32_t>> orphans;
  for (std::size_t i = nodes.size(); i-- > 1;) {
    Node& node = nodes[i];
    Node& parent = nodes[i - 1];
    auto entry_it = std::find_if(
        parent.entries.begin(), parent.entries.end(),
        [&](const Entry& e) { return e.id == path[i]; });
    TSQ_CHECK(entry_it != parent.entries.end());
    if (node.entries.size() < min_fill_) {
      for (const Entry& e : node.entries) {
        orphans.emplace_back(e, node.level);
      }
      parent.entries.erase(entry_it);
      alive[i] = false;
    } else {
      entry_it->rect = NodeRect(node);
    }
  }

  // Plan the root shrink: single-child internal roots collapse into their
  // child. Off-path replacement roots need a read, which is still phase-1
  // work.
  storage::PageId new_root = root_;
  std::size_t new_height = height_;
  Node current = nodes[0];
  while (!current.is_leaf() && current.entries.size() == 1) {
    new_root = static_cast<storage::PageId>(current.entries.front().id);
    --new_height;
    bool on_path = false;
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (path[i] == new_root && alive[i]) {
        current = nodes[i];
        on_path = true;
        break;
      }
    }
    if (!on_path) {
      TSQ_RETURN_IF_ERROR(ReadNode(new_root, &current));
    }
  }
  if (current.is_leaf() && current.entries.empty()) {
    new_root = storage::kInvalidPageId;
    new_height = 0;
  }

  // ---- Phase 2: apply. Node writes never consult the read-fault hook, so
  // a delete that triggers no underflow (the common case) is now
  // failure-atomic under fault injection. ----
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (alive[i]) TSQ_RETURN_IF_ERROR(WriteNode(nodes[i]));
  }
  root_ = new_root;
  height_ = new_height;
  --size_;

  // Reinsert orphans at their original levels (deepest first so that leaf
  // entries go back before higher-level subtrees rely on them). This is the
  // one part of a delete that can still fail after mutation — reinsertion
  // traverses (reads) the tree — which is why SequenceIndex::Rebuild exists
  // as the caller-level compensation.
  std::sort(orphans.begin(), orphans.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [entry, level] : orphans) {
    std::vector<bool> reinserted(kMaxLevels, false);
    if (root_ == storage::kInvalidPageId && level > 0) {
      return Status::Internal("orphaned subtree with no tree to hold it");
    }
    TSQ_RETURN_IF_ERROR(InsertAtLevel(entry, level, reinserted));
  }
  return Status::Ok();
}

// --- search ------------------------------------------------------------------

Status RStarTree::Search(const RectPredicate& predicate,
                         std::vector<Entry>* results,
                         SearchStats* stats) const {
  if (root_ == storage::kInvalidPageId) return Status::Ok();
  std::vector<storage::PageId> stack{root_};
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    Node node;
    TSQ_RETURN_IF_ERROR(ReadNode(page, &node, stats));
    for (const Entry& entry : node.entries) {
      if (!predicate(entry.rect)) continue;
      if (node.is_leaf()) {
        results->push_back(entry);
        if (stats != nullptr) ++stats->matches;
      } else {
        stack.push_back(static_cast<storage::PageId>(entry.id));
      }
    }
  }
  return Status::Ok();
}

Status RStarTree::WindowQuery(const Rect& window, std::vector<Entry>* results,
                              SearchStats* stats) const {
  return Search(
      [&window](const Rect& rect) { return window.Intersects(rect); },
      results, stats);
}

Status RStarTree::NearestNeighbors(std::size_t k,
                                   const RectDistance& node_distance,
                                   const RectDistance& entry_distance,
                                   std::vector<Neighbor>* results,
                                   SearchStats* stats) const {
  results->clear();
  if (root_ == storage::kInvalidPageId || k == 0) return Status::Ok();

  struct QueueItem {
    double distance;
    storage::PageId page;
    bool operator>(const QueueItem& other) const {
      return distance > other.distance;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      frontier;
  frontier.push({0.0, root_});

  // Max-heap of the best k found so far, keyed by distance.
  auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a.squared_distance < b.squared_distance;
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(worse)> best(
      worse);

  while (!frontier.empty()) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (best.size() == k && item.distance > best.top().squared_distance) {
      break;  // Everything left is farther than the current k-th best.
    }
    Node node;
    TSQ_RETURN_IF_ERROR(ReadNode(item.page, &node, stats));
    for (const Entry& entry : node.entries) {
      if (node.is_leaf()) {
        const double d = entry_distance(entry.rect);
        if (best.size() < k) {
          best.push(Neighbor{entry, d});
        } else if (d < best.top().squared_distance) {
          best.pop();
          best.push(Neighbor{entry, d});
        }
      } else {
        const double d = node_distance(entry.rect);
        if (best.size() < k || d <= best.top().squared_distance) {
          frontier.push({d, static_cast<storage::PageId>(entry.id)});
        }
      }
    }
  }

  results->reserve(best.size());
  while (!best.empty()) {
    results->push_back(best.top());
    best.pop();
  }
  std::reverse(results->begin(), results->end());
  if (stats != nullptr) stats->matches += results->size();
  return Status::Ok();
}

Status RStarTree::NearestNeighbors(std::size_t k, const Point& query,
                                   std::vector<Neighbor>* results,
                                   SearchStats* stats) const {
  const auto distance = [&query](const Rect& rect) {
    return rect.MinSquaredDistance(query);
  };
  return NearestNeighbors(k, distance, distance, results, stats);
}

// --- introspection -----------------------------------------------------------

std::optional<Rect> RStarTree::RootRect() const {
  if (root_ == storage::kInvalidPageId) return std::nullopt;
  Node root;
  if (!ReadNode(root_, &root).ok() || root.entries.empty()) {
    return std::nullopt;
  }
  return NodeRect(root);
}

Status RStarTree::VisitNodes(
    const std::function<void(const NodeView&)>& fn) const {
  if (root_ == storage::kInvalidPageId) return Status::Ok();
  std::vector<storage::PageId> stack{root_};
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    Node node;
    TSQ_RETURN_IF_ERROR(ReadNode(page, &node));
    NodeView view{node.level, page, node.is_leaf(), node.entries};
    fn(view);
    if (!node.is_leaf()) {
      for (const Entry& entry : node.entries) {
        stack.push_back(static_cast<storage::PageId>(entry.id));
      }
    }
  }
  return Status::Ok();
}

Status RStarTree::ReadNodeView(storage::PageId page, NodeView* out,
                               SearchStats* stats) const {
  Node node;
  TSQ_RETURN_IF_ERROR(ReadNode(page, &node, stats));
  out->level = node.level;
  out->page = page;
  out->is_leaf = node.is_leaf();
  out->entries = std::move(node.entries);
  return Status::Ok();
}

Status RStarTree::CheckInvariants() const {
  if (root_ == storage::kInvalidPageId) {
    if (size_ != 0) return Status::Internal("empty tree with nonzero size");
    return Status::Ok();
  }
  std::size_t leaf_entries = 0;
  std::optional<std::uint32_t> leaf_level;
  Status failure = Status::Ok();

  // (page, expected rect or nullopt for root, expected level or nullopt).
  struct Pending {
    storage::PageId page;
    std::optional<Rect> rect;
    std::optional<std::uint32_t> level;
  };
  std::vector<Pending> stack{{root_, std::nullopt, std::nullopt}};
  while (!stack.empty()) {
    const Pending item = stack.back();
    stack.pop_back();
    Node node;
    TSQ_RETURN_IF_ERROR(ReadNode(item.page, &node));
    if (node.entries.empty()) {
      return Status::Internal("empty node in non-empty tree");
    }
    if (item.level.has_value() && node.level != *item.level) {
      return Status::Internal("child level does not match parent level - 1");
    }
    if (item.rect.has_value() && !(NodeRect(node) == *item.rect)) {
      return Status::Internal("parent rect is not the tight MBR of child");
    }
    const bool is_root = item.page == root_;
    if (!is_root && node.entries.size() < min_fill_) {
      return Status::Internal("node underflow");
    }
    if (node.entries.size() > capacity_) {
      return Status::Internal("node overflow");
    }
    if (node.is_leaf()) {
      if (leaf_level.has_value() && node.level != *leaf_level) {
        return Status::Internal("leaves at different levels");
      }
      leaf_level = node.level;
      leaf_entries += node.entries.size();
    } else {
      for (const Entry& entry : node.entries) {
        stack.push_back(Pending{static_cast<storage::PageId>(entry.id),
                                entry.rect, node.level - 1});
      }
    }
  }
  if (leaf_entries != size_) {
    return Status::Internal("leaf entry count does not match size()");
  }
  return failure;
}

}  // namespace tsq::rstar
