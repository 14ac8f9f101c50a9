#ifndef THOR_CORE_OBJECT_PARTITION_H_
#define THOR_CORE_OBJECT_PARTITION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/common_subtrees.h"
#include "src/html/arena_tree.h"

namespace thor::core {

/// Stage-3 knobs.
struct ObjectPartitionOptions {
  /// Minimum repetitions for a child pattern to count as an object list.
  int min_objects = 2;
  /// Two sibling subtrees are "the same object type" when their shape
  /// distance is at most this. Sibling records rendered from one template
  /// land near 0; a heading or pager next to them lands around 0.3.
  double shape_distance_threshold = 0.25;
  /// Longest repeated separator period tried (e.g. 2 for <dt>/<dd> pairs).
  int max_period = 4;
};

/// One QA-Object: a run of consecutive children of the pagelet root.
struct ObjectSpan {
  /// Consecutive sibling nodes forming the object (usually one; two for
  /// <dt>/<dd>-style layouts).
  std::vector<html::NodeId> parts;

  html::NodeId root() const {
    return parts.empty() ? html::kInvalidNode : parts.front();
  }
};

/// A partition in flat form, plus the scratch that computing it reuses:
/// HotExtractor keeps one per thread, so serving partitions without heap
/// allocation once the vectors have grown.
struct ObjectPartition {
  /// Object k is parts[offsets[k] .. offsets[k + 1]).
  std::vector<html::NodeId> parts;
  std::vector<int32_t> offsets;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const html::NodeId> object(size_t k) const {
    return std::span<const html::NodeId>(parts).subspan(
        static_cast<size_t>(offsets[k]),
        static_cast<size_t>(offsets[k + 1] - offsets[k]));
  }

  // Scratch.
  std::vector<html::NodeId> children;
  std::vector<html::TagId> tags;
  std::vector<NodeShape> shapes;
  std::vector<size_t> seed_order;
  std::vector<size_t> group;
  std::vector<size_t> best_group;
};

/// \brief Stage 3: partitions a QA-Pagelet into itemized QA-Objects.
///
/// Detects the repeated structure among the pagelet root's tag children:
/// first by exact repeated tag-period (handles table rows, list items and
/// dt/dd pairs), then by shape-similarity grouping (handles ragged item
/// markup); a pagelet with no repetition (a single-match detail region) is
/// returned as one object spanning the whole pagelet. A kInvalidNode
/// pagelet yields no objects.
///
/// `hints` may carry Phase-II's dynamic-descendant recommendations; any
/// hinted node that is a direct child of the pagelet root seeds the
/// dominant group. Learning and HotExtractor both call this.
void PartitionObjects(const html::ArenaTree& tree, html::NodeId pagelet,
                      const std::vector<html::NodeId>& hints,
                      const ObjectPartitionOptions& options,
                      ObjectPartition* out);

/// The same partition as a list of spans.
std::vector<ObjectSpan> PartitionObjects(
    const html::ArenaTree& tree, html::NodeId pagelet,
    const std::vector<html::NodeId>& hints = {},
    const ObjectPartitionOptions& options = {});

/// The text of one object: its parts' content text, space-joined in order.
std::string ObjectText(const html::ArenaTree& tree,
                       std::span<const html::NodeId> parts);

/// Convenience: ObjectText of each object.
std::vector<std::string> ObjectTexts(const html::ArenaTree& tree,
                                     const std::vector<ObjectSpan>& objects);

/// One page's pagelet and partitioned objects, for cross-page validation.
struct PageObjects {
  const html::ArenaTree* tree = nullptr;
  html::NodeId pagelet = html::kInvalidNode;
  std::vector<ObjectSpan> objects;
};

/// \brief Cross-page Stage-3 validation over the pages of one cluster.
///
/// On a detail-page cluster the repeated "objects" found by
/// `PartitionObjects` are field rows whose leading label (Title, Price,
/// ...) is identical on every page; real QA-Objects lead with query
/// answers that never repeat across pages. When at least
/// `stable_fraction_threshold` of the leading tokens are static across
/// `min_pages` pages, each page's object list is collapsed to a single
/// whole-pagelet object (one record per page). Returns true if collapsed.
bool CollapseFieldRowObjects(std::vector<PageObjects>* pages,
                             double stable_fraction_threshold = 0.7,
                             int min_pages = 3);

}  // namespace thor::core

#endif  // THOR_CORE_OBJECT_PARTITION_H_
