#ifndef THOR_CORE_HOT_EXTRACTOR_H_
#define THOR_CORE_HOT_EXTRACTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/common_subtrees.h"
#include "src/core/object_partition.h"
#include "src/core/template_registry.h"
#include "src/html/arena_parser.h"
#include "src/ir/sparse_vector.h"

namespace thor::core {

/// A template pre-lowered for the hot path: sparse-vector gates flattened
/// into plain sorted arrays so the serving loop runs on contiguous memory
/// with no per-request hashing.
struct CompiledTemplate {
  std::string path_symbols;
  ShapeQuad prototype;
  int support = 0;
  double max_distance = 0.4;
  double min_stable_match = 0.93;
  /// stable_tags entries (sorted by tag id, as SparseVector stores them).
  std::vector<ir::VectorEntry> stable;
  /// Sorted distinct tag ids from known_tags.
  std::vector<int32_t> known_ids;
};

/// Immutable compiled form of a TemplateRegistry; built once per cached
/// site generation and shared read-only across worker threads.
class CompiledTemplates {
 public:
  CompiledTemplates() = default;
  static CompiledTemplates Compile(const TemplateRegistry& registry);

  const std::vector<CompiledTemplate>& templates() const {
    return templates_;
  }
  bool empty() const { return templates_.empty(); }

 private:
  std::vector<CompiledTemplate> templates_;
};

/// \brief One-pass parse → signature → locate → partition engine: the only
/// code that applies a learned template to a page.
///
/// Candidate filtering (CandidateSubtrees), Stage-3 partitioning
/// (PartitionObjects) and object texts (ObjectText) are the functions
/// learning runs, called here with scratch buffers that live as long as
/// the extractor, so after a warm-up page locate and partition allocate
/// nothing; only the response strings are new. Path comparisons run on
/// the page-local interned path table: the exact-path flag and the
/// prototype edit-distance term are computed once per distinct path id per
/// template instead of once per candidate.
/// tests/hotpath_diff_test.cc pins every response field against a golden
/// file.
///
/// Not thread-safe; keep one HotExtractor per worker thread (it is designed
/// to live in a thread_local and survive across ExtractBatch calls).
class HotExtractor {
 public:
  struct Result {
    /// Located.node != kInvalidNode.
    bool hit = false;
    TemplateRegistry::Located located;
    /// ArenaTree::PathString of the pagelet (empty on a miss).
    std::string pagelet_path;
    /// ObjectText of each partitioned object (empty on a miss).
    std::vector<std::string> objects;
  };

  /// Full serving-path extraction for one page.
  Result Extract(std::string_view html, const CompiledTemplates& templates,
                 const TemplateApplyOptions& apply = {},
                 const ObjectPartitionOptions& partition = {});

  /// Parses into the extractor's own tree, valid until the next
  /// Parse/Extract call.
  const html::ArenaTree& Parse(std::string_view html,
                               const html::ParseOptions& options = {});
  /// The template match for a page: candidates are filtered as in
  /// single-page analysis, then matched against each template in order
  /// (page skeleton gate, exact path first, then nearest shape within the
  /// template's distance budget). `tree` may be any ArenaTree, e.g. a
  /// core::Page's. A miss (e.g. a no-match page) has node kInvalidNode.
  TemplateRegistry::Located Locate(const html::ArenaTree& tree,
                                   const CompiledTemplates& templates,
                                   const TemplateApplyOptions& apply = {});

 private:
  bool PassesStableGate(const html::ArenaTree& tree,
                        const CompiledTemplate& tmpl) const;
  double PathTerm(const html::ArenaTree& tree, const CompiledTemplate& tmpl,
                  uint32_t path_id);

  html::HotParser parser_;

  // Scratch, reused across calls (cleared, capacity retained).
  std::vector<html::NodeId> candidates_;
  std::vector<NodeShape> shapes_;
  /// Per-distinct-path memo, reset per template: 0/1 = exact-path flag
  /// against tmpl.path_symbols, 2 = unset.
  std::vector<uint8_t> exact_memo_;
  /// Per-distinct-path memo, reset per template: edit-distance path term
  /// against the template prototype; < 0 = unset.
  std::vector<double> term_memo_;
  ObjectPartition partition_;
};

}  // namespace thor::core

#endif  // THOR_CORE_HOT_EXTRACTOR_H_
