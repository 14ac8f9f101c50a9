#include "src/core/hot_extractor.h"

#include <algorithm>

#include "src/text/edit_distance.h"

namespace thor::core {

CompiledTemplates CompiledTemplates::Compile(const TemplateRegistry& registry) {
  CompiledTemplates out;
  out.templates_.reserve(registry.templates().size());
  for (const ExtractionTemplate& t : registry.templates()) {
    CompiledTemplate c;
    c.path_symbols = t.path_symbols;
    c.prototype = t.prototype;
    c.support = t.support;
    c.max_distance = t.max_distance;
    c.min_stable_match = t.min_stable_match;
    c.stable = t.stable_tags.entries();
    c.known_ids.reserve(t.known_tags.entries().size());
    for (const ir::VectorEntry& e : t.known_tags.entries()) {
      c.known_ids.push_back(e.id);  // entries are sorted by id
    }
    out.templates_.push_back(std::move(c));
  }
  return out;
}

const html::ArenaTree& HotExtractor::Parse(std::string_view html,
                                           const html::ParseOptions& options) {
  return parser_.Parse(html, options);
}

bool HotExtractor::PassesStableGate(const html::ArenaTree& tree,
                                    const CompiledTemplate& tmpl) const {
  // Page-level gate: the fraction of the template's stable (tag, count)
  // pairs this page reproduces exactly, with every tag the template never
  // saw counted against it. Counts compare as doubles, the weights' type.
  if (tmpl.stable.empty()) return true;  // fraction 1.0 passes any gate <= 1
  int matched = 0;
  for (const ir::VectorEntry& e : tmpl.stable) {
    if (static_cast<double>(tree.TagCountOf(e.id)) == e.weight) ++matched;
  }
  int unknown = 0;
  for (html::TagId tag : tree.distinct_tags()) {
    if (!std::binary_search(tmpl.known_ids.begin(), tmpl.known_ids.end(),
                            static_cast<int32_t>(tag))) {
      ++unknown;
    }
  }
  double fraction =
      static_cast<double>(matched) /
      static_cast<double>(tmpl.stable.size() + static_cast<size_t>(unknown));
  return !(fraction < tmpl.min_stable_match);
}

double HotExtractor::PathTerm(const html::ArenaTree& tree,
                              const CompiledTemplate& tmpl,
                              uint32_t path_id) {
  double& slot = term_memo_[path_id];
  if (slot < 0.0) {
    std::string_view path = tree.path(path_id);
    // Compare the symbol *strings*, not path ids: the 62-symbol alphabet
    // aliases distinct tag chains, and the learned prototype treats
    // aliased paths as equal.
    slot = (path == tmpl.prototype.path_symbols)
               ? 0.0
               : text::NormalizedEditDistance(tmpl.prototype.path_symbols,
                                              path);
  }
  return slot;
}

TemplateRegistry::Located HotExtractor::Locate(
    const html::ArenaTree& tree, const CompiledTemplates& templates,
    const TemplateApplyOptions& apply) {
  TemplateRegistry::Located located;
  CandidateSubtrees(tree, apply.filter, &candidates_);
  if (candidates_.empty()) return located;
  shapes_.clear();
  for (html::NodeId node : candidates_) {
    shapes_.push_back(MakeNodeShape(tree, node));
  }
  const std::vector<CompiledTemplate>& all = templates.templates();
  for (size_t t = 0; t < all.size(); ++t) {
    const CompiledTemplate& tmpl = all[t];
    if (!PassesStableGate(tree, tmpl)) continue;
    // Per-template memos over the page's distinct paths: exact-path flag
    // and prototype path term each computed at most once per path id.
    exact_memo_.assign(tree.path_count(), 2);
    term_memo_.assign(tree.path_count(), -1.0);
    html::NodeId best = html::kInvalidNode;
    double best_distance = tmpl.max_distance;
    auto distance = [&](const NodeShape& shape) {
      return ShapeDistanceWithPathTerm(tmpl.prototype, shape,
                                       PathTerm(tree, tmpl, shape.path_id),
                                       apply.weights);
    };
    // Exact-path candidates first; they tolerate any shape drift within
    // the budget, because template pages keep their paths (<= keeps the
    // last tie).
    for (size_t i = 0; i < shapes_.size(); ++i) {
      uint32_t p = shapes_[i].path_id;
      uint8_t& exact_flag = exact_memo_[p];
      if (exact_flag == 2) {
        exact_flag = tree.path(p) == tmpl.path_symbols ? 1 : 0;
      }
      if (exact_flag == 0) continue;
      double d = distance(shapes_[i]);
      if (d <= best_distance) {
        best_distance = d;
        best = candidates_[i];
      }
    }
    bool exact = best != html::kInvalidNode;
    if (!exact) {
      // Fall back to the nearest shape (the site tweaked a wrapper level;
      // < keeps the first minimum).
      for (size_t i = 0; i < shapes_.size(); ++i) {
        double d = distance(shapes_[i]);
        if (d < best_distance) {
          best_distance = d;
          best = candidates_[i];
        }
      }
    }
    if (best != html::kInvalidNode) {
      located.node = best;
      located.distance = best_distance;
      located.budget = tmpl.max_distance;
      located.template_index = static_cast<int>(t);
      located.exact_path = exact;
      return located;
    }
  }
  return located;
}

HotExtractor::Result HotExtractor::Extract(
    std::string_view html, const CompiledTemplates& templates,
    const TemplateApplyOptions& apply,
    const ObjectPartitionOptions& partition) {
  Result result;
  const html::ArenaTree& tree = parser_.Parse(html);
  result.located = Locate(tree, templates, apply);
  if (result.located.node == html::kInvalidNode) return result;
  result.hit = true;
  result.pagelet_path = tree.PathString(result.located.node);
  PartitionObjects(tree, result.located.node, /*hints=*/{}, partition,
                   &partition_);
  result.objects.reserve(partition_.size());
  for (size_t k = 0; k < partition_.size(); ++k) {
    result.objects.push_back(ObjectText(tree, partition_.object(k)));
  }
  return result;
}

}  // namespace thor::core
