#include "src/core/object_partition.h"

#include <algorithm>
#include <unordered_map>

#include "src/text/edit_distance.h"

namespace thor::core {

namespace {

// Tries to read the child tag sequence as (t1..tp)^m with m >= min_objects.
// A trailing partial period is tolerated (truncated result lists). Returns
// m, or 0 if the period does not fit.
int MatchPeriod(const std::vector<html::TagId>& tags, int period,
                int min_objects) {
  if (period <= 0 || static_cast<int>(tags.size()) < period * min_objects) {
    return 0;
  }
  for (size_t i = static_cast<size_t>(period); i < tags.size(); ++i) {
    if (tags[i] != tags[i - static_cast<size_t>(period)]) return 0;
  }
  return static_cast<int>(tags.size()) / period;
}

}  // namespace

void PartitionObjects(const html::ArenaTree& tree, html::NodeId pagelet,
                      const std::vector<html::NodeId>& hints,
                      const ObjectPartitionOptions& options,
                      ObjectPartition* out) {
  out->parts.clear();
  out->offsets.assign(1, 0);
  if (pagelet == html::kInvalidNode) return;
  auto close_object = [out] {
    out->offsets.push_back(static_cast<int32_t>(out->parts.size()));
  };
  // Tag children of the pagelet root that carry content (separators like
  // <hr> or empty spacer cells are not object roots).
  std::vector<html::NodeId>& children = out->children;
  children.clear();
  for (html::NodeId child : tree.Children(pagelet)) {
    const html::ArenaNode& c = tree.node(child);
    if (c.is_tag() && c.content_length > 0) children.push_back(child);
  }

  // 1. Exact repeated tag-period detection. Periods are tried shortest
  // first so <tr><tr>... is period 1, <dt><dd><dt><dd> is period 2.
  out->tags.clear();
  for (html::NodeId child : children) out->tags.push_back(tree.node(child).tag);
  for (int period = 1; period <= options.max_period; ++period) {
    int repeats = MatchPeriod(out->tags, period, options.min_objects);
    if (repeats < options.min_objects) continue;
    for (size_t start = 0; start < children.size();
         start += static_cast<size_t>(period)) {
      for (size_t off = 0; off < static_cast<size_t>(period) &&
                           start + off < children.size();
           ++off) {
        out->parts.push_back(children[start + off]);
      }
      close_object();
    }
    return;
  }

  // 2. Shape-similarity grouping: find the largest group of mutually
  // similar children; if it repeats enough, its members are the objects.
  if (static_cast<int>(children.size()) >= options.min_objects) {
    out->shapes.clear();
    for (html::NodeId child : children) {
      out->shapes.push_back(MakeNodeShape(tree, child));
    }
    // Seed order: Phase-II hints that are direct children first.
    out->seed_order.clear();
    for (html::NodeId hint : hints) {
      for (size_t i = 0; i < children.size(); ++i) {
        if (children[i] == hint) out->seed_order.push_back(i);
      }
    }
    for (size_t i = 0; i < children.size(); ++i) out->seed_order.push_back(i);

    const ShapeDistanceWeights weights;
    out->best_group.clear();
    for (size_t seed : out->seed_order) {
      out->group.clear();
      const NodeShape& a = out->shapes[seed];
      for (size_t i = 0; i < children.size(); ++i) {
        const NodeShape& b = out->shapes[i];
        std::string_view pa = tree.path(a.path_id);
        std::string_view pb = tree.path(b.path_id);
        double path_term =
            pa == pb ? 0.0 : text::NormalizedEditDistance(pa, pb);
        if (ShapeDistanceWithPathTerm(a, b, path_term, weights) <=
            options.shape_distance_threshold) {
          out->group.push_back(i);
        }
      }
      if (out->group.size() > out->best_group.size()) {
        out->best_group.swap(out->group);
      }
    }
    if (static_cast<int>(out->best_group.size()) >= options.min_objects) {
      for (size_t index : out->best_group) {
        out->parts.push_back(children[index]);
        close_object();
      }
      return;
    }
  }

  // 3. No repetition: the pagelet is one object (single-match detail).
  out->parts.push_back(pagelet);
  close_object();
}

std::vector<ObjectSpan> PartitionObjects(
    const html::ArenaTree& tree, html::NodeId pagelet,
    const std::vector<html::NodeId>& hints,
    const ObjectPartitionOptions& options) {
  ObjectPartition partition;
  PartitionObjects(tree, pagelet, hints, options, &partition);
  std::vector<ObjectSpan> objects(partition.size());
  for (size_t k = 0; k < objects.size(); ++k) {
    std::span<const html::NodeId> parts = partition.object(k);
    objects[k].parts.assign(parts.begin(), parts.end());
  }
  return objects;
}

std::string ObjectText(const html::ArenaTree& tree,
                       std::span<const html::NodeId> parts) {
  // AppendSubtreeText puts a space before each text iff the buffer is
  // non-empty, so one buffer across the parts joins them with spaces.
  std::string text;
  for (html::NodeId part : parts) tree.AppendSubtreeText(part, &text);
  return text;
}

bool CollapseFieldRowObjects(std::vector<PageObjects>* pages,
                             double stable_fraction_threshold,
                             int min_pages) {
  if (static_cast<int>(pages->size()) < min_pages) return false;
  auto first_token = [](const html::ArenaTree& tree, html::NodeId node) {
    std::string text = tree.SubtreeText(node);
    return text.substr(0, text.find(' '));
  };
  std::unordered_map<std::string, int> token_page_counts;
  int pages_with_objects = 0;
  for (const PageObjects& page : *pages) {
    if (page.objects.size() < 2) continue;
    ++pages_with_objects;
    std::unordered_map<std::string, bool> seen_on_page;
    for (const ObjectSpan& span : page.objects) {
      std::string token = first_token(*page.tree, span.root());
      if (!token.empty()) seen_on_page[token] = true;
    }
    for (const auto& [token, present] : seen_on_page) {
      if (present) ++token_page_counts[token];
    }
  }
  if (pages_with_objects < min_pages) return false;
  double stable_fraction = 0.0;
  int checked = 0;
  for (const PageObjects& page : *pages) {
    if (page.objects.size() < 2) continue;
    int stable = 0;
    for (const ObjectSpan& span : page.objects) {
      std::string token = first_token(*page.tree, span.root());
      auto it = token_page_counts.find(token);
      // A token is "static" when it leads an object on >= 80% of pages.
      if (it != token_page_counts.end() &&
          it->second * 10 >= pages_with_objects * 8) {
        ++stable;
      }
    }
    stable_fraction += static_cast<double>(stable) / page.objects.size();
    ++checked;
  }
  stable_fraction /= checked;
  if (stable_fraction < stable_fraction_threshold) return false;
  for (PageObjects& page : *pages) {
    ObjectSpan whole;
    whole.parts.push_back(page.pagelet);
    page.objects.assign(1, std::move(whole));
  }
  return true;
}

std::vector<std::string> ObjectTexts(const html::ArenaTree& tree,
                                     const std::vector<ObjectSpan>& objects) {
  std::vector<std::string> texts;
  texts.reserve(objects.size());
  for (const ObjectSpan& span : objects) {
    texts.push_back(ObjectText(tree, span.parts));
  }
  return texts;
}

}  // namespace thor::core
