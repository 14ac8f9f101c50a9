#include "src/core/template_registry.h"

#include <algorithm>
#include <map>

#include "src/core/signature_builder.h"
#include "src/util/json.h"
#include "src/util/json_reader.h"

namespace thor::core {

TemplateRegistry TemplateRegistry::Learn(const std::vector<Page>& pages,
                                         const ThorResult& result) {
  TemplateRegistry registry;
  // Group extracted pagelets by path symbols: one answer-page type may be
  // split across refined clusters that share a template.
  struct Group {
    std::vector<ShapeQuad> quads;
    std::vector<ir::SparseVector> page_tag_counts;
  };
  std::map<std::string, Group> groups;
  for (const ThorPageResult& page_result : result.pages) {
    if (page_result.pagelet == html::kInvalidNode) continue;
    const html::ArenaTree& tree =
        pages[static_cast<size_t>(page_result.page_index)].tree;
    ShapeQuad quad = MakeShapeQuad(tree, page_result.pagelet);
    Group& group = groups[quad.path_symbols];
    group.quads.push_back(std::move(quad));
    group.page_tag_counts.push_back(TagCountVector(tree));
  }
  for (auto& [path, group] : groups) {
    ExtractionTemplate tmpl;
    tmpl.path_symbols = path;
    tmpl.support = static_cast<int>(group.quads.size());
    // Median-size member as the prototype shape: robust to the odd
    // truncated or overstuffed page.
    std::sort(group.quads.begin(), group.quads.end(),
              [](const ShapeQuad& a, const ShapeQuad& b) {
                return a.num_nodes < b.num_nodes;
              });
    tmpl.prototype = group.quads[group.quads.size() / 2];
    // Distance budget learned from the sample's own spread around the
    // prototype (plus slack), so a tight template stays tight and a
    // variable-length listing stays permissive.
    double spread = 0.0;
    for (const ShapeQuad& quad : group.quads) {
      spread = std::max(spread, ShapeDistance(tmpl.prototype, quad));
    }
    tmpl.max_distance = std::clamp(spread + 0.05, 0.15, 0.45);
    // A listing region (variable fanout across supporters) grows with the
    // answer count; a probe sample rarely contains the longest possible
    // list, so keep the budget permissive for lists.
    if (group.quads.front().fanout != group.quads.back().fanout) {
      tmpl.max_distance = std::max(tmpl.max_distance, 0.4);
    }
    // Page-level gate: the tags whose count is identical on every
    // supporting page (the skeleton: header, nav, footer, headings). An
    // answer page of any length reproduces them exactly; a no-match page
    // perturbs several (extra suggestion paragraphs, the popular-items
    // list, a missing pager).
    std::vector<ir::VectorEntry> stable;
    for (const ir::VectorEntry& e :
         group.page_tag_counts.front().entries()) {
      bool constant = true;
      for (const ir::SparseVector& counts : group.page_tag_counts) {
        if (counts.At(e.id) != e.weight) {
          constant = false;
          break;
        }
      }
      if (constant) stable.push_back(e);
    }
    tmpl.stable_tags = ir::SparseVector::FromPairs(std::move(stable));
    std::vector<ir::VectorEntry> known;
    for (const ir::SparseVector& counts : group.page_tag_counts) {
      for (const ir::VectorEntry& e : counts.entries()) {
        known.push_back({e.id, 1.0});
      }
    }
    tmpl.known_tags = ir::SparseVector::FromPairs(std::move(known));
    registry.templates_.push_back(std::move(tmpl));
  }
  std::sort(registry.templates_.begin(), registry.templates_.end(),
            [](const ExtractionTemplate& a, const ExtractionTemplate& b) {
              return a.support > b.support;
            });
  return registry;
}

TemplateRegistry TemplateRegistry::FromTemplates(
    std::vector<ExtractionTemplate> templates) {
  TemplateRegistry registry;
  registry.templates_ = std::move(templates);
  return registry;
}

double TemplateRegistry::Located::Confidence() const {
  if (node == html::kInvalidNode) return 0.0;
  double slack =
      budget > 0.0 ? std::clamp(1.0 - distance / budget, 0.0, 1.0) : 1.0;
  return exact_path ? std::max(slack, 0.5) : slack;
}

std::string TemplateRegistry::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("format").String("thor-templates");
  json.Key("version").Int(1);
  json.Key("templates").BeginArray();
  for (const ExtractionTemplate& tmpl : templates_) {
    json.BeginObject();
    json.Key("path_symbols").String(tmpl.path_symbols);
    json.Key("prototype").BeginObject();
    json.Key("path_symbols").String(tmpl.prototype.path_symbols);
    json.Key("fanout").Int(tmpl.prototype.fanout);
    json.Key("depth").Int(tmpl.prototype.depth);
    json.Key("num_nodes").Int(tmpl.prototype.num_nodes);
    json.EndObject();
    json.Key("support").Int(tmpl.support);
    json.Key("max_distance").Double(tmpl.max_distance);
    json.Key("min_stable_match").Double(tmpl.min_stable_match);
    json.Key("stable_tags").BeginArray();
    for (const ir::VectorEntry& e : tmpl.stable_tags.entries()) {
      json.BeginArray();
      json.String(html::TagName(e.id));
      json.Int(static_cast<long long>(e.weight));
      json.EndArray();
    }
    json.EndArray();
    json.Key("known_tags").BeginArray();
    for (const ir::VectorEntry& e : tmpl.known_tags.entries()) {
      json.String(html::TagName(e.id));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Result<TemplateRegistry> TemplateRegistry::FromJson(std::string_view json) {
  auto document = JsonValue::Parse(json);
  if (!document.ok()) return document.status();
  const JsonValue* format = document->Find("format");
  if (format == nullptr || !format->IsString() ||
      format->AsString() != "thor-templates") {
    return Status::InvalidArgument("not a thor-templates document");
  }
  const JsonValue* templates = document->Find("templates");
  if (templates == nullptr || !templates->IsArray()) {
    return Status::InvalidArgument("missing templates array");
  }
  TemplateRegistry registry;
  for (const JsonValue& entry : templates->items()) {
    if (!entry.IsObject()) {
      return Status::InvalidArgument("template entry is not an object");
    }
    ExtractionTemplate tmpl;
    const JsonValue* path = entry.Find("path_symbols");
    const JsonValue* prototype = entry.Find("prototype");
    const JsonValue* support = entry.Find("support");
    const JsonValue* max_distance = entry.Find("max_distance");
    const JsonValue* min_stable = entry.Find("min_stable_match");
    const JsonValue* stable = entry.Find("stable_tags");
    const JsonValue* known = entry.Find("known_tags");
    if (path == nullptr || !path->IsString() || prototype == nullptr ||
        !prototype->IsObject() || stable == nullptr || !stable->IsArray() ||
        known == nullptr || !known->IsArray()) {
      return Status::InvalidArgument("malformed template entry");
    }
    tmpl.path_symbols = path->AsString();
    auto read_int = [](const JsonValue* object, const char* key, int* out) {
      const JsonValue* value = object->Find(key);
      if (value == nullptr || !value->IsNumber()) return false;
      *out = static_cast<int>(value->AsInt());
      return true;
    };
    const JsonValue* proto_path = prototype->Find("path_symbols");
    if (proto_path == nullptr || !proto_path->IsString() ||
        !read_int(prototype, "fanout", &tmpl.prototype.fanout) ||
        !read_int(prototype, "depth", &tmpl.prototype.depth) ||
        !read_int(prototype, "num_nodes", &tmpl.prototype.num_nodes)) {
      return Status::InvalidArgument("malformed prototype");
    }
    tmpl.prototype.path_symbols = proto_path->AsString();
    if (support != nullptr && support->IsNumber()) {
      tmpl.support = static_cast<int>(support->AsInt());
    }
    if (max_distance != nullptr && max_distance->IsNumber()) {
      tmpl.max_distance = max_distance->AsDouble();
    }
    if (min_stable != nullptr && min_stable->IsNumber()) {
      tmpl.min_stable_match = min_stable->AsDouble();
    }
    std::vector<ir::VectorEntry> stable_entries;
    for (const JsonValue& pair : stable->items()) {
      if (!pair.IsArray() || pair.items().size() != 2 ||
          !pair.items()[0].IsString() || !pair.items()[1].IsNumber()) {
        return Status::InvalidArgument("malformed stable_tags entry");
      }
      stable_entries.push_back(
          {html::InternTag(pair.items()[0].AsString()),
           static_cast<double>(pair.items()[1].AsInt())});
    }
    tmpl.stable_tags = ir::SparseVector::FromPairs(std::move(stable_entries));
    std::vector<ir::VectorEntry> known_entries;
    for (const JsonValue& name : known->items()) {
      if (!name.IsString()) {
        return Status::InvalidArgument("malformed known_tags entry");
      }
      known_entries.push_back({html::InternTag(name.AsString()), 1.0});
    }
    tmpl.known_tags = ir::SparseVector::FromPairs(std::move(known_entries));
    registry.templates_.push_back(std::move(tmpl));
  }
  return registry;
}

}  // namespace thor::core
