// Seed-replayable mutation test for the HTML parser. Real fleet pages at
// three template-drift epochs are cut up by four operators — splice,
// duplicate, truncate, byte-flip — and every mutant must parse into a
// well-formed tree under any max_nodes cap, with the learning TagTree an
// exact copy of the serving ArenaTree.
//
// A failure names the mutation seed; `Mutant(corpus, seed)` rebuilds the
// offending input byte for byte.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/arena_tree.h"
#include "src/html/tag_tree.h"
#include "src/util/rng.h"

namespace thor::html {
namespace {

constexpr uint64_t kMutants = 10000;
// Caps cycled over the mutants; 0 means unlimited.
constexpr int kCaps[] = {0, 1, 7, 60, 500};

/// Fresh pages (answers, single matches, no-match pages) from a drifting
/// two-site fleet at epochs 0, 1 and 2.
std::vector<std::string> FleetCorpus() {
  deepweb::FleetOptions options;
  options.num_sites = 2;
  options.seed = 11;
  options.drift.seed = 2026;
  std::vector<deepweb::DeepWebSite> fleet =
      deepweb::GenerateSiteFleet(options);
  const char* queries[] = {"window", "garden", "silver", "market",
                           "bridge", "dream",  "castle", "violet",
                           "zzqqx",  "copper", "stone",  "river"};
  std::vector<std::string> corpus;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&fleet, epoch);
    for (auto& site : fleet) {
      for (const char* query : queries) {
        corpus.push_back(site.Query(query).html);
      }
    }
  }
  return corpus;
}

/// A random byte range of `page` as [begin, begin + length).
std::string_view Slice(std::string_view page, Rng& rng) {
  if (page.empty()) return page;
  size_t begin = rng.UniformInt(page.size());
  size_t length = 1 + rng.UniformInt(std::min<size_t>(page.size() - begin,
                                                      512));
  return page.substr(begin, length);
}

/// The mutant for `seed`: one corpus page with one to four operators
/// applied in sequence. Deterministic in (corpus, seed).
std::string Mutant(const std::vector<std::string>& corpus, uint64_t seed) {
  Rng rng(seed);
  std::string page = corpus[rng.UniformInt(corpus.size())];
  // Bytes that steer the lexer: flipping to these reaches the markup paths.
  static constexpr char kMarkup[] = "<>/!?-=\"'& ;#x";
  int operators = 1 + static_cast<int>(rng.UniformInt(4));
  for (int op = 0; op < operators && !page.empty(); ++op) {
    size_t at = rng.UniformInt(page.size() + 1);
    switch (rng.UniformInt(4)) {
      case 0: {  // splice: replace a range with a slice of another page
        std::string_view donor = Slice(corpus[rng.UniformInt(corpus.size())],
                                       rng);
        size_t cut = std::min<size_t>(page.size() - at, rng.UniformInt(256));
        page.replace(at, cut, donor);
        break;
      }
      case 1: {  // duplicate: reinsert a slice of the page itself
        std::string copy(Slice(page, rng));
        page.insert(at, copy);
        break;
      }
      case 2:  // truncate
        page.resize(at);
        break;
      default: {  // byte-flip
        int flips = 1 + static_cast<int>(rng.UniformInt(8));
        for (int f = 0; f < flips && !page.empty(); ++f) {
          size_t i = rng.UniformInt(page.size());
          page[i] = rng.Bernoulli(0.5)
                        ? kMarkup[rng.UniformInt(sizeof(kMarkup) - 1)]
                        : static_cast<char>(rng.UniformInt(256));
        }
      }
    }
  }
  return page;
}

/// Structural invariants of one parse, plus node-for-node equality of the
/// TagTree copy. Stops at the first broken node.
void ExpectWellFormed(const ArenaTree& hot, const TagTree& copy,
                      size_t input_size, int cap) {
  ASSERT_GE(hot.node_count(), 1);
  // The cap is checked before each token, and one token adds at most three
  // nodes (synthesized head or body, then the element or text itself).
  if (cap > 0) {
    ASSERT_LT(hot.node_count(), cap + 3);
  }
  // Text never outgrows its source bytes; each distinct tag path adds its
  // symbol string (one byte per hop), which stays small on real nesting.
  ASSERT_LE(hot.arena().bytes_used(), 4 * input_size + 4096);
  ASSERT_EQ(copy.node_count(), hot.node_count());

  std::vector<int32_t> subtree(static_cast<size_t>(hot.node_count()), 1);
  std::vector<int32_t> content(static_cast<size_t>(hot.node_count()), 0);
  std::vector<int32_t> fanout(static_cast<size_t>(hot.node_count()), 0);
  for (NodeId id = hot.node_count(); id-- > 0;) {
    const ArenaNode& n = hot.node(id);
    SCOPED_TRACE("node " + std::to_string(id));
    content[id] += static_cast<int32_t>(n.text_size);
    if (id == hot.root()) {
      ASSERT_EQ(n.parent, kInvalidNode);
      ASSERT_EQ(n.depth, 0);
    } else {
      ASSERT_GE(n.parent, 0);
      ASSERT_LT(n.parent, id) << "parent must precede child";
      ASSERT_TRUE(hot.node(n.parent).is_tag());
      ASSERT_EQ(n.depth, hot.node(n.parent).depth + 1);
      subtree[n.parent] += subtree[id];
      content[n.parent] += content[id];
      ++fanout[n.parent];
    }
    if (!n.is_tag()) {
      ASSERT_GT(n.text_size, 0u);
    }
    ASSERT_EQ(n.subtree_size, subtree[id]);
    ASSERT_EQ(n.content_length, content[id]);
    ASSERT_EQ(n.fanout, fanout[id]);

    const Node& c = copy.node(id);
    ASSERT_EQ(c.kind == NodeKind::kTag, n.is_tag());
    ASSERT_EQ(c.tag, n.tag);
    ASSERT_EQ(c.text, n.text());
    ASSERT_EQ(c.parent, n.parent);
    ASSERT_EQ(copy.Fanout(id), n.fanout);
    ASSERT_EQ(c.depth, n.depth);
    ASSERT_EQ(c.subtree_size, n.subtree_size);
    ASSERT_EQ(c.content_length, n.content_length);
  }
}

TEST(HtmlMutationTest, MutantsParseIntoWellFormedTreesAndExactCopies) {
  const std::vector<std::string> corpus = FleetCorpus();
  ASSERT_EQ(corpus.size(), 72u);
  HotParser parser;
  ParseOptions options;
  for (uint64_t seed = 1; seed <= kMutants; ++seed) {
    std::string input = Mutant(corpus, seed);
    options.max_nodes = kCaps[seed % std::size(kCaps)];
    SCOPED_TRACE("mutation seed " + std::to_string(seed) + ", max_nodes " +
                 std::to_string(options.max_nodes) + ", " +
                 std::to_string(input.size()) + " bytes");
    const ArenaTree& hot = parser.Parse(input, options);
    TagTree copy = parser.ToTagTree();
    ExpectWellFormed(hot, copy, input.size(), options.max_nodes);
    if (HasFailure()) return;  // one seed is enough to replay
  }
}

}  // namespace
}  // namespace thor::html
