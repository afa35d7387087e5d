#include "market/relation_generator.h"

namespace rtgcn::market {

RelationData GenerateRelations(const StockUniverse& universe,
                               const RelationConfig& config, Rng* rng) {
  const int64_t n = universe.size();
  const int64_t num_industries = universe.num_industries();
  const int64_t k = num_industries + config.num_wiki_types;

  RelationData data{graph::RelationTensor(n, k), num_industries,
                    config.num_wiki_types, /*wiki_links=*/{}};

  // Industry relations: clique per industry, typed by the industry id.
  for (int64_t ind = 0; ind < num_industries; ++ind) {
    const auto members = universe.IndustryMembers(ind);
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        data.relations.AddRelation(members[a], members[b], ind).Abort();
      }
    }
  }

  // Wiki relations: sparse directional facts. Sources are biased towards
  // large-cap companies (big customers/owners influence small suppliers).
  // A single-stock universe has no valid (src, dst) pair at all, so wiki
  // generation is skipped entirely (the old (dst + 1) % n fixup mapped back
  // onto src and aborted the process on the self-relation check).
  if (config.num_wiki_types > 0 && n >= 2) {
    std::vector<double> cap_weights(n);
    for (int64_t i = 0; i < n; ++i) {
      cap_weights[i] = universe.stock(i).market_cap;
    }
    const int64_t num_links = static_cast<int64_t>(
        config.wiki_links_per_stock * static_cast<double>(n));
    for (int64_t l = 0; l < num_links; ++l) {
      const int64_t src = static_cast<int64_t>(rng->Categorical(cap_weights));
      int64_t dst = static_cast<int64_t>(rng->UniformInt(n));
      while (dst == src) dst = static_cast<int64_t>(rng->UniformInt(n));
      const int32_t type = static_cast<int32_t>(
          num_industries + rng->UniformInt(config.num_wiki_types));
      // Record the link only when it is a new (pair, type) fact —
      // AddRelation dedups, and wiki_links must not overstate the edge
      // count the simulator and Table III report.
      const bool is_new = !data.relations.HasRelation(src, dst, type);
      data.relations.AddRelation(src, dst, type).Abort();
      if (is_new) data.wiki_links.push_back({src, dst, type});
    }
  }
  return data;
}

}  // namespace rtgcn::market
