#include "drain.h"

#include "reference.h"

namespace perfbench {

Drained Drain(const banks::BanksEngine& engine,
              const banks::QueryRequest& request) {
  Drained d;
  const Clock::time_point t0 = Clock::now();
  auto session = engine.OpenSession(request);
  d.open_ms = MsBetween(t0, Clock::now());
  if (!session.ok()) return d;
  d.ok = true;
  banks::QuerySession& s = session.value();
  while (auto answer = s.Next()) {
    if (d.trees.empty()) {
      d.ttfa_ms = MsBetween(t0, Clock::now());
      d.visits_to_first = s.stats().iterator_visits;
    }
    d.ranks.push_back(answer->rank);
    d.trees.push_back(std::move(answer->tree));
  }
  d.ttk_ms = MsBetween(t0, Clock::now());
  d.stats = s.stats();
  d.rid_of = [dg = s.graph_snapshot(), delta = s.delta()](banks::NodeId n) {
    return banks::ResolveRidForNode(*dg, delta.get(), n);
  };
  return d;
}

banks::QueryRequest WithStrategy(const banks::BanksEngine& engine,
                                 const std::string& text,
                                 banks::SearchStrategy strategy) {
  banks::SearchOptions search = engine.options().search;
  search.strategy = strategy;
  return banks::QueryRequest{.text = text, .search = search};
}

}  // namespace perfbench
