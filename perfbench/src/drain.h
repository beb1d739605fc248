// Opening and draining one query session, with the timings and the
// snapshot mapping the checks need.
#ifndef PERFBENCH_DRAIN_H_
#define PERFBENCH_DRAIN_H_

#include <string>
#include <vector>

#include "checks.h"
#include "core/banks.h"

namespace perfbench {

struct Drained {
  bool ok = false;  ///< OpenSession succeeded
  std::vector<banks::ConnectionTree> trees;
  std::vector<size_t> ranks;
  RidOf rid_of;  ///< NodeId -> Rid at the session's snapshot
  banks::SearchStats stats;
  size_t visits_to_first = 0;
  double open_ms = 0.0;
  double ttfa_ms = -1.0;  ///< -1: no answer
  double ttk_ms = 0.0;
};

/// OpenSession + Next until the stream ends; times from the call.
Drained Drain(const banks::BanksEngine& engine,
              const banks::QueryRequest& request);

/// `text` under `strategy`, with the engine's other search defaults.
banks::QueryRequest WithStrategy(const banks::BanksEngine& engine,
                                 const std::string& text,
                                 banks::SearchStrategy strategy);

}  // namespace perfbench

#endif  // PERFBENCH_DRAIN_H_
