// Self-test of the output checks: each checker gets a correct input, which
// it must accept, and one corrupted copy, which it must reject.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "drain.h"
#include "eval/workload.h"
#include "server/net/banks_service.h"
#include "storage/table.h"

namespace perfbench {

namespace {

using banks::ConnectionTree;
using banks::NodeId;
using banks::Rid;

int failures = 0;

void Expect(const std::string& name, const std::string& clean,
            const std::string& corrupt) {
  if (!clean.empty()) {
    std::printf("FAIL %s: the correct input is rejected: %s\n", name.c_str(),
                clean.c_str());
    ++failures;
  } else if (corrupt.empty()) {
    std::printf("FAIL %s: the corrupted input is accepted\n", name.c_str());
    ++failures;
  } else {
    std::printf("ok   %s: rejected (%s)\n", name.c_str(), corrupt.c_str());
  }
}

}  // namespace

int RunSelfTest() {
  banks::DblpConfig config;  // small: 500 authors, 1000 papers
  banks::BanksEngine engine(banks::GenerateDblp(config).db,
                            banks::EvalWorkload::DefaultOptions());
  const banks::Database& db = engine.db();
  const uint32_t writes = db.table(banks::kWritesTable)->id();
  const uint32_t authors = db.table(banks::kAuthorTable)->id();

  const std::vector<std::string> terms = {"soumen", "sunita"};
  Drained d = Drain(engine, banks::QueryRequest{.text = "soumen sunita"});
  if (d.trees.empty()) {
    std::printf("FAIL no answer to 'soumen sunita' to corrupt\n");
    return 1;
  }
  const ConnectionTree& tree = d.trees.front();
  const std::string clean = CheckAnswer(db, terms, tree, d.rid_of);

  // A Writes node of the tree, and the edge that joins it to an author.
  NodeId link = banks::kInvalidNode;
  size_t author_edge = tree.edges.size();
  for (size_t i = 0; i < tree.edges.size(); ++i) {
    const banks::TreeEdge& e = tree.edges[i];
    const Rid from = d.rid_of(e.from), to = d.rid_of(e.to);
    if (from.table_id == writes) link = e.from;
    if (to.table_id == writes) link = e.to;
    if ((from.table_id == writes && to.table_id == authors) ||
        (to.table_id == writes && from.table_id == authors)) {
      author_edge = i;
    }
  }
  if (link == banks::kInvalidNode || author_edge == tree.edges.size()) {
    std::printf("FAIL the answer has no Writes-Author edge to corrupt\n");
    return 1;
  }

  ConnectionTree leaf_swap = tree;
  leaf_swap.leaf_for_term[0] = link;  // a Writes tuple holds no name
  Expect("leaf swapped for a tuple without the keyword", clean,
         CheckAnswer(db, terms, leaf_swap, d.rid_of));

  // Re-point the author end of the edge at another author: the Writes
  // row's AuthorId no longer matches, read from storage.
  ConnectionTree unlinked = tree;
  banks::TreeEdge& e = unlinked.edges[author_edge];
  NodeId& author_end = d.rid_of(e.from).table_id == authors ? e.from : e.to;
  const Rid old_author = d.rid_of(author_end);
  const banks::DataGraph& dg = engine.data_graph();
  for (NodeId n = 0; n < dg.node_rid.size(); ++n) {
    const Rid r = dg.RidForNode(n);
    if (r.table_id == authors && r != old_author) {
      author_end = n;
      break;
    }
  }
  Expect("edge between two unlinked tuples", clean,
         CheckAnswer(db, terms, unlinked, d.rid_of));

  ConnectionTree link_root = tree;
  link_root.root = link;
  Expect("root in Writes", clean, CheckAnswer(db, terms, link_root, d.rid_of));

  // One byte changed in an HTTP answer line.
  std::vector<std::string> lines;
  std::string body;
  for (size_t i = 0; i < d.trees.size(); ++i) {
    lines.push_back(banks::server::net::BanksService::AnswerJson(
        engine, d.trees[i], d.ranks[i], false));
    body += lines.back() + "\n";
  }
  body += "{\"done\":true,\"answers\":" + std::to_string(lines.size()) + "}\n";
  std::string flipped = body;
  flipped[lines.front().size() / 2] ^= 0x01;
  Expect("one byte changed in an HTTP answer line",
         CheckServeResponse(200, body, lines),
         CheckServeResponse(200, flipped, lines));

  // A refused request (429 when the pool is full), and a dropped one.
  Expect("HTTP status 429 instead of 200",
         CheckServeResponse(200, body, lines),
         CheckServeResponse(429, body, lines));
  Expect("no HTTP response", CheckServeResponse(200, body, lines),
         CheckServeResponse(0, "", lines));

  // An inserted tuple missing from its fresh-token query.
  auto inserted = engine.InsertTuple(
      banks::kPaperTable,
      banks::Tuple({banks::Value("PSELFTEST"), banks::Value("zqselftest query")}));
  if (!inserted.ok()) {
    std::printf("FAIL insert: %s\n", inserted.status().ToString().c_str());
    return 1;
  }
  Drained fresh = Drain(engine, banks::QueryRequest{.text = "zqselftest"});
  std::vector<ConnectionTree> without;
  for (const ConnectionTree& t : fresh.trees) {
    bool has = false;
    for (NodeId n : t.Nodes()) has = has || fresh.rid_of(n) == inserted.value();
    if (!has) without.push_back(t);
  }
  Expect("inserted tuple missing from its fresh-token query",
         CheckFreshReturned(fresh.trees, fresh.rid_of, inserted.value()),
         CheckFreshReturned(without, fresh.rid_of, inserted.value()));

  std::printf("%s: %d of 7 corruptions not caught or correct input rejected\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
