#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "datagen/dblp_gen.h"
#include "inputs.h"
#include "storage/table.h"

namespace perfbench {

using banks::ConnectionTree;
using banks::Database;
using banks::NodeId;
using banks::Rid;
using banks::Table;
using banks::Tuple;

namespace {

/// The generated schema's foreign keys: (table, column) references the
/// primary-key column (to_table, to_column).
struct Fk {
  const char* table;
  const char* column;
  const char* to_table;
  const char* to_column;
};
constexpr Fk kForeignKeys[] = {
    {banks::kWritesTable, "AuthorId", banks::kAuthorTable, "AuthorId"},
    {banks::kWritesTable, "PaperId", banks::kPaperTable, "PaperId"},
    {banks::kCitesTable, "Citing", banks::kPaperTable, "PaperId"},
    {banks::kCitesTable, "Cited", banks::kPaperTable, "PaperId"},
};

const banks::Value* Column(const Database& db, Rid rid, const char* column) {
  const Table* table = db.table(rid.table_id);
  const Tuple* tuple = db.Get(rid);
  if (table == nullptr || tuple == nullptr) return nullptr;
  auto index = table->schema().ColumnIndex(column);
  if (!index.has_value() || *index >= tuple->size()) return nullptr;
  return &tuple->at(*index);
}

/// Name of the tuple's table ("" for a Rid outside the database).
std::string TableName(const Database& db, Rid rid) {
  const Table* table = db.table(rid.table_id);
  return table == nullptr ? "" : table->name();
}

/// `from` holds a foreign key whose value is `to`'s key.
bool References(const Database& db, Rid from, Rid to) {
  const std::string from_table = TableName(db, from);
  const std::string to_table = TableName(db, to);
  for (const Fk& fk : kForeignKeys) {
    if (from_table != fk.table || to_table != fk.to_table) continue;
    const banks::Value* a = Column(db, from, fk.column);
    const banks::Value* b = Column(db, to, fk.to_column);
    if (a != nullptr && b != nullptr && *a == *b) return true;
  }
  return false;
}

bool HoldsTerm(const Database& db, Rid rid, const std::string& term) {
  const Table* table = db.table(rid.table_id);
  const Tuple* tuple = db.Get(rid);
  if (table == nullptr || tuple == nullptr) return false;
  auto names = [&](const std::string& name) {
    std::vector<std::string> t = Tokens(name);
    return std::find(t.begin(), t.end(), term) != t.end();
  };
  if (names(table->name())) return true;
  for (const auto& column : table->schema().columns()) {
    if (names(column.name)) return true;
  }
  for (const banks::Value& v : tuple->values()) {
    if (v.type() != banks::ValueType::kString) continue;
    std::vector<std::string> t = Tokens(v.AsString());
    if (std::find(t.begin(), t.end(), term) != t.end()) return true;
  }
  return false;
}

std::string Describe(const Database& db, Rid rid) {
  return TableName(db, rid) + "#" + std::to_string(rid.row);
}

}  // namespace

std::string CheckAnswer(const Database& db,
                        const std::vector<std::string>& terms,
                        const ConnectionTree& tree, const RidOf& rid_of) {
  if (!(tree.relevance >= 0.0 && tree.relevance <= 1.0)) {
    return "relevance " + std::to_string(tree.relevance) + " outside [0, 1]";
  }
  const Rid root = rid_of(tree.root);
  const std::string root_table = TableName(db, root);
  if (root_table.empty()) return "root is not a tuple of the database";
  if (root_table == banks::kWritesTable || root_table == banks::kCitesTable) {
    return "root " + Describe(db, root) + " is a link tuple";
  }
  std::set<NodeId> nodes = {tree.root};
  for (const banks::TreeEdge& e : tree.edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
    const Rid a = rid_of(e.from);
    const Rid b = rid_of(e.to);
    if (!References(db, a, b) && !References(db, b, a)) {
      return "edge " + Describe(db, a) + " - " + Describe(db, b) +
             " joins tuples no foreign key links";
    }
  }
  if (tree.leaf_for_term.size() != terms.size()) {
    return "answer has " + std::to_string(tree.leaf_for_term.size()) +
           " leaves for " + std::to_string(terms.size()) + " terms";
  }
  for (size_t i = 0; i < terms.size(); ++i) {
    const NodeId leaf = tree.leaf_for_term[i];
    if (nodes.count(leaf) == 0) {
      return "leaf of '" + terms[i] + "' is not in the tree";
    }
    const Rid rid = rid_of(leaf);
    if (!HoldsTerm(db, rid, terms[i])) {
      return "leaf " + Describe(db, rid) + " does not hold '" + terms[i] + "'";
    }
  }
  return "";
}

std::string CheckAnswers(const Database& db,
                         const std::vector<std::string>& terms,
                         const std::vector<ConnectionTree>& trees, size_t k,
                         const RidOf& rid_of) {
  if (trees.size() > k) {
    return std::to_string(trees.size()) + " answers, more than k";
  }
  std::set<std::pair<NodeId, std::vector<std::pair<NodeId, NodeId>>>> seen;
  for (const ConnectionTree& tree : trees) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (const banks::TreeEdge& e : tree.edges) edges.emplace_back(e.from, e.to);
    std::sort(edges.begin(), edges.end());
    if (!seen.emplace(tree.root, std::move(edges)).second) {
      return "two answers are the same tree";
    }
    std::string error = CheckAnswer(db, terms, tree, rid_of);
    if (!error.empty()) return error;
  }
  return "";
}

std::string CheckNoDeleted(const ConnectionTree& tree, const RidOf& rid_of,
                           const std::unordered_set<uint64_t>& deleted) {
  for (NodeId n : tree.Nodes()) {
    if (deleted.count(rid_of(n).Pack()) != 0) {
      return "deleted tuple " + rid_of(n).ToString() + " in an answer";
    }
  }
  return "";
}

std::string CheckFreshReturned(const std::vector<ConnectionTree>& trees,
                               const RidOf& rid_of, Rid expected) {
  for (const ConnectionTree& tree : trees) {
    for (NodeId n : tree.Nodes()) {
      if (rid_of(n) == expected) return "";
    }
  }
  return "tuple " + expected.ToString() + " missing from its token's answers";
}

std::string CheckServeResponse(int status, const std::string& body,
                               const std::vector<std::string>& expected_lines) {
  if (status != 200) return "HTTP status " + std::to_string(status);
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) return "unterminated NDJSON line";
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.empty()) return "no summary line";
  const std::string summary = lines.back();
  lines.pop_back();
  const std::string key = "{\"done\":true,\"answers\":";
  if (summary.compare(0, key.size(), key) != 0) {
    return "last line is not a summary";
  }
  const unsigned long count = std::strtoul(summary.c_str() + key.size(),
                                           nullptr, 10);
  if (count != lines.size()) {
    return "summary counts " + std::to_string(count) + " answers, stream has " +
           std::to_string(lines.size());
  }
  if (lines.size() != expected_lines.size()) {
    return std::to_string(lines.size()) + " answer lines, in-process drain has " +
           std::to_string(expected_lines.size());
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] != expected_lines[i]) {
      return "answer line " + std::to_string(i) + " differs from the drain";
    }
  }
  return "";
}

std::string CheckLiveRows(const Database& db,
                          const std::vector<int64_t>& expected) {
  for (uint32_t t = 0; t < db.num_tables(); ++t) {
    const Table* table = db.table(t);
    int64_t live = 0;
    for (uint32_t r = 0; r < table->num_rows(); ++r) {
      if (!table->IsDeleted(r)) ++live;
    }
    if (t >= expected.size() || live != expected[t]) {
      return table->name() + " holds " + std::to_string(live) +
             " live rows, expected " +
             std::to_string(t < expected.size() ? expected[t] : -1);
    }
  }
  return "";
}

std::string AnswerSignature(const ConnectionTree& tree, const RidOf& rid_of) {
  char scores[64];
  std::snprintf(scores, sizeof(scores), "%.17g/%.17g", tree.relevance,
                tree.tree_weight);
  std::vector<std::string> edges;
  for (const banks::TreeEdge& e : tree.edges) {
    edges.push_back(rid_of(e.from).ToString() + ">" + rid_of(e.to).ToString());
  }
  std::sort(edges.begin(), edges.end());
  std::string out = rid_of(tree.root).ToString() + " " + scores;
  for (const std::string& e : edges) out += " " + e;
  out += " leaves";
  for (NodeId n : tree.leaf_for_term) out += " " + rid_of(n).ToString();
  return out;
}

}  // namespace perfbench
