// Output checks. Each checker takes plain data and returns an empty string
// when the output is correct, else a description of the first fault. The
// checks compare against properties of the data and independent
// computations, never against a stored copy of an earlier output; they
// run outside every timed region. `selftest.cc` hands each checker one
// corrupted input and confirms that it fails.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/answer.h"
#include "storage/database.h"

namespace perfbench {

/// Maps a NodeId of the answer's snapshot to its tuple.
using RidOf = std::function<banks::Rid(banks::NodeId)>;

/// One answer of a keyword query with terms `terms`:
///  - each term's leaf is a node of the tree, and its tuple holds the term
///    in a text column (by the benchmark's own case-folded tokenisation)
///    or the term names the tuple's table or one of its columns;
///  - every edge joins two tuples linked by a foreign key, read from the
///    column values in storage;
///  - the root is not a Writes or Cites tuple;
///  - relevance lies in [0, 1].
std::string CheckAnswer(const banks::Database& db,
                        const std::vector<std::string>& terms,
                        const banks::ConnectionTree& tree, const RidOf& rid_of);

/// All answers of one query: at most `k`, no two the same tree (same root
/// and edge set), each passing CheckAnswer.
std::string CheckAnswers(const banks::Database& db,
                         const std::vector<std::string>& terms,
                         const std::vector<banks::ConnectionTree>& trees,
                         size_t k, const RidOf& rid_of);

/// No node of `tree` is a tuple in `deleted` (packed Rids).
std::string CheckNoDeleted(const banks::ConnectionTree& tree,
                           const RidOf& rid_of,
                           const std::unordered_set<uint64_t>& deleted);

/// The tuple `expected` is a node of one of `trees` (the answers of its
/// fresh token's query).
std::string CheckFreshReturned(const std::vector<banks::ConnectionTree>& trees,
                               const RidOf& rid_of, banks::Rid expected);

/// One HTTP response of POST /query: status 200, its answer lines equal
/// `expected_lines`, and its summary line's answer count equals the
/// number of answer lines.
std::string CheckServeResponse(int status, const std::string& body,
                               const std::vector<std::string>& expected_lines);

/// Live rows per table equal `expected` (indexed by table id).
std::string CheckLiveRows(const banks::Database& db,
                          const std::vector<int64_t>& expected);

/// A storage-level signature of an answer: tuples, not per-epoch NodeIds,
/// plus its scores. Two engines over the same data must agree on it.
std::string AnswerSignature(const banks::ConnectionTree& tree,
                            const RidOf& rid_of);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
