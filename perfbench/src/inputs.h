// Inputs of every workload, made from the run's seed.
//
// The generator walks the generated tables (Author, Paper, Writes) and
// never calls the program's indexes. Queries cover the §5.3 classes of the
// paper's evaluation so their costs form a continuum rather than a few
// cost classes.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "storage/database.h"
#include "update/mutation.h"

namespace perfbench {

/// The §5.2 scale: 12K authors, 20K papers, 97,905 nodes. The database
/// is the same in every run (generator seed 42, as in the paper-scale
/// experiments), and so is the query set; the run's seed orders the
/// queries and draws the serving stream and the mutations.
banks::DblpConfig PaperScaleConfig();

struct GenQuery {
  std::string text;
  std::string cls;  ///< coauthor | author_title | title_words | meta | three | anecdote
  bool coauthor = false;  ///< the terms name two authors of one paper
};

/// `n` distinct queries over `db`; queries listed in `exclude` are skipped
/// (the warm-up set is generated first and excluded from the timed set).
std::vector<GenQuery> GenerateQueries(const banks::Database& db,
                                      uint64_t seed, size_t n,
                                      const std::vector<GenQuery>& exclude);

/// One HTTP request of the serving workload.
struct ServeRequest {
  size_t query = 0;  ///< index into the serving query pool
  bool render = false;
};

/// Zipf exponent of the serving stream over its query pool.
inline constexpr double kServeZipf = 1.0;
/// Seed of the fixed map from popularity rank to pool slot.
inline constexpr uint64_t kServePopularitySeed = 17;
/// Share of serving requests that set "render": true.
inline constexpr double kServeRenderShare = 0.1;

std::vector<ServeRequest> GenerateServeStream(uint64_t seed, size_t pool,
                                              size_t n);

/// Draws `n` mutations of one burst and tracks what the benchmark
/// expects the tables to hold afterwards.
class MutationGen {
 public:
  MutationGen(const banks::Database& db, uint64_t seed);

  struct Burst {
    std::vector<banks::Mutation> mutations;
    /// Fresh token -> index of the mutation that carries it (insert or
    /// title update); the tuple must be returned by that token's query.
    std::vector<std::pair<std::string, size_t>> fresh;
    /// Indexes of delete mutations.
    std::vector<size_t> deletes;
  };

  /// Mutation mix per burst: 35% paper inserts (each with one Writes row
  /// to an existing author), 15% author inserts (each with one Writes row
  /// to an existing paper), 20% title updates that append a fresh token,
  /// 30% deletes of base Writes rows.
  Burst Next(size_t n);

  /// Live rows the benchmark expects per table: initial + inserts - deletes.
  const std::vector<int64_t>& expected_live() const { return expected_live_; }

 private:
  std::string FreshToken();

  std::mt19937_64 rng_;
  std::string token_prefix_;
  uint64_t next_token_ = 0;
  uint64_t next_id_ = 0;
  uint32_t author_table_ = 0;
  uint32_t writes_table_ = 0;
  uint32_t paper_table_ = 0;
  std::vector<std::string> author_ids_;
  std::vector<std::string> paper_ids_;
  std::vector<std::string> paper_titles_;
  std::vector<uint32_t> base_writes_rows_;  // shuffled; consumed by deletes
  size_t next_delete_ = 0;
  std::vector<int64_t> expected_live_;
};

/// Applies `mutations` to `db` at the storage layer, in order: the replay
/// that rebuilds the live engine's database independently of the engine.
bool ReplayMutations(const std::vector<banks::Mutation>& mutations,
                     banks::Database* db);

/// Case-folded tokens of `text`: maximal runs of ASCII letters and digits.
std::vector<std::string> Tokens(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
