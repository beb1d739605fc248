#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "storage/table.h"

namespace perfbench {

using banks::Database;
using banks::Mutation;
using banks::Rid;
using banks::Table;
using banks::Tuple;
using banks::Value;

banks::DblpConfig PaperScaleConfig() {
  banks::DblpConfig config;
  config.num_authors = 12'000;
  config.num_papers = 20'000;
  config.authors_per_paper_mean = 2.2;
  config.cites_per_paper_mean = 1.2;
  config.seed = 42;
  return config;
}

std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      cur.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      cur.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

namespace {

// The §5.3 anecdotes planted by the generator.
const char* const kAnecdotes[] = {
    "soumen sunita",  "gray transaction",     "seltzer sunita",
    "mohan",          "author soumen",        "stonebraker seltzer",
    "gray reuter",    "chakrabarti sarawagi",
};

/// The tables as the generator sees them, read column by column.
struct Corpus {
  std::unordered_map<std::string, std::vector<std::string>> name_tokens;
  std::vector<std::string> paper_ids;
  std::unordered_map<std::string, std::vector<std::string>> title_tokens;
  std::unordered_map<std::string, std::vector<std::string>> paper_authors;
  std::vector<std::string> multi_author_papers;
  std::vector<std::string> authored_papers;
};

/// Words of at least three letters: shorter ones ("a", "of") are glue.
std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& t : Tokens(text)) {
    if (t.size() >= 3) out.push_back(std::move(t));
  }
  return out;
}

Corpus ReadCorpus(const Database& db) {
  Corpus c;
  const Table* authors = db.table(banks::kAuthorTable);
  for (uint32_t r = 0; r < authors->num_rows(); ++r) {
    const Tuple& t = authors->row(r);
    c.name_tokens[t.at(0).AsString()] = Words(t.at(1).AsString());
  }
  const Table* papers = db.table(banks::kPaperTable);
  for (uint32_t r = 0; r < papers->num_rows(); ++r) {
    const Tuple& t = papers->row(r);
    c.paper_ids.push_back(t.at(0).AsString());
    c.title_tokens[t.at(0).AsString()] = Words(t.at(1).AsString());
  }
  const Table* writes = db.table(banks::kWritesTable);
  for (uint32_t r = 0; r < writes->num_rows(); ++r) {
    const Tuple& t = writes->row(r);
    c.paper_authors[t.at(1).AsString()].push_back(t.at(0).AsString());
  }
  for (const std::string& p : c.paper_ids) {
    auto it = c.paper_authors.find(p);
    if (it == c.paper_authors.end()) continue;
    c.authored_papers.push_back(p);
    if (it->second.size() >= 2) c.multi_author_papers.push_back(p);
  }
  return c;
}

template <typename T>
const T& Pick(const std::vector<T>& v, std::mt19937_64* rng) {
  return v[std::uniform_int_distribution<size_t>(0, v.size() - 1)(*rng)];
}

/// A token of `words` that is not in `avoid` ("" if there is none).
std::string PickOther(const std::vector<std::string>& words,
                      const std::vector<std::string>& avoid,
                      std::mt19937_64* rng) {
  std::vector<std::string> ok;
  for (const std::string& w : words) {
    if (std::find(avoid.begin(), avoid.end(), w) == avoid.end()) {
      ok.push_back(w);
    }
  }
  return ok.empty() ? "" : Pick(ok, rng);
}

/// One query of class `cls`, or an empty text when the draw is unusable.
GenQuery Draw(const Corpus& c, const std::string& cls, std::mt19937_64* rng) {
  GenQuery q;
  q.cls = cls;
  std::vector<std::string> terms;
  if (cls == "coauthor" || cls == "three") {
    const std::string& paper = Pick(c.multi_author_papers, rng);
    std::vector<std::string> authors = c.paper_authors.at(paper);
    std::shuffle(authors.begin(), authors.end(), *rng);
    std::string a = PickOther(c.name_tokens.at(authors[0]), {}, rng);
    std::string b = PickOther(c.name_tokens.at(authors[1]), {a}, rng);
    if (a.empty() || b.empty()) return {};
    terms = {a, b};
    if (cls == "three") {
      std::string w = PickOther(c.title_tokens.at(paper), terms, rng);
      if (w.empty()) return {};
      terms.push_back(w);
    }
    q.coauthor = true;
  } else if (cls == "author_title") {
    const std::string& paper = Pick(c.authored_papers, rng);
    const std::string& author = Pick(c.paper_authors.at(paper), rng);
    std::string a = PickOther(c.name_tokens.at(author), {}, rng);
    std::string w = PickOther(c.title_tokens.at(paper), {a}, rng);
    if (a.empty() || w.empty()) return {};
    terms = {a, w};
  } else if (cls == "title_words") {
    const std::string& paper = Pick(c.paper_ids, rng);
    std::string a = PickOther(c.title_tokens.at(paper), {}, rng);
    std::string b = PickOther(c.title_tokens.at(paper), {a}, rng);
    if (a.empty() || b.empty()) return {};
    terms = {a, b};
  } else {  // meta: the relation name "author" with a name ("author soumen")
    const std::string& paper = Pick(c.authored_papers, rng);
    const std::string& author = Pick(c.paper_authors.at(paper), rng);
    std::string a = PickOther(c.name_tokens.at(author), {"author"}, rng);
    if (a.empty()) return {};
    terms = {"author", a};
  }
  for (const std::string& t : terms) {
    q.text += (q.text.empty() ? "" : " ") + t;
  }
  return q;
}

}  // namespace

std::vector<GenQuery> GenerateQueries(const Database& db, uint64_t seed,
                                      size_t n,
                                      const std::vector<GenQuery>& exclude) {
  const Corpus corpus = ReadCorpus(db);
  std::mt19937_64 rng(seed);
  std::unordered_set<std::string> seen;
  for (const GenQuery& q : exclude) seen.insert(q.text);
  std::vector<GenQuery> out;
  // The anecdotes lead the timed set; the warm-up set (which excludes
  // nothing) leaves them out so the two sets stay disjoint.
  if (!exclude.empty()) {
    for (const char* text : kAnecdotes) {
      if (out.size() < n && seen.insert(text).second) {
        out.push_back({text, "anecdote", false});
      }
    }
  }
  static const std::pair<const char*, double> kMix[] = {
      {"coauthor", 0.30}, {"author_title", 0.22}, {"title_words", 0.22},
      {"three", 0.16},    {"meta", 0.10},
  };
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (out.size() < n) {
    double u = unit(rng);
    const char* cls = kMix[0].first;
    for (const auto& [name, share] : kMix) {
      cls = name;
      if (u < share) break;
      u -= share;
    }
    GenQuery q = Draw(corpus, cls, &rng);
    if (q.text.empty() || !seen.insert(q.text).second) continue;
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<ServeRequest> GenerateServeStream(uint64_t seed, size_t pool,
                                              size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<double> cdf(pool);
  double total = 0.0;
  for (size_t r = 0; r < pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kServeZipf);
    cdf[r] = total;
  }
  // Popularity ranks map onto pool slots through a fixed permutation, so
  // the most popular query is not the first one generated; the seed draws
  // the sequence, so every run meets the same popular queries.
  std::vector<size_t> slot(pool);
  for (size_t i = 0; i < pool; ++i) slot[i] = i;
  std::mt19937_64 fixed(kServePopularitySeed);
  std::shuffle(slot.begin(), slot.end(), fixed);
  std::uniform_real_distribution<double> unit(0.0, total);
  std::bernoulli_distribution render(kServeRenderShare);
  // Every pool query is asked at least once, the rest of the stream is
  // drawn by popularity, and the seed shuffles the two together. So every
  // run misses the cache on the same queries: when the seed also chose
  // which queries were asked at all, the set of misses, and with it the
  // p90 made of their search times, changed from run to run.
  std::vector<size_t> asked;
  asked.reserve(n);
  for (size_t q = 0; q < pool && q < n; ++q) asked.push_back(q);
  while (asked.size() < n) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), unit(rng)) - cdf.begin());
    asked.push_back(slot[std::min(rank, pool - 1)]);
  }
  std::shuffle(asked.begin(), asked.end(), rng);
  std::vector<ServeRequest> out;
  out.reserve(n);
  for (size_t q : asked) out.push_back({q, render(rng)});
  return out;
}

MutationGen::MutationGen(const Database& db, uint64_t seed) : rng_(seed) {
  token_prefix_ = "zq" + std::to_string(seed % 100000) + "x";
  const Table* authors = db.table(banks::kAuthorTable);
  author_table_ = authors->id();
  for (uint32_t r = 0; r < authors->num_rows(); ++r) {
    author_ids_.push_back(authors->row(r).at(0).AsString());
  }
  const Table* papers = db.table(banks::kPaperTable);
  paper_table_ = papers->id();
  for (uint32_t r = 0; r < papers->num_rows(); ++r) {
    paper_ids_.push_back(papers->row(r).at(0).AsString());
    paper_titles_.push_back(papers->row(r).at(1).AsString());
  }
  const Table* writes = db.table(banks::kWritesTable);
  writes_table_ = writes->id();
  for (uint32_t r = 0; r < writes->num_rows(); ++r) {
    if (!writes->IsDeleted(r)) base_writes_rows_.push_back(r);
  }
  std::shuffle(base_writes_rows_.begin(), base_writes_rows_.end(), rng_);
  expected_live_.assign(db.num_tables(), 0);
  for (uint32_t t = 0; t < db.num_tables(); ++t) {
    const Table* table = db.table(t);
    for (uint32_t r = 0; r < table->num_rows(); ++r) {
      if (!table->IsDeleted(r)) ++expected_live_[t];
    }
  }
}

std::string MutationGen::FreshToken() {
  return token_prefix_ + std::to_string(next_token_++);
}

MutationGen::Burst MutationGen::Next(size_t n) {
  Burst burst;
  auto& m = burst.mutations;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto insert = [&](const char* table, uint32_t id, std::vector<Value> values) {
    m.push_back(Mutation::Insert(table, Tuple(std::move(values))));
    ++expected_live_[id];
  };
  while (m.size() < n) {
    const double u = unit(rng_);
    const bool pair_fits = m.size() + 2 <= n;
    if (u < 0.35 && pair_fits) {
      std::string id = "PX" + std::to_string(next_id_++);
      std::string token = FreshToken();
      const std::vector<std::string> words = Words(Pick(paper_titles_, &rng_));
      std::string title = token;
      for (size_t i = 0; i < words.size() && i < 2; ++i) title += " " + words[i];
      burst.fresh.emplace_back(token, m.size());
      insert(banks::kPaperTable, paper_table_, {Value(id), Value(title)});
      insert(banks::kWritesTable, writes_table_, {Value(Pick(author_ids_, &rng_)), Value(id)});
    } else if (u < 0.50 && pair_fits) {
      std::string id = "AX" + std::to_string(next_id_++);
      std::string token = FreshToken();
      burst.fresh.emplace_back(token, m.size());
      insert(banks::kAuthorTable, author_table_, {Value(id), Value(token)});
      insert(banks::kWritesTable, writes_table_, {Value(id), Value(Pick(paper_ids_, &rng_))});
    } else if (u < 0.70) {
      const uint32_t row = static_cast<uint32_t>(
          std::uniform_int_distribution<size_t>(0, paper_titles_.size() - 1)(
              rng_));
      std::string token = FreshToken();
      // Appending keeps every old word: stale postings of replaced words
      // are a documented overlay property, not something to test here.
      paper_titles_[row] += " " + token;
      burst.fresh.emplace_back(token, m.size());
      m.push_back(Mutation::Update(Rid{paper_table_, row}, "PaperName",
                                   Value(paper_titles_[row])));
    } else if (next_delete_ < base_writes_rows_.size()) {
      burst.deletes.push_back(m.size());
      --expected_live_[writes_table_];
      m.push_back(Mutation::Delete(
          Rid{writes_table_, base_writes_rows_[next_delete_++]}));
    }
  }
  return burst;
}

bool ReplayMutations(const std::vector<Mutation>& mutations, Database* db) {
  for (const Mutation& m : mutations) {
    switch (m.kind) {
      case Mutation::Kind::kInsert:
        if (!db->Insert(m.table, m.tuple).ok()) return false;
        break;
      case Mutation::Kind::kDelete:
        if (!db->Delete(m.rid).ok()) return false;
        break;
      case Mutation::Kind::kUpdate:
        if (!db->UpdateValue(m.rid, m.column, m.value).ok()) return false;
        break;
    }
  }
  return true;
}

}  // namespace perfbench
