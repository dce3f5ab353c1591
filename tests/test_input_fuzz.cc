// Deterministic mutation fuzz of the text input surfaces: edge lists
// (core/graph_io.h) and lhg-plan files (lhg/plan_io.h).
//
// Seed corpora are the writers' own output for small LHGs plus the
// malformed inputs the GraphIo and PlanIo tests already reject.  Each
// mutant applies one to three seeded edits — a byte flipped, inserted
// or deleted; a token replaced by 0, -1, 2^31, 2^63 or a 40-digit run;
// a line duplicated or dropped — and must then either parse or be
// rejected with std::invalid_argument: no crash, hang, abort, or any
// other exception.  Every mutant is a pure function of its index, so a
// failure names the index and replays exactly.

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_io.h"
#include "core/rng.h"
#include "lhg/lhg.h"
#include "lhg/plan_io.h"

namespace lhg {
namespace {

std::vector<std::string> edge_list_corpus() {
  std::vector<std::string> corpus;
  for (const auto& [n, k] : {std::pair{8, 3}, {13, 3}, {20, 4}, {11, 5}}) {
    corpus.push_back(core::to_edge_list_string(build(n, k)));
  }
  for (const char* text :
       {"", "abc\n", "3 2\n0 1\n", "3 1\n0 bad\n", "3 1\n0 9\n", "-2 0\n",
        "2000000000 1\n0 1\n", "5000000000 1\n0 1\n",
        "3 4\n0 1\n1 2\n0 2\n0 1\n", "1000 400000000000\n0 1\n",
        "3 3\n0 1\n1 2\n0 1", "3 2\n0 1\n1 0\n", "3 1\n0 1\n1 2\n",
        "3 1\n0 4294967297\n", "# a comment\n3 1\n# another\n0 2\n"}) {
    corpus.emplace_back(text);
  }
  return corpus;
}

std::vector<std::string> plan_corpus() {
  std::vector<std::string> corpus;
  for (const Constraint c :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    corpus.push_back(to_plan_string(plan(22, 3, c)));
  }
  corpus.push_back(to_plan_string(plan(9, 3, Constraint::kKTree)));
  corpus.push_back(to_plan_string(plan(37, 4, Constraint::kKDiamond)));
  for (const char* text :
       {"", "bogus 1\n", "lhg-plan 2\n", "lhg-plan 1\nk 1\n",
        "lhg-plan 1\nk 3\ninteriors 0\n",
        "lhg-plan 1\nk 3\ninteriors 2\nparents 5\nleaves 0\n",
        "lhg-plan 1\nk 3\ninteriors 1\nleaves 1\nleaf 0 purple\n",
        "lhg-plan 1\nk 3\ninteriors 1\nleaves 1\nleaf 7 shared\n",
        "lhg-plan 1\nk 3\ninteriors 1\nleaves 2\nleaf 0 shared\n",
        "lhg-plan 1\nk 4\ninteriors 2000000000\n",
        "lhg-plan 1\nk 2000000000\ninteriors 1\nleaves 0\n",
        "lhg-plan 1\nk 3\ninteriors 1\nleaves 2000000000\nleaf 0 shared\n",
        "lhg-plan 1\nk 4 junk\ninteriors 1\nleaves 0\n",
        "lhg-plan 1\nk 3\ninteriors 2\nparents 0 7 9\nleaves 0\n",
        "lhg-plan 1\nk 3\ninteriors 1\nleaves 3\nleaf 0 shared\n"
        "leaf 0 shared\nleaf 0 shared\nleaf 0 shared\n"}) {
    corpus.emplace_back(text);
  }
  return corpus;
}

// Replacement tokens: the boundaries a numeric field is most likely to
// mishandle (zero, negative, just past int32 and int64, unbounded).
constexpr const char* kTokens[] = {
    "0", "-1", "2147483648", "9223372036854775808",
    "1234567890123456789012345678901234567890"};

// Bytes an inserted or flipped byte is drawn from, weighted toward the
// format's own alphabet so mutants stay near the grammar.
constexpr char kBytes[] = "0123456789 -\n#ekslrv\t+x\x7f";

std::size_t pick(core::Rng& rng, std::size_t bound) {
  return static_cast<std::size_t>(rng.next_below(bound));
}

// [begin, end) of every maximal run of non-whitespace bytes.
std::vector<std::pair<std::size_t, std::size_t>> tokens(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t begin = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > begin) spans.emplace_back(begin, i);
  }
  return spans;
}

// [begin, end) of every line, its newline included.
std::vector<std::pair<std::size_t, std::size_t>> lines(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t begin = 0;
  while (begin < s.size()) {
    std::size_t end = s.find('\n', begin);
    end = end == std::string::npos ? s.size() : end + 1;
    spans.emplace_back(begin, end);
    begin = end;
  }
  return spans;
}

void mutate_once(std::string& s, core::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:  // flip one bit of a byte
      if (!s.empty()) {
        s[pick(rng, s.size())] ^= static_cast<char>(1 << rng.next_below(8));
      }
      return;
    case 1:  // insert a byte
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(rng, s.size() + 1)),
               kBytes[pick(rng, sizeof(kBytes) - 1)]);
      return;
    case 2:  // delete a byte
      if (!s.empty()) {
        s.erase(s.begin() + static_cast<std::ptrdiff_t>(pick(rng, s.size())));
      }
      return;
    case 3: {  // replace a token
      const auto spans = tokens(s);
      if (spans.empty()) return;
      const auto [begin, end] = spans[pick(rng, spans.size())];
      s.replace(begin, end - begin, kTokens[pick(rng, std::size(kTokens))]);
      return;
    }
    case 4: {  // duplicate a line
      const auto spans = lines(s);
      if (spans.empty()) return;
      const auto [begin, end] = spans[pick(rng, spans.size())];
      std::string line = s.substr(begin, end - begin);
      if (line.back() != '\n') line += '\n';
      s.insert(begin, line);
      return;
    }
    default: {  // drop a line
      const auto spans = lines(s);
      if (spans.empty()) return;
      const auto [begin, end] = spans[pick(rng, spans.size())];
      s.erase(begin, end - begin);
      return;
    }
  }
}

/// Mutant `index` of `corpus`: a seed input picked and edited one to
/// three times, all from the index's own stream.
std::string mutant(const std::vector<std::string>& corpus,
                   std::uint64_t index) {
  core::Rng rng = core::Rng::stream(0xf022, index);
  std::string s = corpus[pick(rng, corpus.size())];
  const std::uint64_t edits = 1 + rng.next_below(3);
  for (std::uint64_t e = 0; e < edits; ++e) mutate_once(s, rng);
  return s;
}

struct Tally {
  std::int64_t parsed = 0;
  std::int64_t rejected = 0;
};

/// Feeds mutants [0, count) to `parse`; anything but a return or a
/// std::invalid_argument fails the test with the mutant's index.
template <typename Parse>
Tally fuzz(const std::vector<std::string>& corpus, std::uint64_t count,
           Parse parse) {
  Tally tally;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string text = mutant(corpus, i);
    try {
      parse(text);
      ++tally.parsed;
    } catch (const std::invalid_argument&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << "\n"
                    << text;
    }
  }
  return tally;
}

void expect_both_outcomes(const Tally& tally) {
  // The mutants must exercise the accept path as well as the reject
  // path, or the fuzz only ever tests the first check.
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(InputFuzz, EdgeListMutantsParseOrReject) {
  expect_both_outcomes(fuzz(edge_list_corpus(), 400, [](const std::string& t) {
    core::from_edge_list_string(t);
  }));
}

TEST(InputFuzz, PlanMutantsParseOrReject) {
  expect_both_outcomes(fuzz(plan_corpus(), 400, [](const std::string& t) {
    from_plan_string(t);
  }));
}

TEST(InputFuzzSlow, EdgeListThousandsOfMutants) {
  expect_both_outcomes(
      fuzz(edge_list_corpus(), 20000,
           [](const std::string& t) { core::from_edge_list_string(t); }));
}

TEST(InputFuzzSlow, PlanThousandsOfMutants) {
  expect_both_outcomes(fuzz(plan_corpus(), 20000, [](const std::string& t) {
    from_plan_string(t);
  }));
}

}  // namespace
}  // namespace lhg
