#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.h"
#include "util/rng.h"

namespace {

using msc::graph::Graph;

// ------------------------------------------------------ edge-list grammar ---

/// How a readEdgeList call ends: a graph, or one of the three exception
/// types it can throw (malformed text, endpoint out of range, edge rejected
/// by Graph::addEdge).
enum class Outcome { Parsed, Malformed, OutOfRange, Invalid };

struct ParsedEdge {
  int u;
  int v;
  std::uint64_t lengthBits;  // exact bits, so -0.0 and denormals are pinned
};

struct ReadResult {
  Outcome outcome = Outcome::Parsed;
  int nodes = 0;
  std::vector<ParsedEdge> edges;
};

ReadResult readOutcome(const std::string& text,
                       Graph (*read)(std::istream&)) {
  std::istringstream in(text);
  ReadResult r;
  try {
    const Graph g = read(in);
    r.nodes = g.nodeCount();
    for (const auto& e : g.edges()) {
      r.edges.push_back({e.u, e.v, std::bit_cast<std::uint64_t>(e.length)});
    }
  } catch (const std::runtime_error&) {
    r.outcome = Outcome::Malformed;
  } catch (const std::out_of_range&) {
    r.outcome = Outcome::OutOfRange;
  } catch (const std::invalid_argument&) {
    r.outcome = Outcome::Invalid;
  }
  return r;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The original stream-extraction parser (one std::istringstream per line),
/// kept as the grammar reference readEdgeList must match token for token.
Graph readEdgeListByStream(std::istream& is) {
  std::string line;
  auto nextContentLine = [&](std::string& out) -> bool {
    while (std::getline(is, line)) {
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      out = line;
      return true;
    }
    return false;
  };
  std::string header;
  if (!nextContentLine(header)) throw std::runtime_error("missing header");
  int n = 0;
  std::istringstream hs(header);
  if (!(hs >> n) || n < 0) throw std::runtime_error("malformed node count");
  Graph g(n);
  std::string edgeLine;
  while (nextContentLine(edgeLine)) {
    std::istringstream es(edgeLine);
    int u = 0;
    int v = 0;
    double len = 0.0;
    if (!(es >> u >> v >> len)) throw std::runtime_error("malformed edge");
    g.addEdge(u, v, len);
  }
  return g;
}

struct GrammarCase {
  const char* name;
  std::string text;
  Outcome outcome;
  std::vector<ParsedEdge> edges;  // checked when outcome == Parsed
};

// Every row holds for the stream-extraction grammar the format has always
// had: leading sign, C-locale decimal floats only, anything after the third
// token ignored, and a stream failure (overflow, no digits) as malformed.
std::vector<GrammarCase> grammarTable() {
  const auto P = Outcome::Parsed;
  const auto M = Outcome::Malformed;
  return {
      {"plain", "4\n0 1 0.5\n", P, {{0, 1, bits(0.5)}}},
      {"no final newline", "4\n0 1 0.5", P, {{0, 1, bits(0.5)}}},
      {"leading plus", "+4\n+0 +1 +0.5\n", P, {{0, 1, bits(0.5)}}},
      {"plus dot", "4\n0 1 +.5\n", P, {{0, 1, bits(0.5)}}},
      {"plus minus int", "4\n+-0 1 0.5\n", M, {}},
      {"plus minus length", "4\n0 1 +-1\n", M, {}},
      {"double plus", "4\n0 1 ++1\n", M, {}},
      {"inf", "4\n0 1 inf\n", M, {}},
      {"minus inf", "4\n0 1 -inf\n", M, {}},
      {"infinity", "4\n0 1 infinity\n", M, {}},
      {"nan", "4\n0 1 nan\n", M, {}},
      {"upper nan", "4\n0 1 NAN\n", M, {}},
      {"hex float reads leading zero", "4\n0 1 0x1p-3\n", P,
       {{0, 1, bits(0.0)}}},
      {"overflow", "4\n0 1 1e400\n", M, {}},
      {"overflow past max", "4\n0 1 1.7976931348623159e308\n", M, {}},
      {"max", "4\n0 1 1.7976931348623157e308\n", P,
       {{0, 1, bits(std::numeric_limits<double>::max())}}},
      {"denormal", "4\n0 1 1e-320\n", P, {{0, 1, bits(1e-320)}}},
      {"min denormal", "4\n0 1 4.9e-324\n", P,
       {{0, 1, bits(std::numeric_limits<double>::denorm_min())}}},
      {"underflow to zero", "4\n0 1 1e-400\n", P, {{0, 1, bits(0.0)}}},
      {"underflow to minus zero", "4\n0 1 -1e-400\n", P,
       {{0, 1, bits(-0.0)}}},
      {"minus zero", "4\n0 1 -0\n", P, {{0, 1, bits(-0.0)}}},
      {"round half to even", "4\n0 1 9007199254740993\n", P,
       {{0, 1, bits(9007199254740992.0)}}},
      {"long mantissa", "4\n0 1 0.1000000000000000055511151231257827\n", P,
       {{0, 1, bits(0.1)}}},
      {"zero padded", "4\n03 1 00012.5e-0001\n", P, {{3, 1, bits(1.25)}}},
      {"upper exponent", "4\n0 1 1E3\n", P, {{0, 1, bits(1000.0)}}},
      {"dangling exponent", "4\n0 1 1e\n", M, {}},
      {"dangling exponent sign", "4\n0 1 1e+\n", M, {}},
      {"exponent then letter", "4\n0 1 1ex\n", M, {}},
      {"second exponent ignored", "4\n0 1 1e5e\n", P, {{0, 1, bits(1e5)}}},
      {"leading dot", "4\n0 1 .5\n", P, {{0, 1, bits(0.5)}}},
      {"trailing dot", "4\n0 1 5.\n", P, {{0, 1, bits(5.0)}}},
      {"lone dot", "4\n0 1 .\n", M, {}},
      {"dot exponent", "4\n0 1 .e5\n", M, {}},
      {"second dot ignored", "4\n0 1 1.5.3\n", P, {{0, 1, bits(1.5)}}},
      {"fraction splits into length", "4\n0 1.5 2\n", P,
       {{0, 1, bits(0.5)}}},
      {"trailing tokens", "4\n0 1 0.5 extra 7\n", P, {{0, 1, bits(0.5)}}},
      {"trailing letters", "4\n0 1 0.5abc\n", P, {{0, 1, bits(0.5)}}},
      {"trailing comment", "4\n0 1 0.5 # note\n", P, {{0, 1, bits(0.5)}}},
      {"comment in place of length", "4\n0 1 # 0.5\n", M, {}},
      {"no separator before sign", "4\n0 1-0.5\n", Outcome::Invalid, {}},
      {"negative length", "4\n0 1 -.5\n", Outcome::Invalid, {}},
      {"self loop", "4\n1 1 0.5\n", Outcome::Invalid, {}},
      {"crlf", "4\r\n0 1 0.5\r\n2 3 1.5\r\n", P,
       {{0, 1, bits(0.5)}, {2, 3, bits(1.5)}}},
      {"tabs", "\t4\n\t0\t1\t0.25\t\n", P, {{0, 1, bits(0.25)}}},
      {"vertical tab and form feed", "4\n\v0\f1 0.5\n", P,
       {{0, 1, bits(0.5)}}},
      {"form feed only line", "4\n\f\n", M, {}},
      {"comments and blanks", "# c\n\n  \t\r\n4\n  # x\n\t#y\n0 1 0.5\n", P,
       {{0, 1, bits(0.5)}}},
      {"hex endpoint stops at x", "4\n0x1 1 0.5\n", M, {}},
      {"int past INT_MAX", "4\n2147483648 1 0.5\n", M, {}},
      {"int below INT_MIN", "4\n0 -2147483649 0.5\n", M, {}},
      {"INT_MAX endpoint", "4\n2147483647 1 0.5\n", Outcome::OutOfRange,
       {}},
      {"negative endpoint", "4\n-1 1 0.5\n", Outcome::OutOfRange, {}},
      {"missing length", "4\n0 1\n", M, {}},
      {"endpoint fraction read as length", "4\n0 1.5\n", P,
       {{0, 1, bits(0.5)}}},
      {"empty", "", M, {}},
      {"comment only", "# nothing\n", M, {}},
      {"header past INT_MAX", "2147483648\n", M, {}},
      {"negative header", "-1\n", M, {}},
      {"header trailing tokens", "4 5 x\n0 1 0.5\n", P, {{0, 1, bits(0.5)}}},
      {"fractional header", "4.9\n0 3 0.5\n", P, {{0, 3, bits(0.5)}}},
      {"header without digits", "+\n", M, {}},
  };
}

TEST(GraphIo, GrammarTable) {
  for (const GrammarCase& c : grammarTable()) {
    const ReadResult r = readOutcome(c.text, &msc::graph::readEdgeList);
    ASSERT_EQ(r.outcome, c.outcome) << c.name;
    if (c.outcome != Outcome::Parsed) continue;
    ASSERT_EQ(r.edges.size(), c.edges.size()) << c.name;
    for (std::size_t i = 0; i < c.edges.size(); ++i) {
      EXPECT_EQ(r.edges[i].u, c.edges[i].u) << c.name;
      EXPECT_EQ(r.edges[i].v, c.edges[i].v) << c.name;
      EXPECT_EQ(r.edges[i].lengthBits, c.edges[i].lengthBits) << c.name;
    }
  }
}

/// A random number-like token. Tame tokens are plain (possibly signed or
/// fractional) numbers; wild ones add sign runs, missing digits, exponents,
/// words and junk, so the draws straddle every branch of the grammar.
std::string randomToken(msc::util::Rng& rng, bool wild) {
  static const char* const kTameSigns[] = {"", "", "", "+"};
  static const char* const kWildSigns[] = {"", "+", "-", "+-", "--"};
  static const char* const kWords[] = {"inf", "nan", "infinity", "0x1p3",
                                       "e5", "#"};
  static const char* const kExponents[] = {"1", "08", "400", "320", "3"};
  static const char* const kJunk[] = {"e", "E", "x", ".", "#", "e+", "a"};
  const auto pick = [&](const auto& arr) {
    return std::string(arr[rng.below(std::size(arr))]);
  };
  const auto digits = [&](std::uint64_t minLen, std::uint64_t maxLen) {
    std::string d;
    const auto len = minLen + rng.below(maxLen - minLen + 1);
    for (std::uint64_t i = 0; i < len; ++i) {
      d.push_back(static_cast<char>('0' + rng.below(10)));
    }
    return d;
  };
  std::string t = wild ? pick(kWildSigns) : pick(kTameSigns);
  if (wild && rng.below(4) == 0) return t + pick(kWords);
  t += digits(wild ? 0 : 1, 3);
  if (rng.below(3) == 0) t += "." + digits(0, 3);
  if (wild && rng.below(2) == 0) {
    t += rng.below(2) == 0 ? "e" : "E";
    t += pick(kWildSigns) + pick(kExponents);
  }
  if (wild && rng.below(2) == 0) t += pick(kJunk);
  return t;
}

TEST(GraphIo, GrammarMatchesStreamExtractionOnRandomLines) {
  // Every random edge line must end the same way, with the same bits,
  // under both parsers.
  static const char* const kSeparators[] = {" ", " ", "\t", "  ", "",
                                            "\r", "\v"};
  msc::util::Rng rng(17);
  int parsedEdges = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text = "1000\n";
    const auto lines = 1 + rng.below(3);
    for (std::uint64_t l = 0; l < lines; ++l) {
      for (int tok = 0; tok < 3 + static_cast<int>(rng.below(2)); ++tok) {
        text += kSeparators[rng.below(std::size(kSeparators))];
        text += randomToken(rng, tok == 3 || rng.below(8) == 0);
      }
      text += rng.below(4) == 0 ? "\r\n" : "\n";
    }
    const ReadResult got = readOutcome(text, &msc::graph::readEdgeList);
    const ReadResult want = readOutcome(text, &readEdgeListByStream);
    ASSERT_EQ(got.outcome, want.outcome) << text;
    ASSERT_EQ(got.nodes, want.nodes) << text;
    ASSERT_EQ(got.edges.size(), want.edges.size()) << text;
    for (std::size_t i = 0; i < got.edges.size(); ++i) {
      EXPECT_EQ(got.edges[i].u, want.edges[i].u) << text;
      EXPECT_EQ(got.edges[i].v, want.edges[i].v) << text;
      EXPECT_EQ(got.edges[i].lengthBits, want.edges[i].lengthBits) << text;
    }
    parsedEdges += static_cast<int>(want.edges.size());
  }
  // The draws must exercise the accepting paths, not only rejections.
  EXPECT_GT(parsedEdges, 3000);
}

TEST(GraphIo, EdgeListRoundTrip) {
  Graph g(5);
  g.addEdge(0, 1, 0.25);
  g.addEdge(1, 4, 1.75);
  g.addEdge(2, 3, 0.000001);
  std::stringstream buffer;
  msc::graph::writeEdgeList(buffer, g);
  const Graph back = msc::graph::readEdgeList(buffer);
  EXPECT_EQ(back.nodeCount(), 5);
  ASSERT_EQ(back.edgeCount(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.edges()[i].u, g.edges()[i].u);
    EXPECT_EQ(back.edges()[i].v, g.edges()[i].v);
    EXPECT_DOUBLE_EQ(back.edges()[i].length, g.edges()[i].length);
  }
}

TEST(GraphIo, ReadSkipsCommentsAndBlanks) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "4\n"
      "  # another\n"
      "0 1 0.5\n"
      "\n"
      "2 3 1.5\n");
  const Graph g = msc::graph::readEdgeList(in);
  EXPECT_EQ(g.nodeCount(), 4);
  EXPECT_EQ(g.edgeCount(), 2u);
}

TEST(GraphIo, MalformedInputThrows) {
  {
    std::istringstream in("");
    EXPECT_THROW(msc::graph::readEdgeList(in), std::runtime_error);
  }
  {
    std::istringstream in("abc\n");
    EXPECT_THROW(msc::graph::readEdgeList(in), std::runtime_error);
  }
  {
    std::istringstream in("3\n0 nonsense\n");
    EXPECT_THROW(msc::graph::readEdgeList(in), std::runtime_error);
  }
  {
    std::istringstream in("2\n0 5 1.0\n");  // endpoint out of range
    EXPECT_THROW(msc::graph::readEdgeList(in), std::out_of_range);
  }
}

TEST(GraphIo, DotContainsExpectedElements) {
  const auto g = msc::test::lineGraph(3);
  msc::graph::DotStyle style;
  style.shortcuts = {{0, 2}};
  style.socialPairs = {{0, 1}};
  style.highlighted = {1};
  style.positions = std::vector<std::pair<double, double>>{
      {0.0, 0.0}, {0.5, 0.5}, {1.0, 1.0}};
  std::ostringstream os;
  msc::graph::writeDot(os, g, style);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph msc {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1 [color=grey60]"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 2 [color=red"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=gold"), std::string::npos);
  EXPECT_NE(dot.find("pos="), std::string::npos);
  EXPECT_NE(dot.rfind("}"), std::string::npos);
}

TEST(GraphIo, DotWithoutStyleStillValid) {
  const auto g = msc::test::cycleGraph(4);
  std::ostringstream os;
  msc::graph::writeDot(os, g);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph msc {"), std::string::npos);
  EXPECT_EQ(dot.find("color=red"), std::string::npos);
}

}  // namespace
