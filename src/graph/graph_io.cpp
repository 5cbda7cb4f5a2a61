#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace msc::graph {
namespace {

// Token readers for one edge-list line. Each accepts exactly what
// `std::istream >> T` accepts in the C locale: leading whitespace is
// skipped, then one optional sign and the longest numeric prefix; the rest
// of the line is left for the next token (and ignored after the last one).
// They return false wherever the stream would set failbit, and advance
// `p` past the token otherwise.

bool isStreamSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// Skips whitespace and returns where the number's text starts, or nullptr
/// when no digit (or, for floats, '.') follows the optional sign: that rules
/// out sign runs and the inf/nan/hex spellings the stream never reads.
const char* numberStart(const char*& p, const char* end, bool allowDot) {
  while (p != end && isStreamSpace(*p)) ++p;
  const char* body = p;
  if (body != end && (*body == '+' || *body == '-')) ++body;
  if (body == end || !(isDigit(*body) || (allowDot && *body == '.'))) {
    return nullptr;
  }
  // std::from_chars takes a leading '-' but not a '+'.
  return *p == '+' ? p + 1 : p;
}

bool readInt(const char*& p, const char* end, int& out) {
  const char* start = numberStart(p, end, false);
  if (start == nullptr) return false;
  const auto [next, ec] = std::from_chars(start, end, out);
  if (ec != std::errc{}) return false;  // out of int range
  p = next;
  return true;
}

bool readDouble(const char*& p, const char* end, double& out) {
  const char* start = numberStart(p, end, true);
  if (start == nullptr) return false;
  const auto [next, ec] = std::from_chars(start, end, out);
  if (ec == std::errc::invalid_argument) return false;  // "." alone
  const auto isExp = [](char c) { return c == 'e' || c == 'E'; };
  // The stream reads an exponent marker into the number even when no
  // digits follow ("1e", "1e+") and then fails; from_chars stops before it.
  if (next != end && isExp(*next) && std::none_of(start, next, isExp)) {
    return false;
  }
  if (ec == std::errc::result_out_of_range) {
    // Overflow fails the stream while underflow reads the rounded value;
    // on this rare path the stream itself decides.
    std::istringstream exact{std::string(p, next)};
    if (!(exact >> out)) return false;
  }
  p = next;
  return true;
}

}  // namespace

void writeEdgeList(std::ostream& os, const Graph& g) {
  os << g.nodeCount() << '\n';
  os.precision(17);
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << ' ' << e.length << '\n';
  }
}

Graph readEdgeList(std::istream& is) {
  // One line buffer for the whole read: getline reuses its capacity.
  std::string line;
  auto nextContentLine = [&]() -> bool {
    while (std::getline(is, line)) {
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      return true;
    }
    return false;
  };

  if (!nextContentLine()) {
    throw std::runtime_error("readEdgeList: missing node-count header");
  }
  int n = 0;
  {
    const char* p = line.data();
    if (!readInt(p, p + line.size(), n) || n < 0) {
      throw std::runtime_error("readEdgeList: malformed node count");
    }
  }
  Graph g(n);
  while (nextContentLine()) {
    const char* p = line.data();
    const char* const end = p + line.size();
    int u = 0;
    int v = 0;
    double len = 0.0;
    if (!readInt(p, end, u) || !readInt(p, end, v) ||
        !readDouble(p, end, len)) {
      throw std::runtime_error("readEdgeList: malformed edge line: " + line);
    }
    g.addEdge(u, v, len);
  }
  return g;
}

void writeDot(std::ostream& os, const Graph& g, const DotStyle& style) {
  os << "graph msc {\n";
  os << "  node [shape=circle, fontsize=8, width=0.25, fixedsize=true];\n";
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    os << "  " << v;
    os << " [";
    bool first = true;
    auto attr = [&](const std::string& kv) {
      if (!first) os << ", ";
      os << kv;
      first = false;
    };
    if (style.positions) {
      const auto& p = style.positions->at(static_cast<std::size_t>(v));
      std::ostringstream pos;
      pos << "pos=\"" << p.first * style.positionScale << ','
          << p.second * style.positionScale << "!\"";
      attr(pos.str());
    }
    bool isHighlighted = false;
    for (const NodeId h : style.highlighted) {
      if (h == v) isHighlighted = true;
    }
    if (isHighlighted) {
      attr("style=filled");
      attr("fillcolor=gold");
    }
    os << "];\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  " << e.u << " -- " << e.v << " [color=grey60];\n";
  }
  for (const auto& [u, v] : style.shortcuts) {
    os << "  " << u << " -- " << v << " [color=red, penwidth=2.5];\n";
  }
  for (const auto& [u, v] : style.socialPairs) {
    os << "  " << u << " -- " << v
       << " [color=blue, style=dashed, constraint=false];\n";
  }
  os << "}\n";
}

}  // namespace msc::graph
