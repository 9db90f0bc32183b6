#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gcalib::graph {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.node_count() << ' ' << g.edge_count() << '\n';
  for (const Edge& e : g.edges()) os << e.u << ' ' << e.v << '\n';
}

namespace {

/// Parse failure with the 1-based line number it occurred on.
[[noreturn]] void parse_fail(const char* format, std::size_t line,
                             const std::string& what) {
  throw std::runtime_error(std::string(format) + " line " +
                           std::to_string(line) + ": " + what);
}

[[nodiscard]] bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  std::size_t n = 0, m = 0;
  bool have_header = false;
  while (!have_header && std::getline(is, line)) {
    ++lineno;
    if (is_blank(line)) continue;
    std::istringstream ls(line);
    std::string junk;
    if (!(ls >> n >> m) || (ls >> junk)) {
      parse_fail("edge list", lineno, "malformed header (expected \"n m\")");
    }
    have_header = true;
  }
  if (!have_header) {
    parse_fail("edge list", lineno + 1, "missing \"n m\" header");
  }
  Graph g(static_cast<NodeId>(n));
  std::size_t edges = 0;
  while (edges < m && std::getline(is, line)) {
    ++lineno;
    if (is_blank(line)) continue;
    std::istringstream ls(line);
    std::size_t u = 0, v = 0;
    std::string junk;
    if (!(ls >> u >> v) || (ls >> junk)) {
      parse_fail("edge list", lineno, "malformed edge (expected \"u v\")");
    }
    if (u >= n || v >= n) {
      parse_fail("edge list", lineno,
                 "node out of range (ids must be < " + std::to_string(n) + ")");
    }
    g.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    ++edges;
  }
  if (edges < m) {
    parse_fail("edge list", lineno + 1,
               "truncated: only " + std::to_string(edges) + " of " +
                   std::to_string(m) + " edges before end of input");
  }
  return g;
}

void write_dimacs(std::ostream& os, const Graph& g) {
  os << "p edge " << g.node_count() << ' ' << g.edge_count() << '\n';
  for (const Edge& e : g.edges()) os << "e " << e.u + 1 << ' ' << e.v + 1 << '\n';
}

Graph read_dimacs(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  Graph g;
  bool have_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (is_blank(line) || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    std::string junk;
    if (tag == 'c') continue;  // comment with leading whitespace
    if (tag == 'p') {
      if (have_header) {
        parse_fail("dimacs", lineno, "duplicate problem line");
      }
      std::string kind;
      std::size_t n = 0, m = 0;
      if (!(ls >> kind >> n >> m) || kind != "edge" || (ls >> junk)) {
        parse_fail("dimacs", lineno,
                   "bad problem line (expected \"p edge <n> <m>\")");
      }
      g = Graph(static_cast<NodeId>(n));
      have_header = true;
    } else if (tag == 'e') {
      if (!have_header) {
        parse_fail("dimacs", lineno, "edge line before the problem line");
      }
      std::size_t u = 0, v = 0;
      if (!(ls >> u >> v) || (ls >> junk)) {
        parse_fail("dimacs", lineno, "bad edge line (expected \"e <u> <v>\")");
      }
      if (u == 0 || v == 0 || u > g.node_count() || v > g.node_count()) {
        parse_fail("dimacs", lineno,
                   "node out of range (1-based ids must be <= " +
                       std::to_string(g.node_count()) + ")");
      }
      g.add_edge(static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1));
    } else {
      parse_fail("dimacs", lineno,
                 std::string("unknown line tag '") + tag + "'");
    }
  }
  if (!have_header) {
    parse_fail("dimacs", lineno + 1, "missing problem line");
  }
  return g;
}

Graph parse_matrix(const std::string& text) {
  std::vector<std::string> rows;
  std::string current;
  for (char c : text) {
    if (c == '0' || c == '.') {
      current.push_back('0');
    } else if (c == '1') {
      current.push_back('1');
    } else if (!current.empty()) {
      rows.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) rows.push_back(std::move(current));
  const std::size_t n = rows.size();
  for (const std::string& row : rows) {
    if (row.size() != n) {
      throw std::runtime_error("matrix literal is not square");
    }
  }
  Graph g(static_cast<NodeId>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rows[i][j] != '1') continue;
      if (i == j) {
        throw std::runtime_error("matrix literal has a nonzero diagonal");
      }
      if (rows[j][i] != '1') {
        throw std::runtime_error("matrix literal is not symmetric");
      }
      if (i < j) g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  return g;
}

std::string format_matrix(const Graph& g) {
  const std::size_t n = g.node_count();
  std::string out((n + 1) * n, '0');
  for (std::size_t i = 0; i < n; ++i) {
    char* row = out.data() + i * (n + 1);
    for (const NodeId j : g.neighbors(static_cast<NodeId>(i))) row[j] = '1';
    row[n] = '\n';
  }
  return out;
}

}  // namespace gcalib::graph
