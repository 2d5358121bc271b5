#include "reference.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

using anole::portgraph::NodeId;
using anole::portgraph::PortGraph;

int NaiveRefinement::class_at(int t, NodeId v) const {
  const std::size_t level =
      std::min(static_cast<std::size_t>(t), classes.size() - 1);
  return classes[level][static_cast<std::size_t>(v)];
}

namespace {

/// Numbers the distinct signatures (in sorted signature order).
std::vector<int> number(const std::vector<std::vector<int>>& sig,
                        std::size_t& distinct) {
  std::vector<std::size_t> order(sig.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return sig[a] < sig[b]; });
  std::vector<int> id(sig.size());
  int next = -1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || sig[order[i]] != sig[order[i - 1]]) ++next;
    id[order[i]] = next;
  }
  distinct = static_cast<std::size_t>(next + 1);
  return id;
}

}  // namespace

NaiveRefinement naive_refine(const PortGraph& g, int min_depth) {
  const std::size_t n = g.n();
  NaiveRefinement r;
  std::vector<std::vector<int>> sig(n);
  for (std::size_t v = 0; v < n; ++v)
    sig[v] = {g.degree(static_cast<NodeId>(v))};
  std::size_t count = 0;
  r.classes.push_back(number(sig, count));
  r.counts.push_back(count);
  for (int t = 0;; ++t) {
    if (r.counts.back() == n && !r.feasible) {
      r.feasible = true;
      r.phi = t;
    }
    const bool fixed = t >= 1 && r.counts[static_cast<std::size_t>(t)] ==
                                     r.counts[static_cast<std::size_t>(t) - 1];
    if ((r.feasible || fixed) && t >= min_depth) break;
    const std::vector<int>& prev = r.classes.back();
    for (std::size_t v = 0; v < n; ++v) {
      const auto& adj = g.neighbors(static_cast<NodeId>(v));
      std::vector<int>& s = sig[v];
      s.assign(1, static_cast<int>(adj.size()));
      for (const anole::portgraph::HalfEdge& he : adj) {
        s.push_back(he.rev_port);
        s.push_back(prev[static_cast<std::size_t>(he.neighbor)]);
      }
    }
    r.classes.push_back(number(sig, count));
    r.counts.push_back(count);
  }
  return r;
}

NodeId check_election(const PortGraph& g,
                      const std::vector<std::vector<int>>& out,
                      std::string& error) {
  const std::size_t n = g.n();
  if (out.size() != n) {
    error = "output count " + std::to_string(out.size()) + " != n";
    return -1;
  }
  NodeId leader = -1;
  std::vector<int> seen(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    const std::vector<int>& seq = out[v];
    if (seq.size() % 2 != 0) {
      error = "node " + std::to_string(v) + ": odd port sequence";
      return -1;
    }
    NodeId cur = static_cast<NodeId>(v);
    seen[v] = static_cast<int>(v);
    for (std::size_t i = 0; i < seq.size(); i += 2) {
      const int p = seq[i], q = seq[i + 1];
      if (p < 0 || p >= g.degree(cur)) {
        error = "node " + std::to_string(v) + ": bad port";
        return -1;
      }
      const anole::portgraph::HalfEdge& he = g.at(cur, p);
      if (he.rev_port != q) {
        error = "node " + std::to_string(v) + ": wrong far port";
        return -1;
      }
      cur = he.neighbor;
      if (seen[static_cast<std::size_t>(cur)] == static_cast<int>(v)) {
        error = "node " + std::to_string(v) + ": path not simple";
        return -1;
      }
      seen[static_cast<std::size_t>(cur)] = static_cast<int>(v);
    }
    if (leader < 0) leader = cur;
    if (cur != leader) {
      error = "node " + std::to_string(v) + ": second leader";
      return -1;
    }
  }
  return leader;
}

bool uniform_port_structure(const PortGraph& g) {
  if (g.n() == 0) return true;
  const auto& first = g.neighbors(0);
  for (std::size_t v = 0; v < g.n(); ++v) {
    const auto& adj = g.neighbors(static_cast<NodeId>(v));
    if (adj.size() != first.size()) return false;
    for (std::size_t p = 0; p < adj.size(); ++p)
      if (adj[p].neighbor < 0 || adj[p].rev_port != first[p].rev_port)
        return false;
  }
  return true;
}

}  // namespace perfbench
