#pragma once
// Reference answers that share no code with the library paths being
// timed: the paper's definitions evaluated directly on the port graph.
// Only anole::portgraph::PortGraph's adjacency accessors are used.

#include <string>
#include <vector>

#include "portgraph/port_graph.hpp"

namespace perfbench {

/// Naive view refinement (Proposition 2.1): classes[t][v] numbers the
/// distinct augmented truncated views B^t(v). Level 0 is the degree;
/// level t+1 is (degree, (rev_port, class_t(neighbor)) per port). Runs to
/// at least `min_depth` and until all views are distinct or the class
/// count repeats (a fixed point).
struct NaiveRefinement {
  std::vector<std::vector<int>> classes;
  std::vector<std::size_t> counts;
  bool feasible = false;
  int phi = -1;  ///< election index when feasible
  /// Class of v at depth t, reading a fixed point past the last level.
  [[nodiscard]] int class_at(int t, anole::portgraph::NodeId v) const;
};

[[nodiscard]] NaiveRefinement naive_refine(const anole::portgraph::PortGraph& g,
                                           int min_depth = 0);

/// The paper's success condition: every node output the port sequence
/// (p1,q1,...,pk,qk) of a simple path, and all paths end at one node.
/// Returns the leader, or -1 with `error` filled.
[[nodiscard]] anole::portgraph::NodeId check_election(
    const anole::portgraph::PortGraph& g, const std::vector<std::vector<int>>& out,
    std::string& error);

/// True when every node has the same degree and the same port -> reverse
/// port map. Such a graph has exactly one view class at every depth (by
/// induction on the depth), so it is infeasible for any n > 1.
[[nodiscard]] bool uniform_port_structure(const anole::portgraph::PortGraph& g);

}  // namespace perfbench
