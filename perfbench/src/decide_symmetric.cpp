// Workload decide-symmetric: feasibility and election index of large
// vertex-transitive graphs, offline and closed loop. One job decides one
// graph (ElectionContext without history, the fixed 2-thread pool) and
// extends its profile to a fixed depth in the thousands.
//
// Inputs: ring 2^20, torus 1024 x 1024 and hypercube d = 18 (2^18 nodes).
// --seed orders the jobs (each round of three visits every graph once, in
// a seeded order). The class count stays 1 at every depth, so interning
// is nearly all index hits; advice and election never run; the working
// set is far larger than the last-level cache. Set-up (graph build) is
// the dominant cost next to the refinement attach and depth-1 pass.

#include <algorithm>
#include <functional>
#include <optional>
#include <random>

#include "common.hpp"
#include "election/harness.hpp"
#include "offline.hpp"
#include "portgraph/builders.hpp"
#include "reference.hpp"
#include "util/thread_pool.hpp"
#include "views/profile.hpp"

namespace perfbench {
namespace {

using namespace anole;

constexpr int kDepth = 4096;

std::vector<portgraph::PortGraph> build_inputs(Tracer& tr) {
  std::vector<portgraph::PortGraph> g;
  {
    Tracer::Span s(tr, "portgraph.build");
    g.push_back(portgraph::ring(std::size_t{1} << 20));
  }
  {
    Tracer::Span s(tr, "portgraph.build");
    g.push_back(portgraph::torus(1024, 1024));
  }
  {
    Tracer::Span s(tr, "portgraph.build");
    g.push_back(portgraph::hypercube(18));
  }
  return g;
}

}  // namespace

Result run_decide_symmetric(const Options& o, Tracer& tr) {
  Result r;
  util::ThreadPool pool(2);
  std::vector<portgraph::PortGraph> graphs;
  const double setup_s = timed_setup(
      3, tr, [&](Tracer& t) { graphs = build_inputs(t); },
      [&] { graphs.clear(); });
  // The reference: a uniform port structure forces exactly one view class
  // at every depth (see reference.hpp), hence infeasibility.
  for (const portgraph::PortGraph& g : graphs)
    if (!uniform_port_structure(g))
      r.fail("input graph lacks a uniform port structure");

  // Each round of jobs visits every graph once, in an order drawn from
  // the seed and the round number.
  auto graph_of = [&](std::size_t job) -> const portgraph::PortGraph& {
    std::vector<std::size_t> order(graphs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(o.seed * 1000003 + job / graphs.size());
    std::shuffle(order.begin(), order.end(), rng);
    return graphs[order[job % graphs.size()]];
  };
  OfflineLoop loop(o, tr);
  std::vector<double> records_new, advance_calls;
  loop.run([&](std::size_t job, bool traced) -> std::size_t {
    const portgraph::PortGraph& g = graph_of(job);
    std::optional<election::ElectionContext> ctx;
    {
      OfflineLoop::Timed timed(loop, traced);
      {
        Tracer::Span s(tr, "views.profile");
        ctx.emplace(g, /*keep_history=*/false, nullptr, &pool);
      }
      Tracer::Span s(tr, "views.extend");
      views::extend_profile(g, ctx->repo(), ctx->profile, kDepth, &pool);
    }
    const views::ViewProfile& p = ctx->profile;
    bool one_class = std::all_of(p.class_counts.begin(), p.class_counts.end(),
                                 [](std::size_t c) { return c == 1; });
    if (o.inject_wrong) one_class = false;
    const std::vector<views::ViewId>& last = p.last_level();
    const bool one_view =
        last.size() == g.n() &&
        std::adjacent_find(last.begin(), last.end(),
                           std::not_equal_to<>()) == last.end();
    if (p.feasible || !one_class || !one_view || p.computed_depth() != kDepth)
      r.fail("symmetric verdict differs from the reference (one class, "
             "infeasible)");
    if (traced) {
      records_new.push_back(static_cast<double>(ctx->repo().size()));
      advance_calls.push_back(
          static_cast<double>(drive_refiner(g, p, pool, tr, r)));
    }
    return g.n();
  });
  r.attempted = loop.jobs();
  loop.report(r, setup_s);

  if (o.trace) {
    r.per_layer.push_back({"portgraph.build_ms",
                           tr.total_ms("portgraph.build", -1), "ms"});
    r.per_layer.push_back(
        {"views.profile_ms", median(tr.per_job_ms("views.profile")), "ms"});
    r.per_layer.push_back(
        {"views.extend_ms", median(tr.per_job_ms("views.extend")), "ms"});
    r.per_layer.push_back({"views.records_new", median(records_new), "count"});
    r.per_layer.push_back(
        {"views.refiner.advance_calls", median(advance_calls), "count"});
    report_refiner(tr, r);
  }
  return r;
}

}  // namespace perfbench
