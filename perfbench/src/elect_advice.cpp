// Workload elect-advice: Theorem 3.1 minimum-time election (ComputeAdvice
// + Elect) on feasible graphs, offline and closed loop — one job is one
// graph in, a checked election out, one job at a time.
//
// Inputs (from --seed): a pool of seeded random_connected graphs
// (n in [1024, 1536], n/2 extra edges, election index 3 for ~97% of
// seeds, occasionally 4) alternating with k-necklaces of prescribed
// election index 16 (k in [16, 24], n = 170..289). Sizes follow a
// golden-ratio sequence from a seeded offset, so every prefix of the job
// list covers the size range evenly and the medians do not hinge on
// which sizes a short run happened to draw. The ranges are kept narrow
// enough (jobs of ~100-400 ms) for ~130 jobs per 30 s run: with the full
// n <= 2048, k <= 32 range a run held ~55 jobs whose median spread
// ~12% between seeds.
//
// Timed path: ElectionContext (full history, the fixed 2-thread pool)
// + run_min_time. The traced run repeats each job with spans and then
// calls the lower layers one by one (compute_advice, to/from_bits,
// per-node retrieve_label and path_ports, verify_election, a Refiner
// driven level by level) to split the job time by layer.

#include <cmath>
#include <optional>
#include <random>

#include "advice/labeler.hpp"
#include "advice/min_time.hpp"
#include "common.hpp"
#include "election/harness.hpp"
#include "election/verify.hpp"
#include "families/necklace.hpp"
#include "offline.hpp"
#include "portgraph/builders.hpp"
#include "reference.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace anole;

constexpr std::size_t kPool = 160;  // graphs per set-up; jobs cycle them
constexpr int kNecklacePhi = 16;

struct Input {
  portgraph::PortGraph g;
  int prescribed_phi = -1;  ///< necklaces: Claim 3.10; random: -1
};

std::vector<Input> build_inputs(std::uint64_t seed, Tracer& tr) {
  std::mt19937_64 rng(seed);
  const double offset = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  std::vector<Input> in;
  in.reserve(kPool);
  for (std::size_t j = 0; j < kPool; ++j) {
    const double u =
        std::fmod(offset + static_cast<double>(j / 2) * 0.6180339887498949, 1.0);
    const std::uint64_t draw = rng();
    Tracer::Span s(tr, "portgraph.build");
    if (j % 2 == 0) {
      const std::size_t n = 1024 + static_cast<std::size_t>(u * 513.0);
      in.push_back({portgraph::random_connected(n, n / 2, draw), -1});
    } else {
      const int k = 16 + static_cast<int>(u * 9.0);
      // Every k >= 16 has at least 4^13 codes, so a 26-bit index is valid.
      families::Necklace nk =
          families::necklace_member(k, kNecklacePhi, draw & ((1u << 26) - 1));
      in.push_back({std::move(nk.graph), kNecklacePhi});
    }
  }
  return in;
}

/// The answer check, against references that share no code with the
/// timed path: the naive refinement's election index and an independent
/// walk of every output path.
void check_run(const Input& in, const election::ElectionRun& run,
               const NaiveRefinement& ref, bool inject_wrong, Result& r) {
  if (!run.ok()) return r.fail("verify_election: " + run.verdict.error);
  std::vector<std::vector<int>> outputs = run.metrics.outputs;
  if (inject_wrong) outputs[0].push_back(0);
  std::string err;
  const portgraph::NodeId leader = check_election(in.g, outputs, err);
  if (leader < 0) return r.fail("reference walk: " + err);
  if (leader != run.verdict.leader) return r.fail("leader differs");
  if (!ref.feasible || run.phi != ref.phi || run.metrics.rounds != ref.phi)
    return r.fail("rounds/phi differ from the naive election index");
  if (in.prescribed_phi >= 0 && ref.phi != in.prescribed_phi)
    return r.fail("necklace phi differs from the prescribed phi");
}

/// from_bits(to_bits(a)) must re-encode bit-identically, with the length
/// run_min_time reported.
bool round_trip_ok(const advice::MinTimeAdvice& adv,
                   const coding::BitString& bits,
                   const advice::MinTimeAdvice& back, std::size_t run_bits) {
  return back.to_bits() == bits && bits.size() == run_bits &&
         back.phi == adv.phi;
}

struct LayerSplit {
  std::vector<double> records_new, advice_bits, advance_calls;
};

/// The traced decomposition of one job: each lower-layer call of the
/// pipeline timed on its own, on the job's context.
void decompose(const Input& in, election::ElectionContext& ctx,
               const election::ElectionRun& run, util::ThreadPool& pool,
               Tracer& tr, LayerSplit& split, Result& r) {
  const std::size_t n = in.g.n();
  std::optional<advice::MinTimeAdvice> adv, back;
  coding::BitString bits;
  {
    Tracer::Span s(tr, "advice.compute");
    adv.emplace(advice::compute_advice(in.g, ctx.repo(), ctx.profile));
  }
  {
    Tracer::Span s(tr, "coding.encode");
    bits = adv->to_bits();
  }
  {
    Tracer::Span s(tr, "coding.decode");
    back.emplace(advice::MinTimeAdvice::from_bits(bits));
  }
  if (!round_trip_ok(*adv, bits, *back, run.advice_bits))
    r.fail("advice round trip is not bit-identical");
  split.advice_bits.push_back(static_cast<double>(bits.size()));

  // What every node does at round phi: a fresh labeler per node, as
  // ElectProgram builds one, then the path to the node labeled 1.
  std::vector<std::uint64_t> labels(n);
  {
    Tracer::Span s(tr, "advice.label");
    for (std::size_t v = 0; v < n; ++v) {
      advice::Labeler lab(ctx.repo(), back->e1, back->e2);
      labels[v] = lab.retrieve_label(
          ctx.profile.view(ctx.phi(), static_cast<portgraph::NodeId>(v)));
    }
  }
  std::vector<std::vector<int>> paths(n);
  {
    Tracer::Span s(tr, "coding.path_ports");
    for (std::size_t v = 0; v < n; ++v)
      paths[v] = back->bfs_tree.path_ports(labels[v], 1);
  }
  if (paths != run.metrics.outputs)
    r.fail("per-node label/path replay differs from the election outputs");
  {
    Tracer::Span s(tr, "election.verify");
    if (!election::verify_election(in.g, run.metrics.outputs).ok)
      r.fail("verify_election rejected the outputs");
  }
  split.advance_calls.push_back(
      static_cast<double>(drive_refiner(in.g, ctx.profile, pool, tr, r)));
}

}  // namespace

Result run_elect_advice(const Options& o, Tracer& tr) {
  Result r;
  util::ThreadPool pool(2);
  std::vector<Input> inputs;
  const double setup_s = timed_setup(
      9, tr, [&](Tracer& t) { inputs = build_inputs(o.seed, t); },
      [&] { inputs.clear(); });
  // Checks made once per distinct input, outside the timed section: the
  // naive reference, and (untraced run; the traced run checks every job)
  // the advice round trip.
  std::vector<std::optional<NaiveRefinement>> refs(inputs.size());
  std::vector<bool> round_tripped(inputs.size(), false);

  OfflineLoop loop(o, tr);
  LayerSplit split;
  loop.run([&](std::size_t job, bool traced) -> std::size_t {
    const std::size_t idx = job % inputs.size();
    const Input& in = inputs[idx];
    std::optional<election::ElectionContext> ctx;
    std::optional<election::ElectionRun> run;
    {
      OfflineLoop::Timed timed(loop, traced);
      {
        Tracer::Span s(tr, "views.profile");
        ctx.emplace(in.g, /*keep_history=*/true, nullptr, &pool);
      }
      Tracer::Span s(tr, "election.run");
      run.emplace(election::run_min_time(*ctx));
    }
    auto& ref = refs[idx];
    if (!ref) ref.emplace(naive_refine(in.g, 1));
    check_run(in, *run, *ref, o.inject_wrong, r);
    if (traced) {
      split.records_new.push_back(static_cast<double>(ctx->repo().size()));
      decompose(in, *ctx, *run, pool, tr, split, r);
    } else if (!o.trace && !round_tripped[idx]) {
      round_tripped[idx] = true;
      advice::MinTimeAdvice adv =
          advice::compute_advice(in.g, ctx->repo(), ctx->profile);
      coding::BitString bits = adv.to_bits();
      if (!round_trip_ok(adv, bits, advice::MinTimeAdvice::from_bits(bits),
                         run->advice_bits))
        r.fail("advice round trip is not bit-identical");
    }
    return in.g.n();
  });
  r.attempted = loop.jobs();
  loop.report(r, setup_s);

  if (o.trace) {
    std::vector<double> run_ms = tr.per_job_ms("election.run");
    std::vector<double> adv_ms = tr.per_job_ms("advice.compute");
    std::vector<double> enc = tr.per_job_ms("coding.encode");
    std::vector<double> dec = tr.per_job_ms("coding.decode");
    std::vector<double> ver = tr.per_job_ms("election.verify");
    std::vector<double> com;
    for (std::size_t i = 0; i < run_ms.size(); ++i)
      com.push_back(run_ms[i] - adv_ms[i] - enc[i] - dec[i] - ver[i]);
    auto add = [&](const char* name, double v, const char* unit) {
      r.per_layer.push_back({name, v, unit});
    };
    add("views.profile_ms", median(tr.per_job_ms("views.profile")), "ms");
    add("views.records_new", median(split.records_new), "count");
    add("advice.compute_ms", median(adv_ms), "ms");
    add("advice.label_ms", median(tr.per_job_ms("advice.label")), "ms");
    add("advice.bits", median(split.advice_bits), "count");
    add("coding.encode_ms", median(enc), "ms");
    add("coding.decode_ms", median(dec), "ms");
    add("coding.path_ports_ms", median(tr.per_job_ms("coding.path_ports")),
        "ms");
    add("election.run_ms", median(run_ms), "ms");
    add("election.verify_ms", median(ver), "ms");
    add("sim.com_ms", median(com), "ms");
    add("views.refiner.advance_calls", median(split.advance_calls), "count");
    add("portgraph.build_ms", tr.total_ms("portgraph.build", -1), "ms");
    report_refiner(tr, r);
  }
  return r;
}

}  // namespace perfbench
