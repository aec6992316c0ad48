// DSE workloads: dse16_surrogate (surrogate-screened search over wide16)
// and dse8_cache (cold evaluation into a file-backed cache, then a
// read-only resume), plus the single-threaded stage replay both traced
// runs use to split dse::evaluate into its layers.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/pareto.hpp"
#include "dse/cache.hpp"
#include "dse/evaluate.hpp"
#include "dse/search.hpp"
#include "dse/space.hpp"
#include "dse/surrogate.hpp"
#include "error/analytic.hpp"
#include "error/metrics.hpp"
#include "fabric/optimize.hpp"
#include "power/power.hpp"
#include "stats.hpp"
#include "timing/sta.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace axmult;

namespace {

// ---- dse16_surrogate workload definition ----------------------------------
//
// wide16 config costs span three orders of magnitude (about 20 ms for a
// sampled-fallback config, 1-2 s for an analytic refusal or a costly
// analytic success, several seconds for a deeply truncated Ca/Ca
// schedule), and the serial surrogate_seed screen of one generation takes
// 1 to 22 s depending on the search seed. A 4-thread confirm batch with one
// such config waits on it alone, so host noise on that one config would
// swing the rate. The search trajectories are therefore fixed by search
// seeds whose confirmed configs all cost about the same (10-100 ms) and
// whose screens are short (about 1-1.5 s), and the run seed drives the
// sampled-fallback operand stream (EvalOptions::seed): the inputs vary per
// seed while the work mix stays comparable across seeds. One cycle runs
// every listed search from a cold cache; throughput is the median cycle
// rate over the run's six or more cycles.
constexpr std::uint64_t kSearchSeeds[] = {14, 22};
constexpr unsigned kPopulation = 4;
constexpr unsigned kGenerations = 1;
constexpr unsigned kProposals = 16;  // 4x the population
constexpr std::uint64_t kSampledPairs = std::uint64_t{1} << 16;
/// Fixed hypervolume reference point over (luts, delay_ns, mre); quoted in
/// BENCHMARK.json and README.md so fronts compare across commits.
const std::vector<double> kHvReference = {512.0, 16.0, 2.0};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

dse::SearchOptions dse16_options(const Options& opts, std::uint64_t search_seed) {
  dse::SearchOptions o;
  o.strategy = dse::Strategy::kSurrogate;
  o.population = kPopulation;
  o.generations = kGenerations;
  o.proposals = kProposals;
  o.seed = search_seed;
  o.eval.samples = opts.tiny ? 4096 : kSampledPairs;
  o.eval.seed = derive_stream_seed(opts.seed, 0x16);
  o.threads = opts.threads;
  return o;
}

std::vector<std::uint64_t> dse16_search_seeds(const Options& opts) {
  if (opts.tiny) return {kSearchSeeds[0]};
  return {std::begin(kSearchSeeds), std::end(kSearchSeeds)};
}

/// Sums of the single-threaded stage replay.
struct StageTotals {
  std::size_t configs = 0;
  double evaluate_s = 0.0;  ///< whole dse::evaluate calls (the coverage base)
  double seed_s = 0.0;
  double analytic_trunc_s = 0.0;
  double analytic_notrunc_s = 0.0;
  double refuse_s = 0.0;
  std::uint64_t refusals = 0;
  double sampled_s = 0.0;
  std::uint64_t sampled_pairs = 0;
  double exhaustive_s = 0.0;
  std::uint64_t exhaustive_pairs = 0;
  double build_s = 0.0;
  double optimize_s = 0.0;
  std::uint64_t cells_in = 0;
  std::uint64_t cells_out = 0;
  double sta_s = 0.0;
  double power_s = 0.0;

  [[nodiscard]] double stage_s() const {
    return analytic_trunc_s + analytic_notrunc_s + refuse_s + sampled_s + exhaustive_s + build_s +
           optimize_s + sta_s + power_s;
  }
};

/// Times `fn`, records it as a span under the open replay span, and adds
/// its seconds to `acc`.
template <typename Fn>
auto timed(Tracer* tr, const char* name, std::uint64_t id, double& acc, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  const Clock::time_point t1 = Clock::now();
  acc += seconds_between(t0, t1);
  if (tr != nullptr) tr->record(name, t0, t1, id);
  return result;
}

/// Single-threaded replay of dse::evaluate, stage by stage, for every
/// config: the same calls in the same order as evaluate() makes them
/// (uniform sweep path), each timed as its own layer. Also times one whole
/// dse::evaluate per config as the coverage base and checks it against
/// `expected` (the objectives the workload's parallel pass produced).
StageTotals replay_stages(const std::vector<dse::Config>& configs,
                          const std::vector<dse::Objectives>& expected,
                          const dse::EvalOptions& eo, bool with_seed, Tracer* tr, Outcome& out) {
  StageTotals t;
  Tracer::Scope root(tr, "replay.evaluate");
  error::SweepConfig sweep;
  sweep.threads = 1;
  sweep.collect_pmf = false;
  sweep.collect_bit_probability = false;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::uint64_t id = i + 1;
    dse::Config c = configs[i];
    dse::canonicalize(c);
    const dse::Objectives whole =
        timed(tr, "dse.evaluate", id, t.evaluate_s, [&] { return dse::evaluate(c, eo); });
    out.check(dse::EvalCache::serialize_objectives(whole) ==
                  dse::EvalCache::serialize_objectives(expected[i]),
              "single-threaded dse::evaluate differs from the parallel pass for " +
                  dse::config_key(c));
    if (with_seed) {
      (void)timed(tr, "error.seed", id, t.seed_s,
                  [&] { return error::surrogate_seed(dse::analytic_spec(c)); });
    }
    if (2 * c.width <= eo.exhaustive_bits) {
      const fabric::Netlist core =
          timed(tr, "multgen.build", id, t.build_s, [&] { return dse::make_core_netlist(c); });
      (void)timed(tr, "error.exhaustive", id, t.exhaustive_s, [&] {
        return error::sweep_netlist_exhaustive(core, c.width, c.width, sweep).metrics;
      });
      t.exhaustive_pairs += std::uint64_t{1} << (2 * c.width);
    } else {
      bool analytic_done = false;
      if (eo.analytic) {
        const Clock::time_point t0 = Clock::now();
        const auto am = error::analytic_metrics(dse::analytic_spec(c));
        const Clock::time_point t1 = Clock::now();
        const double s = seconds_between(t0, t1);
        const char* name = !am ? "error.refuse"
                           : c.trunc_lsbs > 0 ? "error.analytic_trunc"
                                              : "error.analytic_notrunc";
        if (tr != nullptr) tr->record(name, t0, t1, id);
        if (!am) {
          t.refuse_s += s;
          ++t.refusals;
        } else {
          (c.trunc_lsbs > 0 ? t.analytic_trunc_s : t.analytic_notrunc_s) += s;
          analytic_done = true;
        }
      }
      if (!analytic_done) {
        (void)timed(tr, "error.sampled", id, t.sampled_s, [&] {
          const mult::MultiplierPtr model = dse::make_model(c);
          return error::sweep_sampled(*model, eo.samples, eo.seed, sweep).metrics;
        });
        t.sampled_pairs += eo.samples;
      }
    }
    const fabric::Netlist full =
        timed(tr, "multgen.build", id, t.build_s, [&] { return dse::make_config_netlist(c); });
    const fabric::OptimizeResult opt =
        timed(tr, "fabric.optimize", id, t.optimize_s, [&] { return fabric::optimize(full); });
    t.cells_in += opt.stats.cells_before;
    t.cells_out += opt.stats.cells_after;
    (void)timed(tr, "timing.sta", id, t.sta_s, [&] { return timing::analyze(opt.netlist); });
    power::PowerModel pm;
    pm.vectors = eo.power_vectors;
    (void)timed(tr, "power.estimate", id, t.power_s,
                [&] { return power::estimate(opt.netlist, pm); });
    ++t.configs;
  }
  return t;
}

void add_stage_metrics(Outcome& out, const StageTotals& t) {
  const auto mpairs = [](std::uint64_t pairs, double s) {
    return s > 0.0 ? static_cast<double>(pairs) / s / 1e6 : 0.0;
  };
  out.metric("error.seed_ms", t.seed_s * 1e3, "ms");
  out.metric("error.analytic_trunc_ms", t.analytic_trunc_s * 1e3, "ms");
  out.metric("error.analytic_notrunc_ms", t.analytic_notrunc_s * 1e3, "ms");
  out.metric("error.refusals", static_cast<double>(t.refusals), "count");
  out.metric("error.refuse_ms", t.refuse_s * 1e3, "ms");
  out.metric("error.sampled_ms", t.sampled_s * 1e3, "ms");
  out.metric("error.sampled_mpairs_s", mpairs(t.sampled_pairs, t.sampled_s), "Mpairs/s");
  out.metric("error.exhaustive_ms", t.exhaustive_s * 1e3, "ms");
  out.metric("error.exhaustive_mpairs_s", mpairs(t.exhaustive_pairs, t.exhaustive_s), "Mpairs/s");
  out.metric("multgen.build_ms", t.build_s * 1e3, "ms");
  out.metric("fabric.optimize_ms", t.optimize_s * 1e3, "ms");
  out.metric("fabric.cells_in", static_cast<double>(t.cells_in), "count");
  out.metric("fabric.cells_out", static_cast<double>(t.cells_out), "count");
  out.metric("timing.sta_ms", t.sta_s * 1e3, "ms");
  out.metric("power.estimate_ms", t.power_s * 1e3, "ms");
  out.metric("dse.evaluate_coverage", t.evaluate_s > 0.0 ? t.stage_s() / t.evaluate_s : 0.0,
             "ratio");
  out.detail("replay.configs", static_cast<double>(t.configs), "count");
  out.detail("replay.evaluate_ms", t.evaluate_s * 1e3, "ms");
}

// ---- dse16_surrogate ------------------------------------------------------

/// run_search's surrogate loop, driven step by step through the public
/// API (propose -> evaluate_all -> confirm) with a span around each call.
/// Must reproduce run_search's front byte for byte. `evaluated` receives
/// every config the search evaluated (the whole archive, key order).
dse::SearchResult traced_surrogate_search(const dse::SpaceSpec& space,
                                          const dse::SearchOptions& so, Tracer* tr,
                                          std::vector<dse::EvaluatedPoint>& evaluated) {
  dse::SurrogateStrategyOptions sopts;
  sopts.population = so.population;
  sopts.proposals = so.proposals;
  sopts.explore_weight = so.explore_weight;
  sopts.seed = so.seed;
  sopts.objectives = so.objectives;
  sopts.analytic_seeding = so.eval.analytic && !so.eval.gaussian;
  dse::SurrogateStrategy strategy(space, sopts);
  dse::EvalCache cache;  // cold, in-memory
  std::map<std::string, dse::EvaluatedPoint> archive;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  const std::uint64_t budget =
      so.budget > 0 ? so.budget
                    : std::uint64_t{so.population} * (std::uint64_t{so.generations} + 1);
  for (unsigned gen = 0; gen <= so.generations && evaluations < budget; ++gen) {
    const std::size_t slice =
        static_cast<std::size_t>(std::min<std::uint64_t>(so.population, budget - evaluations));
    std::vector<dse::Config> batch;
    {
      Tracer::Scope span(tr, "dse.screen", gen + 1);
      batch = strategy.propose(slice);
    }
    if (batch.empty()) break;
    std::vector<dse::Objectives> batch_obj;
    {
      Tracer::Scope span(tr, "dse.confirm", gen + 1);
      // run_search evaluates in fixed 64-config slices.
      constexpr std::size_t kSlice = 64;
      for (std::size_t base = 0; base < batch.size(); base += kSlice) {
        const std::size_t n = std::min(kSlice, batch.size() - base);
        const std::vector<dse::Config> part(batch.begin() + static_cast<std::ptrdiff_t>(base),
                                            batch.begin() + static_cast<std::ptrdiff_t>(base + n));
        std::uint64_t hits = 0;
        std::vector<dse::Objectives> res =
            dse::evaluate_all(part, &cache, so.eval, so.threads, &hits);
        evaluations += n;
        cache_hits += hits;
        for (std::size_t i = 0; i < n; ++i) {
          std::string key = dse::config_key(part[i]);
          archive.emplace(key, dse::EvaluatedPoint{part[i], key, res[i]});
          batch_obj.push_back(std::move(res[i]));
        }
      }
    }
    {
      Tracer::Scope span(tr, "dse.fit", gen + 1);
      strategy.confirm(batch, batch_obj);
    }
  }
  dse::SearchResult result;
  result.evaluations = evaluations;
  result.cache_hits = cache_hits;
  result.archive_size = archive.size();
  std::vector<const dse::EvaluatedPoint*> points;
  std::vector<std::vector<double>> costs;
  for (const auto& [key, point] : archive) {
    points.push_back(&point);
    costs.push_back(dse::cost_vector(point.objectives, so.objectives));
  }
  const std::vector<unsigned> ranks = analysis::nondominated_rank(costs);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (ranks[i] == 0) keep.push_back(i);
  }
  std::sort(keep.begin(), keep.end(), [&](std::size_t a, std::size_t b) {
    if (costs[a] != costs[b]) return costs[a] < costs[b];
    return points[a]->key < points[b]->key;
  });
  for (const std::size_t i : keep) result.front.push_back(*points[i]);
  for (const auto& [key, point] : archive) evaluated.push_back(point);
  return result;
}

void add_front_costs(std::vector<std::vector<double>>& costs, const dse::SearchResult& r,
                     const std::vector<dse::Objective>& objectives) {
  for (const dse::EvaluatedPoint& p : r.front) {
    costs.push_back(dse::cost_vector(p.objectives, objectives));
  }
}

}  // namespace

Outcome run_dse16_surrogate(const Options& opts, Tracer* tracer) {
  Outcome out;
  dse::SpaceSpec space;
  const std::vector<std::uint64_t> seeds = dse16_search_seeds(opts);
  const auto prepare = [&] {
    space = dse::make_space("wide16");
    // Lazy library state (leaf tables, analytic helpers) is paid here.
    (void)dse::evaluate(dse::paper_ca(16), dse16_options(opts, seeds[0]).eval);
  };
  std::vector<double> setups;
  time_setups(prepare, kSetupLeadRepeats, kSetupLeadSeconds, setups);
  const std::string front_path = opts.out_dir + "/dse16-front-" + std::to_string(getpid());

  if (tracer == nullptr) {
    std::vector<std::string> first_fronts;
    std::vector<std::vector<double>> hv_costs;
    std::vector<double> rates;
    const std::vector<double> cycle_s = run_cycles(opts.seconds, 1, [&](unsigned cycle) {
      time_setups(prepare, 1, kSetupCycleSeconds, setups);
      std::uint64_t evaluated = 0;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        dse::SearchOptions so = dse16_options(opts, seeds[s]);
        so.front_path = front_path;
        const dse::SearchResult r = dse::run_search(space, so);
        evaluated += r.evaluations;
        out.attempted += r.evaluations;
        const std::string front = slurp(front_path);
        if (cycle == 0) {
          first_fronts.push_back(front);
          add_front_costs(hv_costs, r, so.objectives);
          out.check(r.evaluations == std::uint64_t{kPopulation} * (kGenerations + 1),
                    "search spent its whole budget");
        } else {
          out.check(front == first_fronts[s], "repeated search reproduces its front");
        }
      }
      rates.push_back(static_cast<double>(evaluated) / seconds_since(t0));
    });
    std::filesystem::remove(front_path);
    const double hv = analysis::hypervolume(hv_costs, kHvReference);
    out.check(hv > 0.0, "fronts dominate part of the reference box");
    for (const std::string& f : first_fronts) out.digest_text += f;
    out.digest_text += "hv=" + fmt(hv) + "\n";
    add_end_to_end(out, median(setups), median(rates));
    out.detail("configs_per_s", median(rates), "configs/s");
    out.detail("hypervolume", hv, "luts*ns*mre");
    out.detail("searches_per_cycle", static_cast<double>(seeds.size()), "count");
    out.detail("cycles", static_cast<double>(cycle_s.size()), "count");
    return out;
  }

  // Traced run: each search of the cycle through run_search, then through
  // the traced loop (front identity + tracing overhead), then the stage
  // replay of every config the searches evaluated.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<std::vector<double>> hv_costs;
  std::vector<dse::Config> configs;
  std::vector<dse::Objectives> expected;
  for (const std::uint64_t seed : seeds) {
    const dse::SearchOptions so = dse16_options(opts, seed);
    const Clock::time_point t0 = Clock::now();
    const dse::SearchResult reference = dse::run_search(space, so);
    untraced_s += seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    dse::SearchResult traced;
    std::vector<dse::EvaluatedPoint> evaluated;
    {
      Tracer::Scope root(tracer, "dse16.search");
      traced = traced_surrogate_search(space, so, tracer, evaluated);
    }
    traced_s += seconds_since(t1);
    out.attempted += traced.evaluations;
    dse::write_front(front_path, traced, so.objectives);
    const std::string traced_front = slurp(front_path);
    dse::write_front(front_path, reference, so.objectives);
    out.check(traced_front == slurp(front_path),
              "traced surrogate loop reproduces dse::run_search's front byte for byte");
    out.digest_text += traced_front;
    add_front_costs(hv_costs, traced, so.objectives);
    for (const dse::EvaluatedPoint& p : evaluated) {
      configs.push_back(p.config);
      expected.push_back(p.objectives);
    }
  }
  std::filesystem::remove(front_path);
  out.digest_text += "hv=" + fmt(analysis::hypervolume(hv_costs, kHvReference)) + "\n";
  const dse::EvalOptions eo = dse16_options(opts, seeds[0]).eval;
  const StageTotals st = replay_stages(configs, expected, eo, true, tracer, out);

  const double screen = tracer->total_s("dse.screen");
  const double confirm = tracer->total_s("dse.confirm");
  const double fit = tracer->total_s("dse.fit");
  out.metric("dse.screen_s", screen, "s");
  out.metric("dse.confirm_s", confirm, "s");
  out.metric("dse.fit_s", fit, "s");
  out.metric("dse.screen_share", screen / std::max(1e-12, screen + confirm + fit), "ratio");
  add_stage_metrics(out, st);
  add_trace_overhead(out, tracer->coverage("dse16.search"), traced_s, untraced_s);
  out.detail("setup_s", median(setups), "s");
  return out;
}

// ---- dse8_cache -----------------------------------------------------------

namespace {

/// `n` distinct paper8 configs (perturbed 4x2 leaves included), drawn
/// from the seed.
std::vector<dse::Config> distinct_paper8(const dse::SpaceSpec& space, std::size_t n,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::set<std::string> seen;
  std::vector<dse::Config> out;
  while (out.size() < n) {
    dse::Config c = dse::sample(space, rng);
    dse::canonicalize(c);
    if (seen.insert(dse::config_key(c)).second) out.push_back(std::move(c));
  }
  return out;
}

std::string objectives_text(const std::vector<dse::Config>& configs,
                            const std::vector<dse::Objectives>& obj) {
  std::string text;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    text += dse::config_key(configs[i]) + " " + dse::EvalCache::serialize_objectives(obj[i]) + "\n";
  }
  return text;
}

}  // namespace

Outcome run_dse8_cache(const Options& opts, Tracer* tracer) {
  Outcome out;
  const std::size_t n = opts.tiny ? 48 : 1024;
  constexpr unsigned kResumeRepeats = 3;
  const dse::EvalOptions eo;  // 8x8 configs take the exhaustive netlist sweep
  std::vector<dse::Config> batch;
  const auto prepare = [&] {
    const dse::SpaceSpec space = dse::make_space("paper8");
    batch = distinct_paper8(space, n, derive_stream_seed(opts.seed, 0x8));
    (void)dse::evaluate(dse::paper_ca(8), eo);
  };
  std::vector<double> setups;
  time_setups(prepare, kSetupLeadRepeats, kSetupLeadSeconds, setups);
  const std::string path = opts.out_dir + "/dse8-cache-" + std::to_string(getpid()) + ".jsonl";

  std::string reference;  // objectives of the first cold pass
  // One cold pass into a fresh file-backed cache, then kResumeRepeats
  // read-only resume passes from that file. Returns {cold_s, resume_s}.
  const auto cache_cycle = [&](Tracer* tr) {
    std::filesystem::remove(path);
    double cold_s = 0.0;
    std::vector<dse::Objectives> cold;
    {
      Tracer::Scope root(tr, "dse8.cold");
      const Clock::time_point t0 = Clock::now();
      dse::EvalCache cache(path);
      std::uint64_t hits = 0;
      {
        Tracer::Scope span(tr, "dse.evaluate_all");
        cold = dse::evaluate_all(batch, &cache, eo, opts.threads, &hits);
      }
      cold_s = seconds_since(t0);
      out.check(hits == 0, "cold pass starts from an empty cache");
    }
    const std::string text = objectives_text(batch, cold);
    if (reference.empty()) reference = text;
    out.check(text == reference, "cold pass objectives repeat exactly");
    out.attempted += batch.size();
    std::vector<double> resume_s;
    for (unsigned r = 0; r < kResumeRepeats; ++r) {
      std::vector<dse::Objectives> resumed;
      std::uint64_t hits = 0;
      {
        Tracer::Scope root(tr, "dse8.resume");
        const Clock::time_point t0 = Clock::now();
        std::optional<dse::EvalCache> cache;
        {
          Tracer::Scope span(tr, "dse.cache_load");
          cache.emplace(path);
        }
        {
          Tracer::Scope span(tr, "dse.cache_serve");
          resumed = dse::evaluate_all(batch, &*cache, eo, opts.threads, &hits);
        }
        resume_s.push_back(seconds_since(t0));
      }
      out.check(hits == batch.size(), "resume pass is 100% cache hits");
      out.check(objectives_text(batch, resumed) == reference,
                "resume pass serves identical objectives");
      out.attempted += batch.size();
    }
    return std::pair<double, double>(cold_s, median(resume_s));
  };

  if (tracer == nullptr) {
    std::vector<double> cold_rates;
    std::vector<double> resume_rates;
    const std::vector<double> cycle_s = run_cycles(opts.seconds, 3, [&](unsigned) {
      time_setups(prepare, 1, kSetupCycleSeconds, setups);
      const auto [cold_s, resume_s] = cache_cycle(nullptr);
      cold_rates.push_back(static_cast<double>(batch.size()) / cold_s);
      resume_rates.push_back(static_cast<double>(batch.size()) / resume_s);
    });
    std::filesystem::remove(path);
    out.digest_text = reference;
    add_end_to_end(out, median(setups), median(cold_rates));
    out.detail("configs_per_s", median(cold_rates), "configs/s");
    out.detail("resume_configs_per_s", median(resume_rates), "configs/s");
    out.detail("batch_configs", static_cast<double>(batch.size()), "count");
    out.detail("cycles", static_cast<double>(cycle_s.size()), "count");
    return out;
  }

  // Traced run: one untraced and one traced cache cycle (overhead), a
  // single-threaded replay of the cache operations, and the stage replay.
  const auto [untraced_cold, untraced_resume] = cache_cycle(nullptr);
  const auto [traced_cold, traced_resume] = cache_cycle(tracer);
  const double cache_bytes = static_cast<double>(std::filesystem::file_size(path));
  out.digest_text = reference;

  const std::string replay_path = path + ".replay";
  std::filesystem::remove(replay_path);
  std::vector<double> insert_s;
  std::vector<double> lookup_s;
  std::vector<dse::Objectives> expected;
  {
    dse::EvalCache warm(path);
    for (const dse::Config& c : batch) {
      expected.push_back(*warm.lookup(dse::EvalCache::full_key(c, eo)));
    }
  }
  {
    Tracer::Scope root(tracer, "replay.cache");
    dse::EvalCache writer(replay_path);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string key = dse::EvalCache::full_key(batch[i], eo);
      const Clock::time_point t0 = Clock::now();
      writer.insert(key, expected[i]);
      const Clock::time_point t1 = Clock::now();
      tracer->record("dse.cache_insert", t0, t1, i + 1);
      insert_s.push_back(seconds_between(t0, t1));
    }
    std::optional<dse::EvalCache> reader;
    {
      Tracer::Scope span(tracer, "dse.cache_load");
      reader.emplace(replay_path);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string key = dse::EvalCache::full_key(batch[i], eo);
      const Clock::time_point t0 = Clock::now();
      const auto hit = reader->lookup(key);
      const Clock::time_point t1 = Clock::now();
      tracer->record("dse.cache_lookup", t0, t1, i + 1);
      lookup_s.push_back(seconds_between(t0, t1));
      out.check(hit.has_value(), "replayed cache serves every inserted key");
    }
    out.metric("dse.cache_hit_rate", reader->hit_rate(), "ratio");
  }
  std::filesystem::remove(replay_path);
  const std::vector<double> loads = tracer->durations_s("dse.cache_load");
  out.metric("dse.cache_insert_us", median(insert_s) * 1e6, "us");
  out.metric("dse.cache_load_ms", median(loads) * 1e3, "ms");
  out.metric("dse.cache_lookup_us", median(lookup_s) * 1e6, "us");
  out.metric("dse.cache_bytes", cache_bytes, "bytes");
  std::filesystem::remove(path);

  const StageTotals st = replay_stages(batch, expected, eo, false, tracer, out);
  add_stage_metrics(out, st);
  const double cold_root = tracer->total_s("dse8.cold");
  const double resume_root = tracer->total_s("dse8.resume");
  const double coverage =
      (tracer->coverage("dse8.cold") * cold_root + tracer->coverage("dse8.resume") * resume_root) /
      std::max(1e-12, cold_root + resume_root);
  add_trace_overhead(out, coverage, traced_cold + traced_resume,
                     untraced_cold + untraced_resume);
  out.detail("setup_s", median(setups), "s");
  out.detail("configs_per_s", static_cast<double>(batch.size()) / traced_cold, "configs/s");
  return out;
}

}  // namespace perfbench
