// One benchmark child process: sets up one workload from a seed, runs its
// timed window and prints a single JSON object (raw per-step samples, layer
// samples, correctness checks) for perfbench/run.py to aggregate.
//
//   perfbench_child --workload water256-sim|lj-2rank --seed N --budget S
//                   [--trace 0|1] [--smoke | --setup-only]
//
// --setup-only stops at the first timed step: the parent uses such children
// for extra set-up time samples.
//
// Exit status: 0 = every check passed, 3 = a correctness check failed,
// 4 = the workload threw.  A crash shows up to the parent as a signal.
//
// Layers are measured from outside the library: a forwarding md::Pair
// decorator, timed step() calls, timed calls into public layer functions on
// the workload's own state, and the library's public counters.  --trace 0
// inserts none of that and times step() calls only.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "comm/domain_engine.hpp"
#include "core/descriptor.hpp"
#include "core/inference.hpp"
#include "core/model_pack.hpp"
#include "core/pair_deepmd.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/pair.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "scaling_bench.hpp"
#include "simmpi/simmpi.hpp"
#include "util/checkpoint.hpp"
#include "util/random.hpp"
#include "water256.hpp"

namespace {

using namespace dpmd;

/// CLOCK_MONOTONIC seconds: the clock Python's time.monotonic() reads, so
/// the parent can subtract its spawn time from our first-timed-step time.
double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- output --

/// Minimal JSON object writer: numbers at full precision, sample arrays.
class Json {
 public:
  void num(const std::string& key, double v) {
    if (!std::isfinite(v)) {  // JSON has no NaN/inf
      field(key) << "null";
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key) << buf;
  }
  void str(const std::string& key, const std::string& v) {
    field(key) << '"' << v << '"';
  }
  void arr(const std::string& key, const std::vector<double>& v) {
    auto& os = field(key);
    os << '[';
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.9g", v[i]);
      os << (i ? "," : "") << buf;
    }
    os << ']';
  }
  void raw(const std::string& key, const std::string& json) {
    field(key) << json;
  }
  std::string done() const {
    std::string out = "{";
    out += os_.str();
    out += '}';
    return out;
  }

 private:
  std::ostringstream& field(const std::string& key) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << '"' << key << "\":";
    return os_;
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// Timed: the full window.  Smoke: a few steps.  SetupOnly: set up, then
/// stop where the first timed step would start.
enum class Mode { Timed, Smoke, SetupOnly };

struct Check {
  std::string name;
  bool ok;
  double value;
  double bound;
};

/// Everything a child reports.  `layers` holds per-layer samples (trace
/// runs); `counts` holds per-layer totals that are exact counts.
struct ChildResult {
  double ready_mono = 0.0;   ///< CLOCK_MONOTONIC at the first timed step
  double window_s = 0.0;     ///< wall time of the timed steps
  double sim_fs = 0.0;       ///< simulated time covered by the window
  std::vector<double> step_ms;
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, double> counts;
  std::vector<Check> checks;
  std::string final_pe_hex;  ///< bitwise fingerprint of the final PE

  void check(const std::string& name, double value, double bound) {
    checks.push_back({name, std::isfinite(value) && value <= bound, value,
                      bound});
  }
  bool ok() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Timed windows are made of whole segments, each restored from one
/// in-memory checkpoint so every segment does identical work.  Another
/// segment starts while one more of the mean length so far fits the budget.
bool another_segment(int done, int min_segments, double elapsed_s,
                     double budget_s) {
  return done < min_segments || elapsed_s + elapsed_s / done <= budget_s;
}

// ------------------------------------------------------- pair decorator --

/// Forwarding md::Pair decorator that times every call into the wrapped
/// style.  busy_s() is the cumulative wall time spent inside the style.
class TimedPair final : public md::Pair {
 public:
  explicit TimedPair(std::shared_ptr<md::Pair> inner)
      : inner_(std::move(inner)) {}

  double busy_s() const { return busy_s_; }

  std::string name() const override { return inner_->name(); }
  double cutoff() const override { return inner_->cutoff(); }
  bool needs_full_list() const override { return inner_->needs_full_list(); }
  bool supports_partitions() const override {
    return inner_->supports_partitions();
  }

  md::ForceResult compute(md::Atoms& atoms,
                          const md::NeighborList& list) override {
    const Span s(busy_s_);
    return inner_->compute(atoms, list);
  }
  void begin_step(md::Atoms& atoms, const md::NeighborList& list) override {
    const Span s(busy_s_);
    inner_->begin_step(atoms, list);
  }
  void compute_partition(md::Atoms& atoms, const md::NeighborList& list,
                         std::span<const int> centers, md::ForceAccum& accum,
                         bool async) override {
    const Span s(busy_s_);
    inner_->compute_partition(atoms, list, centers, accum, async);
  }
  void join() override {
    const Span s(busy_s_);
    inner_->join();
  }
  md::ForceResult end_step(md::Atoms& atoms, const md::NeighborList& list,
                           md::ForceAccum& accum) override {
    const Span s(busy_s_);
    return inner_->end_step(atoms, list, accum);
  }
  void on_lists_rebuilt() override {
    const Span s(busy_s_);
    inner_->on_lists_rebuilt();
  }
  bool degrade_to_conservative() override {
    return inner_->degrade_to_conservative();
  }
  void set_stop_token(rt::StopToken token) override {
    inner_->set_stop_token(std::move(token));
  }
  bool per_atom_energy(md::Atoms& atoms, const md::NeighborList& list,
                       std::vector<double>& energies) override {
    return inner_->per_atom_energy(atoms, list, energies);
  }

 private:
  struct Span {
    explicit Span(double& acc) : acc_(acc), t0_(mono_now()) {}
    ~Span() { acc_ += mono_now() - t0_; }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    double& acc_;
    double t0_;
  };

  std::shared_ptr<md::Pair> inner_;
  double busy_s_ = 0.0;
};

// ------------------------------------------------------------ water256 --

// The bench/water256.hpp system; the workload seed displaces its atoms and
// draws the velocities, the model weights stay fixed.
constexpr double kWaterJitter = 0.05;  // seeded displacement per coordinate, A
constexpr double kWaterDtFs = 0.25;
constexpr double kWaterTempK = 50.0;
constexpr int kWaterRebuildEvery = 50;
constexpr int kSegmentSteps = 100;
constexpr int kSmokeSegmentSteps = 20;
constexpr int kMinSegments = 10;  // >= 1000 step samples per child
constexpr int kProbeReps = 3;
constexpr int kPackBuildReps = 3;
// NVE bounds; perfbench/README.md records the seeds they were fitted on.
constexpr double kWaterDriftBoundEv = 1e-5;  // max |Etot - Etot(0)| per segment
constexpr double kProbeEnergyRelTol = 1e-9;  // probe sweep vs engine PE

/// The bench/water256.hpp configuration with every coordinate displaced by
/// a seeded uniform offset.  Under the random-weight model the trajectory
/// blows up after ~150-250 steps at dt 0.25 fs (later for most seeds), so
/// segments stop at 100 steps; fully random placements (that header's
/// algorithm re-seeded) blew up within 200 steps on more seeds still.
md::Atoms water_atoms(std::uint64_t seed, md::Box& box) {
  md::Atoms atoms = bench::water256_atoms(box);
  Rng rng(seed);
  for (int i = 0; i < atoms.nlocal; ++i) {
    Vec3& x = atoms.x[static_cast<std::size_t>(i)];
    x.x += rng.uniform(-kWaterJitter, kWaterJitter);
    x.y += rng.uniform(-kWaterJitter, kWaterJitter);
    x.z += rng.uniform(-kWaterJitter, kWaterJitter);
  }
  return atoms;
}

/// Trace-only probes on the engine's current state: a fresh neighbor list,
/// env build + refresh and one fitting sweep through a DPEvaluator sharing
/// the pair style's pack.  The evaluator and batches persist across calls
/// and the first repetition ever is an unrecorded warm-up, so the samples
/// time steady-state work as the pair style sees it.
class WaterProbes {
 public:
  WaterProbes(const dp::PairDeepMD& dp, const dp::EvalOptions& opts)
      : pack_(dp.pack()), ev_(dp.pack(), opts), block_(opts.block_size) {}

  /// Returns max |sum E_probe - engine PE| / max(1, |PE|) over the reps.
  double run(const md::Sim& sim, ChildResult& r) {
    const auto& params = pack_->model().config().descriptor;
    const int ntypes = pack_->model().config().ntypes;
    const int n = sim.atoms().nlocal;
    const int nblocks = (n + block_ - 1) / block_;
    batches_.resize(static_cast<std::size_t>(nblocks));
    energies_.resize(batches_.size());
    dedd_.resize(batches_.size());
    double rel_err = 0.0;
    for (int rep = warm_ ? 0 : -1; rep < kProbeReps; ++rep) {
      const auto record = [&](const char* name, double v) {
        if (rep >= 0) r.layers[name].push_back(v);
      };
      md::NeighborList list(sim.nlist().config());
      double t0 = mono_now();
      list.build(sim.atoms(), sim.box());
      record("md.neigh_build_ms", 1e3 * (mono_now() - t0));

      t0 = mono_now();
      for (int b = 0; b < nblocks; ++b) {
        dp::build_env_batch(sim.atoms(), list, b * block_,
                            std::min(block_, n - b * block_), params, ntypes,
                            batches_[static_cast<std::size_t>(b)],
                            /*keep_list_rows=*/true);
      }
      record("core.env_build_ms", 1e3 * (mono_now() - t0));

      t0 = mono_now();
      for (auto& batch : batches_) {
        dp::refresh_env_batch(sim.atoms(), params, batch);
      }
      record("core.env_refresh_ms", 1e3 * (mono_now() - t0));

      std::vector<dp::DPEvaluator::SweepJob> jobs;
      for (std::size_t b = 0; b < batches_.size(); ++b) {
        jobs.push_back({&batches_[b], &energies_[b], &dedd_[b]});
      }
      const double f0 = ev_.flops_used();
      t0 = mono_now();
      ev_.evaluate_sweep(jobs.data(), static_cast<int>(jobs.size()));
      const double sweep_s = mono_now() - t0;
      const double flops = ev_.flops_used() - f0;
      record("core.sweep_ms", 1e3 * sweep_s);
      record("core.sweep_gflops", flops / sweep_s * 1e-9);
      r.counts["core.flops_per_step"] = flops;

      double e = 0.0;
      for (const auto& eb : energies_) {
        for (const double v : eb) e += v;
      }
      rel_err = std::max(rel_err, std::abs(e - sim.pe()) /
                                      std::max(1.0, std::abs(sim.pe())));
    }
    warm_ = true;
    return rel_err;
  }

 private:
  std::shared_ptr<const dp::ModelPack> pack_;
  dp::DPEvaluator ev_;
  int block_;
  bool warm_ = false;
  std::vector<dp::AtomEnvBatch> batches_;
  std::vector<std::vector<double>> energies_;
  std::vector<std::vector<Vec3>> dedd_;
};

ChildResult run_water(std::uint64_t seed, double budget_s, bool trace,
                      Mode mode) {
  const bool smoke = mode == Mode::Smoke;
  ChildResult r;
  const auto model = bench::water256_model();
  md::Box box;
  md::Atoms atoms = water_atoms(seed, box);
  const std::vector<double> masses{md::kMassO, md::kMassH};
  Rng vrng(seed ^ 0x5eedu);  // velocity stream apart from the displacements
  md::thermalize(atoms, masses, kWaterTempK, vrng);

  dp::EvalOptions opts;
  opts.precision = dp::Precision::Double;
  opts.compressed = true;
  opts.fused_table = true;
  opts.block_size = bench::kWater256Block;
  auto dp = std::make_shared<dp::PairDeepMD>(model, opts);  // 1 thread
  std::shared_ptr<md::Pair> pair = dp;
  TimedPair* timed = nullptr;
  if (trace) {
    auto t = std::make_shared<TimedPair>(dp);
    timed = t.get();
    pair = t;
  }
  md::SimConfig cfg;
  cfg.dt_fs = kWaterDtFs;
  cfg.skin = -1.0;  // auto: 0.85 A in the 13.7 A cell
  cfg.rebuild_every = kWaterRebuildEvery;
  md::Sim sim(box, std::move(atoms), masses, pair, cfg);
  sim.setup();
  ckpt::Writer w;
  sim.save_checkpoint(w);
  const std::vector<std::byte> start = w.framed();
  std::unique_ptr<WaterProbes> probes;
  if (trace) probes = std::make_unique<WaterProbes>(*dp, opts);

  const int seg_steps = smoke ? kSmokeSegmentSteps : kSegmentSteps;
  const int min_segments = smoke ? 1 : kMinSegments;
  r.ready_mono = mono_now();
  if (mode == Mode::SetupOnly) return r;
  const double t_begin = r.ready_mono;
  std::vector<double> pair_refresh, pair_rebuild, self_ms;
  double worst_drift = 0.0;
  double probe_err = 0.0;
  bool pe_bitwise = true;
  int rebuilds = 0;
  std::size_t atoms_evaluated = 0;
  for (int seg = 0;
       another_segment(seg, min_segments, mono_now() - t_begin, budget_s);
       ++seg) {
    ckpt::Reader rd(start, "segment start");
    sim.restore_checkpoint(rd);
    sim.setup();
    const double e0 = sim.thermo().total();
    for (int s = 0; s < seg_steps; ++s) {
      const double pair0 = timed ? timed->busy_s() : 0.0;
      const int reb0 = sim.rebuild_count();
      const std::size_t ae0 = dp->atoms_evaluated();
      const double t0 = mono_now();
      sim.step();
      const double dt = mono_now() - t0;
      r.step_ms.push_back(1e3 * dt);
      r.window_s += dt;
      const bool rebuilt = sim.rebuild_count() != reb0;
      rebuilds += rebuilt ? 1 : 0;
      atoms_evaluated += dp->atoms_evaluated() - ae0;
      if (timed) {
        const double p = timed->busy_s() - pair0;
        (rebuilt ? pair_rebuild : pair_refresh).push_back(1e3 * p);
        self_ms.push_back(1e3 * (dt - p));
      }
      worst_drift = std::max(worst_drift, std::abs(sim.thermo().total() - e0));
    }
    const std::string pe = hex_double(sim.pe());
    if (seg == 0) r.final_pe_hex = pe;
    pe_bitwise = pe_bitwise && pe == r.final_pe_hex;
    if (probes) probe_err = std::max(probe_err, probes->run(sim, r));
  }
  const int steps = static_cast<int>(r.step_ms.size());
  r.sim_fs = steps * kWaterDtFs;

  r.check("water.segment_drift_ev", worst_drift, kWaterDriftBoundEv);
  r.check("water.final_pe_bitwise_mismatch", pe_bitwise ? 0.0 : 1.0, 0.0);
  r.check("water.health_incidents",
          static_cast<double>(sim.incidents().size()), 0.0);
  if (trace) {
    r.check("water.probe_energy_rel_err", probe_err, kProbeEnergyRelTol);
    r.layers["core.pair_ms.refresh"] = pair_refresh;
    r.layers["core.pair_ms.rebuild"] = pair_rebuild;
    r.layers["md.self_ms"] = self_ms;
    r.layers["trace.step_ms"] = r.step_ms;
    for (int rep = 0; rep < kPackBuildReps; ++rep) {
      const double t0 = mono_now();
      const auto pack = dp::ModelPack::build(model, dp::pack_key(opts));
      r.layers["core.pack_build_s"].push_back(mono_now() - t0);
    }
    r.counts["core.atoms_evaluated"] = static_cast<double>(atoms_evaluated);
    r.counts["md.rebuilds"] = rebuilds;
  }
  return r;
}

// ------------------------------------------------------------- lj-2rank --

// LJ argon (bench/scaling_bench.hpp parameters): 20^3 atoms on a 3.8 A
// simple-cubic lattice at 90 K, 2x1x1 simmpi ranks, engine-default cadence
// (skin 0, rebuild every step).
constexpr int kLjSide = 20;
constexpr double kLjSpacing = 3.8;
constexpr double kLjJitter = 0.05;  // seeded lattice displacement, A
constexpr double kLjTempK = 90.0;
constexpr double kLjDtFs = 2.0;
constexpr int kLjSegmentSteps = 500;
constexpr int kLjChunk = 100;  // steps between collective energy checks
constexpr int kSmokeLjSegmentSteps = 20;
constexpr int kSmokeLjChunk = 10;
constexpr double kLjDriftBoundEvPerAtom = 1e-5;

ChildResult run_lj(std::uint64_t seed, double budget_s, bool trace,
                   Mode mode) {
  const bool smoke = mode == Mode::Smoke;
  ChildResult r;
  const double edge = kLjSide * kLjSpacing;
  const md::Box box({0, 0, 0}, {edge, edge, edge});
  Rng rng(seed);
  md::Atoms lattice;
  std::int64_t tag = 0;
  for (int i = 0; i < kLjSide; ++i) {
    for (int j = 0; j < kLjSide; ++j) {
      for (int k = 0; k < kLjSide; ++k) {
        const auto site = [&](int c) {
          return (c + 0.5) * kLjSpacing + rng.uniform(-kLjJitter, kLjJitter);
        };
        const double x = site(i), y = site(j), z = site(k);
        lattice.add_local({x, y, z}, {0, 0, 0}, 0, tag++);
      }
    }
  }
  const std::vector<double> masses{bench::kLbMass};
  md::thermalize(lattice, masses, kLjTempK, rng);
  const int natoms = lattice.nlocal;
  const std::vector<Vec3> x(lattice.x.begin(), lattice.x.begin() + natoms);
  const std::vector<Vec3> v(lattice.v.begin(), lattice.v.begin() + natoms);
  const std::vector<int> type(lattice.type.begin(),
                              lattice.type.begin() + natoms);

  // Two ranks, not four: every step synchronises the ranks, so one rank
  // thread that loses its core stalls them all.  On a 4-core host with one
  // competing busy thread, 2x2x1 lost half its throughput and its runs spread
  // 25%; 2x1x1 lost 4%.
  const simmpi::CartGrid grid(2, 1, 1);
  const int nranks = grid.size();
  simmpi::World world(nranks);
  const int seg_steps = smoke ? kSmokeLjSegmentSteps : kLjSegmentSteps;
  const int chunk = smoke ? kSmokeLjChunk : kLjChunk;
  std::vector<double> pair_total(static_cast<std::size_t>(nranks), 0.0);
  std::vector<double> ghosts_sum(static_cast<std::size_t>(nranks), 0.0);
  std::vector<int> incidents(static_cast<std::size_t>(nranks), 0);
  double worst_drift = 0.0;
  double tag_errors = natoms;  // overwritten by rank 0 after gather_all()
  std::size_t messages = 0, bytes = 0;
  int rebuilds = 0, chunks = 0;
  std::map<std::string, double> timer_delta;
  std::vector<double> pair_ms, self_ms, neigh_build_ms;

  world.run([&](simmpi::Rank& rank) {
    const auto me = static_cast<std::size_t>(rank.rank());
    const bool root = rank.rank() == 0;
    std::shared_ptr<md::Pair> pair = bench::make_lb_pair();
    TimedPair* timed = nullptr;
    if (trace) {
      auto t = std::make_shared<TimedPair>(pair);
      timed = t.get();
      pair = t;
    }
    comm::DomainConfig cfg;  // engine-default cadence
    cfg.dt_fs = kLjDtFs;
    comm::DomainEngine engine(rank, grid, box, masses, pair, cfg);
    engine.seed(x, v, type);
    engine.step();  // initial forces: the engine's lazy set-up
    ckpt::Writer w;
    engine.save_checkpoint(w);
    const std::vector<std::byte> start = w.framed();
    double t_begin = 0.0;
    if (root) t_begin = r.ready_mono = mono_now();
    for (int seg = 0;; ++seg) {
      // Collective decision, taken by rank 0's clock.
      const bool more = root && mode != Mode::SetupOnly &&
                        another_segment(seg, 1, mono_now() - t_begin,
                                        budget_s);
      if (rank.allreduce_max(more ? 1.0 : 0.0) == 0.0) break;
      ckpt::Reader rd(start, "segment start");
      engine.restore_checkpoint(rd);
      engine.step();  // re-derives ghosts, lists and forces; untimed
      const double e0 = engine.total_pe() + engine.total_kinetic();
      for (int c = 0; c < seg_steps / chunk; ++c) {
        // Read before the barrier: no rank sends until every rank is past it.
        const std::size_t m0 = world.messages_sent();
        const std::size_t b0 = world.bytes_sent();
        rank.barrier();
        const int reb0 = engine.rebuild_count();
        const auto tm0 = engine.timers().snapshot();
        const double pair0 = timed ? timed->busy_s() : 0.0;
        for (int s = 0; s < chunk; ++s) {
          const double p0 = timed ? timed->busy_s() : 0.0;
          const double t0 = mono_now();
          engine.step();
          if (root) {
            const double dt = mono_now() - t0;
            r.step_ms.push_back(1e3 * dt);
            r.window_s += dt;
            if (timed) {
              const double p = timed->busy_s() - p0;
              pair_ms.push_back(1e3 * p);
              self_ms.push_back(1e3 * (dt - p));
            }
          }
        }
        rank.barrier();
        if (timed) {
          pair_total[me] += timed->busy_s() - pair0;
          ghosts_sum[me] += static_cast<double>(engine.atoms().ntotal() -
                                                engine.atoms().nlocal);
        }
        if (root) {
          ++chunks;
          messages += world.messages_sent() - m0;
          bytes += world.bytes_sent() - b0;
          rebuilds += engine.rebuild_count() - reb0;
          for (const auto& [name, total] : engine.timers().snapshot()) {
            const auto it = tm0.find(name);
            timer_delta[name] += total - (it == tm0.end() ? 0.0 : it->second);
          }
          if (trace) {
            md::NeighborList list({pair->cutoff(), engine.config().skin,
                                   pair->needs_full_list()});
            const double t0 = mono_now();
            list.build(engine.atoms(), box);
            neigh_build_ms.push_back(1e3 * (mono_now() - t0));
          }
        }
        const double e = engine.total_pe() + engine.total_kinetic();
        if (root) {
          worst_drift = std::max(worst_drift, std::abs(e - e0) / natoms);
        }
      }
    }
    incidents[me] = static_cast<int>(engine.incidents().size());
    const auto all = engine.gather_all();
    if (root) {
      std::set<std::int64_t> tags;
      for (const auto& a : all) tags.insert(a.tag);
      // Missing atoms plus duplicated tags: 0 when every atom is held once.
      tag_errors = std::abs(static_cast<double>(natoms) -
                            static_cast<double>(tags.size())) +
                   static_cast<double>(all.size() - tags.size());
    }
  });

  const int steps = static_cast<int>(r.step_ms.size());
  r.sim_fs = steps * kLjDtFs;
  r.check("lj.drift_ev_per_atom", worst_drift, kLjDriftBoundEvPerAtom);
  r.check("lj.gathered_tag_errors", tag_errors, 0.0);
  double nincidents = 0.0;
  for (const int n : incidents) nincidents += n;
  r.check("lj.health_incidents", nincidents, 0.0);
  if (trace) {
    r.layers["lj.pair_ms"] = pair_ms;
    r.layers["engine.self_ms"] = self_ms;
    r.layers["md.neigh_build_ms"] = neigh_build_ms;
    r.layers["trace.step_ms"] = r.step_ms;
    r.counts["simmpi.messages"] = static_cast<double>(messages);
    r.counts["simmpi.bytes"] = static_cast<double>(bytes);
    r.counts["md.rebuilds"] = rebuilds;
    r.counts["comm.halo_s"] = timer_delta["halo"];
    r.counts["comm.force_return_s"] = timer_delta["force_return"];
    r.counts["md.neigh_s"] = timer_delta["neigh"];
    double gsum = 0.0, pmax = 0.0, psum = 0.0;
    for (int k = 0; k < nranks; ++k) {
      gsum += ghosts_sum[static_cast<std::size_t>(k)];
      pmax = std::max(pmax, pair_total[static_cast<std::size_t>(k)]);
      psum += pair_total[static_cast<std::size_t>(k)];
    }
    r.counts["comm.ghosts_per_rank"] = gsum / (nranks * std::max(1, chunks));
    r.counts["lb.pair_max_s"] = pmax;
    r.counts["lb.pair_mean_s"] = psum / nranks;
  }
  return r;
}

std::string to_json(const ChildResult& r, const std::string& workload,
                    std::uint64_t seed) {
  Json j;
  j.str("workload", workload);
  j.num("seed", static_cast<double>(seed));
  j.num("ready_mono", r.ready_mono);
  j.num("window_s", r.window_s);
  j.num("sim_fs", r.sim_fs);
  j.num("peak_rss_mb", peak_rss_mb());
  j.str("final_pe_hex", r.final_pe_hex);
  j.arr("step_ms", r.step_ms);
  Json layers;
  for (const auto& [name, samples] : r.layers) layers.arr(name, samples);
  j.raw("layers", layers.done());
  Json counts;
  for (const auto& [name, v] : r.counts) counts.num(name, v);
  j.raw("counts", counts.done());
  std::string checks = "[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    Json c;
    c.str("name", r.checks[i].name);
    c.raw("ok", r.checks[i].ok ? "true" : "false");
    c.num("value", r.checks[i].value);
    c.num("bound", r.checks[i].bound);
    if (i) checks += ',';
    checks += c.done();
  }
  j.raw("checks", checks + "]");
  return j.done();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double budget_s = 10.0;
  bool trace = false;
  Mode mode = Mode::Timed;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      seed = std::stoull(next());
    } else if (a == "--budget") {
      budget_s = std::stod(next());
    } else if (a == "--trace") {
      trace = next() == "1";
    } else if (a == "--smoke") {
      mode = Mode::Smoke;
    } else if (a == "--setup-only") {
      mode = Mode::SetupOnly;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  try {
    ChildResult r;
    if (workload == "water256-sim") {
      r = run_water(seed, budget_s, trace, mode);
    } else if (workload == "lj-2rank") {
      r = run_lj(seed, budget_s, trace, mode);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    std::printf("%s\n", to_json(r, workload, seed).c_str());
    std::fflush(stdout);
    return r.ok() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", workload.c_str(),
                 e.what());
    return 4;
  }
}
