// Micro-benchmarks of the runtime substrate: persistent threadpool vs
// OpenMP parallel-region overhead (the paper's §III-D2 threadpool claim),
// and neighbor-list construction throughput.
#include <benchmark/benchmark.h>

#include <atomic>

#include "md/ghosts.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/partition.hpp"
#include "runtime/threadpool.hpp"
#include "util/random.hpp"

using namespace dpmd;

namespace {

void BM_ThreadpoolRegion(benchmark::State& state) {
  rt::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<long> sink{0};
  for (auto _ : state) {
    pool.run_on_all([&](unsigned) { sink.fetch_add(1, std::memory_order_relaxed); });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadpoolRegion)->Arg(1)->Arg(2)->Arg(4);

void BM_OpenMpRegion(benchmark::State& state) {
  std::atomic<long> sink{0};
  for (auto _ : state) {
#pragma omp parallel
    {
      sink.fetch_add(1, std::memory_order_relaxed);
    }
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_OpenMpRegion);

void BM_ThreadpoolParallelFor(benchmark::State& state) {
  rt::ThreadPool pool(2);
  std::vector<double> data(10000, 1.0);
  for (auto _ : state) {
    pool.parallel_ranges(data.size(),
                         [&](std::size_t b, std::size_t e, unsigned) {
                           for (std::size_t i = b; i < e; ++i) {
                             data[i] = data[i] * 1.0000001;
                           }
                         });
  }
  benchmark::DoNotOptimize(data.data());
}
BENCHMARK(BM_ThreadpoolParallelFor);

void BM_NeighborBuild(benchmark::State& state) {
  md::Box box;
  md::Atoms atoms = md::make_fcc(3.61, static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)), 0, box);
  md::build_periodic_ghosts(atoms, box, 6.0);
  md::NeighborList list({6.0, 2.0, true});
  for (auto _ : state) {
    list.build(atoms, box);
    benchmark::DoNotOptimize(list.total_entries());
  }
  state.SetItemsProcessed(state.iterations() * atoms.nlocal);
}
BENCHMARK(BM_NeighborBuild)->Arg(4)->Arg(6);

// One rank of perfbench's lj-2rank workload: a 10x20x20 slab of its 20^3
// simple-cubic 3.8 A lattice (seeded +-0.05 A jitter) with the periodic
// ghosts of rc 5 A, skin 0 and a half list.  Geometrically the slab's ghosts
// match what the 2x1x1 decomposition hands each rank: 4000 locals, 1808
// ghosts.
constexpr double kLjRankRc = 5.0;
md::Atoms lj_rank_slab(md::Box& box) {
  constexpr int kNx = 10, kNyz = 20;
  constexpr double kSpacing = 3.8;
  box = md::Box({0, 0, 0}, {kNx * kSpacing, kNyz * kSpacing, kNyz * kSpacing});
  Rng rng(1);
  md::Atoms atoms;
  std::int64_t tag = 0;
  for (int i = 0; i < kNx; ++i) {
    for (int j = 0; j < kNyz; ++j) {
      for (int k = 0; k < kNyz; ++k) {
        const auto site = [&](int c) {
          return (c + 0.5) * kSpacing + rng.uniform(-0.05, 0.05);
        };
        const double x = site(i), y = site(j), z = site(k);
        atoms.add_local({x, y, z}, {0, 0, 0}, 0, tag++);
      }
    }
  }
  md::build_periodic_ghosts(atoms, box, kLjRankRc);
  return atoms;
}

void BM_NeighborBuildLjRank(benchmark::State& state) {
  md::Box box;
  const md::Atoms atoms = lj_rank_slab(box);
  md::NeighborList list({kLjRankRc, 0.0, false});
  for (auto _ : state) {
    list.build(atoms, box);
    benchmark::DoNotOptimize(list.total_entries());
  }
  state.SetItemsProcessed(state.iterations() * atoms.nlocal);
  state.counters["ghosts"] = atoms.nghost;
}
BENCHMARK(BM_NeighborBuildLjRank);

// The same shape built the way comm::DomainEngine builds it on a rebuild
// step: a locals-only reset pass over the interior centers, the ghosts
// appended to the atom arrays, then the append pass over the boundary
// centers.  The ghost append is part of the timed loop, as in the engine.
void BM_NeighborBuildLjRankStaged(benchmark::State& state) {
  md::Box box;
  md::Atoms atoms = lj_rank_slab(box);
  const md::Atoms with_ghosts = atoms;
  atoms.clear_ghosts();
  md::StagePartition part;
  md::classify_partition(atoms, box, kLjRankRc, part);
  md::NeighborList list({kLjRankRc, 0.0, false});
  for (auto _ : state) {
    atoms.clear_ghosts();
    list.build_centers(atoms, box, part.interior, /*reset=*/true);
    for (int g = 0; g < with_ghosts.nghost; ++g) {
      const auto idx = static_cast<std::size_t>(with_ghosts.nlocal + g);
      const auto gi = static_cast<std::size_t>(g);
      atoms.add_ghost(with_ghosts.x[idx], 0, with_ghosts.tag[idx],
                      with_ghosts.ghost_parent[gi],
                      with_ghosts.ghost_shift[gi]);
    }
    list.build_centers(atoms, box, part.boundary, /*reset=*/false);
    benchmark::DoNotOptimize(list.total_entries());
  }
  state.SetItemsProcessed(state.iterations() * atoms.nlocal);
}
BENCHMARK(BM_NeighborBuildLjRankStaged);

void BM_GhostBuild(benchmark::State& state) {
  md::Box box;
  md::Atoms atoms = md::make_fcc(3.61, 6, 6, 6, 0, box);
  for (auto _ : state) {
    md::build_periodic_ghosts(atoms, box, 6.0);
    benchmark::DoNotOptimize(atoms.nghost);
  }
  state.SetItemsProcessed(state.iterations() * atoms.nlocal);
}
BENCHMARK(BM_GhostBuild);

}  // namespace

BENCHMARK_MAIN();
