#pragma once

// Fresh-evaluation force oracle shared by the engine suites (staged,
// cadence, rebalance): the monolithic Pair::compute on new periodic ghosts
// and exact-cutoff neighbor lists in one process — no decomposition, no
// skin, no caches, no staged state.  Every engine schedule is checked
// against it at the positions the engine reached.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/domain_engine.hpp"
#include "md/atoms.hpp"
#include "md/box.hpp"
#include "md/ghosts.hpp"
#include "md/neighbor.hpp"
#include "md/pair.hpp"

namespace dpmd::oracle {

using PairFactory = std::function<std::shared_ptr<md::Pair>()>;

struct Reference {
  std::vector<Vec3> f;  ///< one per input atom, in input order
  double pe = 0.0;
  double virial = 0.0;
};

/// Oracle forces, potential energy and virial of the atoms at `x` (types
/// `type`) in the periodic `box`.
inline Reference reference_forces(const md::Box& box,
                                  const std::vector<Vec3>& x,
                                  const std::vector<int>& type,
                                  const PairFactory& mk) {
  md::Atoms atoms;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vec3 p = x[i];
    box.wrap(p);
    atoms.add_local(p, {0, 0, 0}, type[i], static_cast<std::int64_t>(i));
  }
  auto pair = mk();
  md::build_periodic_ghosts(atoms, box, pair->cutoff());
  md::NeighborList list({pair->cutoff(), 0.0, pair->needs_full_list()});
  list.build(atoms, box);
  atoms.zero_forces();
  const md::ForceResult res = pair->compute(atoms, list);
  // Fold ghost-image forces onto the parents (Newton on).
  for (int g = 0; g < atoms.nghost; ++g) {
    atoms.f[static_cast<std::size_t>(
        atoms.ghost_parent[static_cast<std::size_t>(g)])] +=
        atoms.f[static_cast<std::size_t>(atoms.nlocal + g)];
  }
  Reference ref;
  ref.f.assign(atoms.f.begin(), atoms.f.begin() + atoms.nlocal);
  ref.pe = res.pe;
  ref.virial = res.virial;
  return ref;
}

/// The oracle at a gathered DomainEngine state: `type_by_tag[tag]` is each
/// atom's type, and f[i] of the result belongs to all[i].
inline Reference reference_forces(
    const md::Box& box,
    const std::vector<comm::DomainEngine::GlobalAtom>& all,
    const std::vector<int>& type_by_tag, const PairFactory& mk) {
  std::vector<Vec3> x;
  std::vector<int> type;
  for (const auto& a : all) {
    x.push_back(a.x);
    type.push_back(type_by_tag[static_cast<std::size_t>(a.tag)]);
  }
  return reference_forces(box, x, type, mk);
}

}  // namespace dpmd::oracle
