#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dpmd::md {

namespace {

/// Half-list ownership rule (LAMMPS "newton on" convention): local-local
/// pairs are kept once via the index order; local-ghost pairs use a spatial
/// lexicographic (z, y, x) tie-break so each cross-boundary physical pair is
/// stored by exactly one of its two owners.
bool skip_in_half_list(const Atoms& atoms, int i, int j) {
  if (j < atoms.nlocal) return j < i;
  const Vec3& xi = atoms.x[static_cast<std::size_t>(i)];
  const Vec3& xj = atoms.x[static_cast<std::size_t>(j)];
  if (xj.z != xi.z) return xj.z < xi.z;
  if (xj.y != xi.y) return xj.y < xi.y;
  return xj.x < xi.x;
}

}  // namespace

void NeighborList::bin_atoms(const Atoms& atoms, const Box& box) {
  DPMD_REQUIRE(cfg_.cutoff > 0.0, "neighbor cutoff not set");
  const double rlist = list_cutoff();
  const int ntotal = atoms.ntotal();

  // Cell grid over the extended region that contains locals + ghosts.
  Vec3 lo = box.lo, hi = box.hi;
  for (int i = 0; i < ntotal; ++i) {
    lo = cmin(lo, atoms.x[static_cast<std::size_t>(i)]);
    hi = cmax(hi, atoms.x[static_cast<std::size_t>(i)]);
  }
  // Nudge so max-coordinate atoms land inside the last cell.
  const Vec3 span{hi.x - lo.x + 1e-9, hi.y - lo.y + 1e-9, hi.z - lo.z + 1e-9};
  for (int d = 0; d < 3; ++d) {
    ncell_[d] = std::max(1, static_cast<int>(span[d] / rlist));
    cell_w_[d] = span[d] / ncell_[d];
  }
  grid_lo_ = lo;
  sort_into_grid(atoms);
}

void NeighborList::sort_into_grid(const Atoms& atoms) {
  const auto ntotal = static_cast<std::size_t>(atoms.ntotal());
  const auto ncells =
      static_cast<std::size_t>(ncell_[0] * ncell_[1] * ncell_[2]);
  atom_cell_.resize(ntotal);
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t i = 0; i < ntotal; ++i) {
    const Vec3& p = atoms.x[i];
    const int cell =
        (cell_coord(p.x, 0) * ncell_[1] + cell_coord(p.y, 1)) * ncell_[2] +
        cell_coord(p.z, 2);
    atom_cell_[i] = cell;
    ++cell_start_[static_cast<std::size_t>(cell)];
  }
  // Inclusive prefix sum: cell_start_[c] is the end of cell c ...
  for (std::size_t c = 1; c <= ncells; ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  // ... and filling each cell from its end in ascending atom index moves it
  // back to the start, leaving the cell in descending atom index.
  sorted_idx_.resize(ntotal);
  sx_.resize(ntotal);
  sy_.resize(ntotal);
  sz_.resize(ntotal);
  for (std::size_t i = 0; i < ntotal; ++i) {
    const auto slot = static_cast<std::size_t>(
        --cell_start_[static_cast<std::size_t>(atom_cell_[i])]);
    sorted_idx_[slot] = static_cast<int>(i);
    sx_[slot] = atoms.x[i].x;
    sy_[slot] = atoms.x[i].y;
    sz_[slot] = atoms.x[i].z;
  }
  nsorted_ = atoms.ntotal();
}

void NeighborList::search_center(const Atoms& atoms, int i) {
  const double rlist = list_cutoff();
  const double rlist2 = rlist * rlist;
  auto& list = neigh_[static_cast<std::size_t>(i)];
  const Vec3& xi = atoms.x[static_cast<std::size_t>(i)];
  const int ci[3] = {cell_coord(xi.x, 0), cell_coord(xi.y, 1),
                     cell_coord(xi.z, 2)};
  // The z cells cz-1..cz+1 of an (x, y) row are contiguous slots.  The
  // distance filter is branch-free: every candidate is written, only hits
  // advance the cursor.
  const int zlo = std::max(ci[2] - 1, 0);
  const int zhi = std::min(ci[2] + 1, ncell_[2] - 1);
  std::size_t nhit = 0;
  for (int cx = std::max(ci[0] - 1, 0);
       cx <= std::min(ci[0] + 1, ncell_[0] - 1); ++cx) {
    for (int cy = std::max(ci[1] - 1, 0);
         cy <= std::min(ci[1] + 1, ncell_[1] - 1); ++cy) {
      const auto row = static_cast<std::size_t>((cx * ncell_[1] + cy) *
                                                ncell_[2]);
      const auto begin = static_cast<std::size_t>(cell_start_[row + zlo]);
      const auto end = static_cast<std::size_t>(cell_start_[row + zhi + 1]);
      if (hits_.size() < nhit + (end - begin)) {
        hits_.resize(nhit + (end - begin));
      }
      int* const hits = hits_.data();
      for (std::size_t s = begin; s < end; ++s) {
        const double dx = sx_[s] - xi.x;
        const double dy = sy_[s] - xi.y;
        const double dz = sz_[s] - xi.z;
        hits[nhit] = sorted_idx_[s];
        nhit += static_cast<std::size_t>(dx * dx + dy * dy + dz * dz <= rlist2);
      }
    }
  }
  for (std::size_t h = 0; h < nhit; ++h) {
    const int j = hits_[h];
    if (j == i) continue;
    if (!cfg_.full && skip_in_half_list(atoms, i, j)) continue;
    list.push_back(j);
  }
}

void NeighborList::build(const Atoms& atoms, const Box& box) {
  bin_atoms(atoms, box);
  neigh_.resize(static_cast<std::size_t>(atoms.nlocal));
  for (auto& list : neigh_) list.clear();
  for (int i = 0; i < atoms.nlocal; ++i) search_center(atoms, i);
}

void NeighborList::build_centers(const Atoms& atoms, const Box& box,
                                 std::span<const int> centers, bool reset) {
  if (reset || nsorted_ <= 0 || nsorted_ > atoms.ntotal()) {
    bin_atoms(atoms, box);
  } else if (atoms.ntotal() > nsorted_) {
    // Append pass of the staged overlap build: the locals were binned by
    // the reset pass and have not moved; the freshly adopted ghosts join
    // them in the reset pass's grid.
    sort_into_grid(atoms);
  }
  if (reset) {
    neigh_.resize(static_cast<std::size_t>(atoms.nlocal));
    for (auto& list : neigh_) list.clear();
  } else {
    DPMD_REQUIRE(neigh_.size() == static_cast<std::size_t>(atoms.nlocal),
                 "build_centers(append) without a matching prior build");
  }
  for (const int i : centers) {
    DPMD_REQUIRE(i >= 0 && i < atoms.nlocal, "center out of range");
    neigh_[static_cast<std::size_t>(i)].clear();
    search_center(atoms, i);
  }
}

std::size_t NeighborList::total_entries() const {
  std::size_t n = 0;
  for (const auto& list : neigh_) n += list.size();
  return n;
}

std::vector<std::vector<int>> brute_force_neighbors(const Atoms& atoms,
                                                    double cutoff, bool full) {
  const double rc2 = cutoff * cutoff;
  std::vector<std::vector<int>> out(static_cast<std::size_t>(atoms.nlocal));
  for (int i = 0; i < atoms.nlocal; ++i) {
    for (int j = 0; j < atoms.ntotal(); ++j) {
      if (j == i) continue;
      if (!full && skip_in_half_list(atoms, i, j)) continue;
      const Vec3 d = atoms.x[static_cast<std::size_t>(j)] -
                     atoms.x[static_cast<std::size_t>(i)];
      if (d.norm2() <= rc2) out[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  return out;
}

}  // namespace dpmd::md
