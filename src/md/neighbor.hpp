#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "md/atoms.hpp"
#include "md/box.hpp"

namespace dpmd::md {

/// Cap of the auto-picked neighbor skin (SimConfig::skin < 0 /
/// DomainConfig::skin < 0): the paper's 2 A production skin.  Shared by
/// both engines' resolvers so the rule cannot diverge.
inline constexpr double kMaxAutoSkin = 2.0;

/// Verlet neighbor list built through a cell grid, as in LAMMPS.  The list
/// is built with cutoff + skin and reused until atoms have moved more than
/// skin/2 (or a fixed rebuild cadence fires — the paper rebuilds every 50
/// steps with a 2 A skin).
///
/// `full` lists store every neighbor of every local atom (needed by the
/// Deep Potential descriptor); half lists store each pair once (i < j with
/// ghosts assigned by index order), which is what classical pair styles use
/// with Newton's third law on.
///
/// Layout: atoms are counting-sorted into the cells (CSR: `cell_start_`,
/// cell-ordered indices and x/y/z copies), each cell in descending atom
/// index.  A center walks its 3x3 (x, y) stencil rows; the z cells of a row
/// are contiguous, so each row is one range.  Order contract: a center's
/// list holds its neighbors in stencil row order (x-row, then y-row, then
/// ascending z cell) and in descending atom index within a cell.
class NeighborList {
 public:
  struct Config {
    double cutoff = 0.0;  ///< force cutoff (without skin)
    double skin = 2.0;
    bool full = true;
  };

  explicit NeighborList(Config cfg) : cfg_(cfg) {}

  /// Builds the list for all local atoms; ghosts must already be present.
  void build(const Atoms& atoms, const Box& box);

  /// Staged build (ISSUE 3 overlap path): computes the lists of `centers`
  /// only.  `reset = true` starts a fresh build sized for atoms.nlocal
  /// (non-center lists left empty); `reset = false` appends to a previous
  /// build_centers/build whose first `ntotal` atoms are unchanged — only
  /// the atoms appended since that build (the ghosts that landed after
  /// the locals-only interior pass) are new, and all atoms are re-sorted
  /// into the reset pass's cell grid (no new grid).  New atoms outside the
  /// grid extent clamp into the edge cells; clamping is a monotone
  /// contraction of the cell index, so any pair within the list cutoff
  /// still lands in adjacent (searched) cells and far pairs it folds
  /// together are rejected by the distance test.  Per-center results
  /// therefore match a monolithic build() over the full atom set.
  void build_centers(const Atoms& atoms, const Box& box,
                     std::span<const int> centers, bool reset);

  const std::vector<int>& neighbors(int i) const {
    return neigh_[static_cast<std::size_t>(i)];
  }
  int nlocal_built() const { return static_cast<int>(neigh_.size()); }
  double list_cutoff() const { return cfg_.cutoff + cfg_.skin; }
  const Config& config() const { return cfg_; }

  /// Total number of stored neighbor entries (for load metrics).
  std::size_t total_entries() const;

 private:
  /// Sets the cell grid over the extent of box + all atoms, then sorts.
  void bin_atoms(const Atoms& atoms, const Box& box);
  /// Counting-sorts atoms [0, ntotal) into the current grid, clamping
  /// coordinates outside it into the edge cells.
  void sort_into_grid(const Atoms& atoms);
  int cell_coord(double p, int d) const {
    return std::clamp(static_cast<int>((p - grid_lo_[d]) / cell_w_[d]), 0,
                      ncell_[d] - 1);
  }
  void search_center(const Atoms& atoms, int i);

  Config cfg_;
  std::vector<std::vector<int>> neigh_;

  // cell grid of the last bin_atoms (consumed by search_center)
  Vec3 grid_lo_{};
  int ncell_[3] = {1, 1, 1};
  double cell_w_[3] = {0, 0, 0};
  int nsorted_ = 0;  ///< atoms in the sorted layout below

  // Sorted layout, scratch reused across rebuilds: cell c holds sorted
  // slots [cell_start_[c], cell_start_[c + 1]).
  std::vector<int> cell_start_;
  std::vector<int> atom_cell_;  ///< cell of each atom, by atom index
  std::vector<int> sorted_idx_;
  std::vector<double> sx_, sy_, sz_;
  std::vector<int> hits_;  ///< distance-filter output of one center
};

/// O(N^2) reference used by tests to validate the cell-list build.
std::vector<std::vector<int>> brute_force_neighbors(const Atoms& atoms,
                                                    double cutoff, bool full);

}  // namespace dpmd::md
