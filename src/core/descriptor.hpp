#pragma once

#include <array>
#include <vector>

#include "md/atoms.hpp"
#include "md/neighbor.hpp"
#include "util/vec3.hpp"

namespace dpmd::dp {

/// Hyper-parameters of the se_a descriptor (DeePMD-kit naming).
struct DescriptorParams {
  double rcut = 6.0;       ///< paper: 6 A (water), 8 A (copper)
  double rcut_smth = 2.0;  ///< switch start r_cs
  /// Maximum neighbors per neighbor type (paper: H 46 / O 92 / Cu 512);
  /// used for buffer sizing and for the padded TensorFlow-style layout.
  std::vector<int> sel;
  std::vector<int> emb_widths = {25, 50, 100};
  int axis_neurons = 16;  ///< M2: columns of the second descriptor factor

  /// Per-neighbor-type, per-component scaling of the environment matrix
  /// (DeePMD's dstd standardization, scale-only variant: no mean shift, so
  /// rows still vanish smoothly at the cutoff and energy stays C1).
  /// Empty = unit scale.  Fit from data via dp::fit_env_scale.
  std::vector<std::array<double, 4>> env_scale;

  double scale_of(int type, int component) const {
    if (env_scale.empty()) return 1.0;
    return env_scale[static_cast<std::size_t>(type)]
                    [static_cast<std::size_t>(component)];
  }

  int m1() const { return emb_widths.back(); }
  int m2() const { return axis_neurons; }
  int fitting_input_dim() const { return m1() * m2(); }
  int sel_total() const {
    int n = 0;
    for (const int s : sel) n += s;
    return n;
  }
};

/// Smooth inverse-distance weight of the se_a descriptor:
///   s(r) = sw(r) / r, with sw = 1 below r_cs, a quintic fade to 0 at rcut.
/// Also returns ds/dr for the force backward pass.
void smooth_weight(double r, double rcut, double rcut_smth, double& s,
                   double& ds_dr);

/// Local environment of one atom: neighbors *sorted by type* (the paper's
/// §III-B1 "pre-classify each type" optimization — this layout kills the
/// slice/concat traffic the TensorFlow graph pays), the environment matrix
/// R-tilde and its geometric derivatives.
struct AtomEnv {
  int center_index = -1;
  int center_type = 0;

  std::vector<int> nbr_index;  ///< into the atoms arrays (local + ghost)
  std::vector<int> nbr_type;
  std::vector<int> type_offset;  ///< size ntypes+1; block t = [off[t], off[t+1])

  /// R-tilde, nnei x 4 rows: (s, s*dx/r, s*dy/r, s*dz/r), d = x_j - x_i.
  std::vector<double> rmat;
  /// dR/dd: nnei x 4 x 3 (row-major [nbr][component][dim]).
  std::vector<double> drmat;
  std::vector<Vec3> rel;      ///< d = x_j - x_i
  std::vector<double> dist;   ///< |d|

  int nnei() const { return static_cast<int>(nbr_index.size()); }

  void clear() {
    nbr_index.clear();
    nbr_type.clear();
    type_offset.clear();
    rmat.clear();
    drmat.clear();
    rel.clear();
    dist.clear();
  }
};

/// Builds the environment of local atom `i` from a full neighbor list.
/// Neighbors beyond rcut are dropped; the rest are bucketed by type.
void build_env(const md::Atoms& atoms, const md::NeighborList& list, int i,
               const DescriptorParams& params, int ntypes, AtomEnv& env);

/// Packed environments of a block of B consecutive local atoms — the unit
/// of the batched evaluation pipeline (§III-B batching, after Jia et al.
/// SC'20): merging the per-atom small GEMMs into block-level large ones
/// requires the operands of all B atoms gathered into contiguous slabs.
///
/// Neighbor rows are stored grouped (neighbor-type major, center slot
/// minor), so the embedding net runs ONE forward and ONE backward per type
/// per block over sum_a count_t(a) rows.  Center slots are additionally
/// indexed in center-type-sorted ("fit") order, so each fitting net runs
/// with M = (number of centers of that type) instead of M = 1.
struct AtomEnvBatch {
  int ntypes = 0;
  int natoms = 0;  ///< B: number of center atoms in the block

  // --- per center slot (block-local index 0..natoms) --------------------
  std::vector<int> center_index;  ///< global local-atom index
  std::vector<int> center_type;
  /// Center-type-sorted view of the slots: fitting row f of center type t
  /// (f in [fit_type_offset[t], fit_type_offset[t+1])) is slot
  /// fit_order[f]; fit_pos[slot] is the inverse map.
  std::vector<int> fit_order;        ///< natoms
  std::vector<int> fit_pos;          ///< natoms
  std::vector<int> fit_type_offset;  ///< ntypes + 1

  // --- packed neighbor rows, grouped (type major, slot minor) -----------
  /// Block-level neighbor-type blocks: rows of neighbor type t span
  /// [type_offset[t], type_offset[t+1]).
  std::vector<int> type_offset;  ///< ntypes + 1
  /// Within type block t, the rows of center slot a are the contiguous
  /// segment [seg_offset[t*natoms + a], seg_offset[t*natoms + a + 1]).
  std::vector<int> seg_offset;  ///< ntypes * natoms + 1
  /// Skin-row compaction (keep_list_rows builds and refresh_env_batch):
  /// within each segment, the rows whose neighbor is currently inside rcut
  /// form the leading [seg_lo, seg_lo + seg_active[t*natoms + a]) prefix;
  /// the suffix holds the skin-band rows with zeroed R~/dR (they
  /// contribute exactly nothing and the GEMM sweeps skip them).  Empty =
  /// rcut-filtered batch, every row active.
  std::vector<int> seg_active;  ///< ntypes * natoms, or empty
  std::vector<int> row_slot;    ///< rows: owning center slot
  std::vector<int> nbr_index;   ///< rows: neighbor atom index (local+ghost)

  /// GEMM-relevant rows of segment (t, a): the in-range prefix length.
  int active_rows(int t, int a) const {
    const std::size_t seg = static_cast<std::size_t>(t) * natoms + a;
    if (seg_active.empty()) {
      return seg_offset[seg + 1] - seg_offset[seg];
    }
    return seg_active[seg];
  }

  /// R-tilde rows (s, s*dx/r, s*dy/r, s*dz/r) and dR/dd, same per-row
  /// layout as AtomEnv but over the packed block rows.
  std::vector<double> rmat;   ///< rows x 4
  std::vector<double> drmat;  ///< rows x 12
  std::vector<Vec3> rel;      ///< rows: d = x_j - x_i

  int rows() const { return static_cast<int>(row_slot.size()); }
  /// Rows the kernels evaluate: every segment's active prefix.
  int total_active_rows() const {
    if (seg_active.empty()) return rows();
    int n = 0;
    for (const int c : seg_active) n += c;
    return n;
  }
  /// Neighbor count of center slot a (sum over its type segments).
  int nnei_of(int a) const {
    int n = 0;
    for (int t = 0; t < ntypes; ++t) {
      n += seg_offset[static_cast<std::size_t>(t) * natoms + a + 1] -
           seg_offset[static_cast<std::size_t>(t) * natoms + a];
    }
    return n;
  }

  void clear() {
    ntypes = 0;
    natoms = 0;
    center_index.clear();
    center_type.clear();
    fit_order.clear();
    fit_pos.clear();
    fit_type_offset.clear();
    type_offset.clear();
    seg_offset.clear();
    seg_active.clear();
    row_slot.clear();
    nbr_index.clear();
    rmat.clear();
    drmat.clear();
    rel.clear();
  }

 private:
  friend void build_env_batch(const md::Atoms&, const md::NeighborList&,
                              const int*, int, const DescriptorParams&, int,
                              AtomEnvBatch&, bool);
  // build scratch, reused across blocks so steady state does not allocate
  std::vector<int> within_;
  std::vector<int> within_offset_;
  std::vector<int> cursor_;
  std::vector<int> cursor_back_;  ///< tail cursors of the compacted build
};

/// Builds the packed environments of the `count` local atoms listed in
/// `centers` (any subset, any order — the staged engines pass partition
/// blocks) from a full neighbor list.  Same physics as `count` build_env
/// calls; the rows land in the grouped layout described on AtomEnvBatch,
/// with center_index[a] == centers[a].
///
/// `keep_list_rows = true` keeps EVERY list neighbor as a packed row
/// instead of filtering at rcut — the mode behind skin-cadence env reuse
/// (PairDeepMD): the row set then stays a superset of the within-rcut set
/// for as long as the list itself is valid, so refresh_env_batch can
/// recompute positions-only between rebuilds.  Each segment is compacted
/// (in-range prefix + zeroed skin-band suffix, see seg_active) so the
/// evaluator's GEMM and table sweeps still touch only the within-rcut
/// rows; the suffix rows contribute exactly nothing to energies or
/// forces.
void build_env_batch(const md::Atoms& atoms, const md::NeighborList& list,
                     const int* centers, int count,
                     const DescriptorParams& params, int ntypes,
                     AtomEnvBatch& batch, bool keep_list_rows = false);

/// Convenience overload over the consecutive block [first, first + count).
void build_env_batch(const md::Atoms& atoms, const md::NeighborList& list,
                     int first, int count, const DescriptorParams& params,
                     int ntypes, AtomEnvBatch& batch,
                     bool keep_list_rows = false);

/// Steady-state refill of a batch built with keep_list_rows: recomputes the
/// position-dependent payload (rel, R~, dR/dd) of every packed row from the
/// current atom positions while the *structure* (centers, type/segment
/// offsets, row ownership, fitting order) is reused untouched — the
/// non-rebuild-step fast path with zero sort/pack work.  Valid while the
/// neighbor list the batch was built from is valid (same atom ordering,
/// drift under skin/2); neighbors that drifted across rcut in either
/// direction are handled by the switch function reaching exactly zero.
void refresh_env_batch(const md::Atoms& atoms, const DescriptorParams& params,
                       AtomEnvBatch& batch);

// ---- GEMM-cast descriptor contraction (PR 2) ------------------------------
// The contraction A = R~^T G / sel, D = A^T A[:, :m2] and its backward run
// as block-level GEMMs over contiguous row slabs of an AtomEnvBatch (one
// call per (center slot, neighbor type) segment).  Shared by the inference
// pipeline (DPEvaluator::batch_impl) and the batched trainer so both paths
// are the same kernels by construction; evaluate_atom keeps independent
// scalar loops as the equality-test reference.

/// A (4 x m1) += inv_n * R~_rows^T G_rows over `rows` packed rows
/// (gemm_tn: M = 4 environment components, K = rows).
template <class T>
void contract_a_rows(const T* rmat_rows, const T* g_rows, int rows, int m1,
                     T inv_n, T* a);

/// D (m1 x m2, row-major) = A^T A[:, :m2] for one slot's A (4 x m1);
/// overwrites d (typically a fitting-net input slab row).
template <class T>
void contract_d(const T* a, int m1, int m2, T* d);

/// dA (4 x m1) += dE/dA given dD = dE/dD (m1 x m2):
///   dA[c][p] += sum_q dD[p][q] A[c][q]  +  [p < m2] sum_p' dD[p'][p] A[c][p'].
template <class T>
void contract_d_backward(const T* a, const T* dd, int m1, int m2, T* da);

/// Backward over one segment's packed rows:
///   dG_rows += inv_n * R~_rows dA          (gemm, K = 4)
///   dR_rows  = inv_n * G_rows dA^T         (gemm_nt, N = 4) — skipped when
/// dr_rows is null (energy-only training needs no force chain).
template <class T>
void contract_backward_rows(const T* rmat_rows, const T* g_rows, const T* da,
                            int rows, int m1, T inv_n, T* dg_rows,
                            T* dr_rows);

/// Whole-batch forward driver: for every center slot, accumulates A into
/// a_slab (natoms x 4 x m1, caller-zeroed) from the slot's (type) row
/// segments and writes D = A^T A[:, :m2] into its fitting input row
/// (fit_slab[center_type] + fit-position * m1*m2).  rmat_rows is the packed
/// batch environment matrix (possibly precision-cast); g_base[t] points at
/// type t's embedding output slab.  g_row_off (nullable) maps segment
/// (t, a) to the row offset of its G rows inside the type-t slab
/// (ntypes * natoms entries): null means the slab is row-parallel to the
/// packed batch (offset seg_offset - type_offset, skin tails included); the
/// skin-tail pack of the full-embedding reuse path passes the
/// active-compacted offsets instead, so the embedding net only ever ran
/// over in-range rows.  One definition drives both the inference and
/// training pipelines so the segment bookkeeping cannot diverge between
/// them.
template <class T>
void contract_forward_batch(const AtomEnvBatch& batch, const T* rmat_rows,
                            const T* const* g_base, const int* g_row_off,
                            int m1, int m2, T inv_n, T* a_slab,
                            T* const* fit_slab);

/// Whole-batch backward driver, mirroring contract_forward_batch:
/// dd_base[t] is type t's dE/dD slab (fit-position-ordered rows),
/// dg_base[t] the caller-zeroed per-type dG slab to accumulate into
/// (g_row_off-indexed exactly like g_base), and dr_rows the packed dE/dR
/// rows (4 per row, always batch-row-indexed; null skips the force chain,
/// as energy-only training does).
template <class T>
void contract_backward_batch(const AtomEnvBatch& batch, const T* rmat_rows,
                             const T* const* g_base, const int* g_row_off,
                             const T* const* dd_base, int m1, int m2, T inv_n,
                             const T* a_slab, T* const* dg_base, T* dr_rows);

}  // namespace dpmd::dp
