// RC-equivalent thermal network of a packaged die (the "accurate"
// simulator in the paper's flow; our substitute for the HotSpot tool).
//
// Node layout (index order):
//   [0, n)                    one node per floorplan block (die layer)
//   n + 0                     heat-spreader centre
//   n + 1 .. n + 4            spreader periphery (N, S, E, W)
//   n + 5                     heat-sink centre
//   n + 6 .. n + 9            sink periphery (N, S, E, W)
// Ambient is the ground node (not represented explicitly); conductances
// to ambient appear only on the diagonal of G. Temperatures are solved
// as rises over ambient. Nodes are known by index alone: the model
// stores no names (a block node's name is its floorplan block's).
//
// Conductance stamping:
//  * die block <-> die block: lateral silicon slab through the shared
//    edge, R = (d_i + d_j) / (k_die * t_die * w_shared) with d_* the
//    centroid-to-edge distances (lateral_conductance);
//  * die block -> spreader centre: half-die vertical conduction + TIM
//    + constriction/spreading resistance into the spreader,
//    R = t_die/(2 k_die A) + t_tim/(k_tim A) + 0.475/(k_sp sqrt(A))
//    (vertical_conductance);
//  * the package (stamp_package): spreader centre <-> periphery is a
//    half-side copper slab; spreader -> sink and sink centre <->
//    periphery use the same slab forms; sink -> ambient splits the
//    total r_convec across the five sink nodes by footprint area.
//
// The model owns its derived steady-state state: the symbolic analysis
// of G's pattern (its fill-reducing order included), the sparse LDLᵗ
// factor of G and each block's self-resistance (G⁻¹)ᵢᵢ, each built on
// first use and shared by every copy of the model (SteadyFactorSlot);
// the analysis also serves the model's transient steppers. It also owns
// the transient oracle's unit-step responses, filled as they are first
// asked for and shared the same way (StepResponseTable). Transient
// steppers, one per (model, dt), stay in ThermalSolverCache
// (solver_cache.hpp).
//
// The free functions below are the one copy of these formulas:
// GridThermalModel stamps the same package after its die cells, and
// core::SessionThermalModel takes its die resistances from them.
//
// Chip side walls are adiabatic (HotSpot convention): no lateral path
// from a die block to ambient. The *session model* (src/core) makes the
// opposite modelling choice on purpose — see the paper, Section 2.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "thermal/package.hpp"

namespace thermo::thermal {

/// Package (non-die) nodes appended after the die nodes: spreader
/// centre, N, S, E, W, then sink centre, N, S, E, W.
inline constexpr std::size_t kPackageNodes = 10;

/// Conductance [W/K] of the silicon slab between two adjacent die
/// blocks of `fp` through their shared edge.
double lateral_conductance(const floorplan::Floorplan& fp,
                           const floorplan::Adjacency& adjacency,
                           const PackageParams& package);

/// Conductance [W/K] from a die block of `area` [m²] into the spreader
/// centre.
double vertical_conductance(double area, const PackageParams& package);

/// Stamps conductance `g` between nodes `a` and `b`; `g` must be finite
/// and positive.
void stamp_conductance(linalg::SparseMatrix::Builder& builder,
                       std::size_t a, std::size_t b, double g);

/// Stamps the package network on nodes [first, first + kPackageNodes),
/// `first` being the spreader centre. Call it after the die stamps, so
/// every model sums each diagonal in the same order. Returns each
/// package node's conductance to ambient (already on the diagonal).
std::array<double, kPackageNodes> stamp_package(
    linalg::SparseMatrix::Builder& builder, std::size_t first,
    const PackageParams& package);

/// The symbolic analysis of one model's conductance matrix G, the
/// factor of G, and optionally the self-resistance table diag(G⁻¹) of
/// its leading nodes, each built on first use (std::call_once) and kept
/// for the model's lifetime. The analysis is the one place that picks
/// the elimination order (min_degree_ordering at and above
/// linalg::kOrderingAutoMinNodes nodes, natural below); G's factor and
/// every transient stepper's (C/dt + G), which has G's pattern, share it
/// (ThermalSolverCache). It records a `thermal.symbolic` span and
/// `thermal.symbolic_ns` sample, the ordering's `thermal.ordering` and
/// `thermal.ordering_ns` nested inside; G's factorization records
/// `thermal.factor` and `thermal.factor_ns`, as every factorization
/// does, and the table `thermal.self_resistance` and
/// `thermal.self_resistance_ns`. A model holds its slot through a
/// shared_ptr, so copies of the model share all three.
class SteadyFactorSlot {
 public:
  /// The slot tabulates nodes [0, table_nodes); 0 builds no table.
  explicit SteadyFactorSlot(std::size_t table_nodes = 0)
      : table_nodes_(table_nodes) {}

  /// The analysis every factor of `g`'s pattern shares. `g` as for get().
  const std::shared_ptr<const linalg::SymbolicCholesky>& symbolic(
      const linalg::SparseMatrix& g);

  /// The factor of `g`, which must be the owning model's G on every call.
  const linalg::SparseCholeskyFactor& get(const linalg::SparseMatrix& g);

  /// (G⁻¹)ᵢᵢ for i < table_nodes, by SparseCholeskyFactor::
  /// inverse_diagonal on get(g)'s factor; `g` as for get().
  const std::vector<double>& self_resistance(const linalg::SparseMatrix& g);

 private:
  void build(const linalg::SparseMatrix& g);

  std::size_t table_nodes_;
  std::once_flag analyzed_;
  std::shared_ptr<const linalg::SymbolicCholesky> symbolic_;
  std::once_flag once_;
  std::unique_ptr<const linalg::SparseCholeskyFactor> factor_;
  std::vector<double> self_resistance_;
};

/// One model's unit-step responses under the transient oracle: for a
/// key (dt, block j, duration d), uⱼ(d), the rise of every block after d
/// seconds with 1 W in block j from ambient (unit_step_response,
/// transient.hpp). ThermalAnalyzer::session_peaks reads a session's
/// rises from them by superposition. Each key is filled once, by the
/// first caller, outside the table's lock: a caller asking for a key
/// being filled waits for that fill (it would compute the same bits),
/// and every other key stays readable. Rows are never changed or erased,
/// so a returned row stays valid for the table's lifetime. The rows hold
/// at most kMaxBytes; past that a caller computes a response without
/// storing it, which gives the same bits. A model holds its table
/// through a shared_ptr, so copies of the model share it and it dies
/// with the last of them.
class StepResponseTable {
 public:
  /// Cap on the rows' payload per model: 512 rows of a 1024-block
  /// model, 65,536 of an 8-block one.
  static constexpr std::size_t kMaxBytes = std::size_t{4} << 20;

  struct Key {
    std::uint64_t dt_bits = 0;        ///< the step, bit for bit
    std::size_t block = 0;            ///< the powered block j
    std::uint64_t duration_bits = 0;  ///< the duration, bit for bit
    auto operator<=>(const Key&) const = default;
  };

  /// The row of `key`, `size` values that `fill()` returns, filled on
  /// the key's first call; null, calling nothing, when a new row would
  /// take the table past kMaxBytes. A fill that throws leaves the row
  /// empty (its bytes still counted) and the next call of the key fills
  /// again.
  template <class Fill>
  const double* row(const Key& key, std::size_t size, const Fill& fill);

  /// Payload bytes of the rows stored or being filled.
  std::size_t bytes() const;

 private:
  struct Row {
    std::once_flag filled;
    std::vector<double> values;
  };
  /// The entry of `key`, made if the table has room (else null).
  Row* entry(const Key& key, std::size_t size);

  mutable std::shared_mutex mutex_;
  std::map<Key, Row> rows_;
  std::size_t bytes_ = 0;
};

template <class Fill>
const double* StepResponseTable::row(const Key& key, std::size_t size,
                                     const Fill& fill) {
  Row* const found = entry(key, size);
  if (found == nullptr) return nullptr;
  std::call_once(found->filled, [&] { found->values = fill(); });
  return found->values.data();
}

class RCModel {
 public:
  /// Builds the network. The floorplan must be valid (no overlaps);
  /// validating it fills its lazy geometry and records the pass on the
  /// caller's floorplan, and the model keeps no copy of it. Throws
  /// InvalidArgument otherwise.
  /// Assembly is sparse-first: conductances stamp straight into a CSR
  /// builder, so construction is O(nnz) time and memory.
  RCModel(const floorplan::Floorplan& fp, const PackageParams& package);

  std::size_t block_count() const { return block_count_; }
  std::size_t node_count() const { return block_count_ + kPackageNodes; }

  std::size_t spreader_center_index() const { return block_count_; }
  std::size_t sink_center_index() const { return block_count_ + 5; }

  const PackageParams& package() const { return package_; }

  /// Process-unique identity of the network, assigned at construction.
  /// An RCModel is immutable after construction, so the identity keys
  /// its transient steppers in ThermalSolverCache: same identity ⇒ same
  /// G and C, always. Copies share the identity (they hold identical
  /// matrices); every freshly *constructed* model gets a new one, which
  /// is what invalidates stale cache entries.
  std::uint64_t identity() const { return identity_; }

  /// Symmetric positive-definite conductance matrix G [W/K] over all
  /// nodes, ambient eliminated (to-ambient conductance on the diagonal),
  /// in CSR form: assembly stamps directly into it and the factors are
  /// built from it as-is.
  const linalg::SparseMatrix& conductance_sparse() const { return sparse_; }

  /// Sparse LDLᵗ factor of G, built on the first call (thread-safe) and
  /// shared with every copy of this model. Every steady-state solve on
  /// the model back-substitutes through it.
  const linalg::SparseCholeskyFactor& steady_factor() const {
    return steady_->get(sparse_);
  }

  /// The symbolic analysis of G's pattern (SteadyFactorSlot::symbolic),
  /// built on the first call (thread-safe) and shared with every copy of
  /// this model. steady_factor() and every transient stepper of the
  /// model factor with it.
  const std::shared_ptr<const linalg::SymbolicCholesky>& symbolic() const {
    return steady_->symbolic(sparse_);
  }

  /// Self-resistance per block [K/W]: entry i is (G⁻¹)ᵢᵢ, block i's
  /// steady rise per watt when it alone dissipates. Built with
  /// steady_factor() (whichever is called first builds both) and shared
  /// the same way. A steady one-core session peaks at ambient + pᵢ·rᵢ
  /// (ThermalAnalyzer::session_peaks; docs/SOLVERS.md "Self-resistance
  /// table").
  const std::vector<double>& self_resistance() const {
    return steady_->self_resistance(sparse_);
  }

  /// The transient oracle's unit-step responses of this model, filled
  /// by ThermalAnalyzer::session_peaks and shared with every copy.
  StepResponseTable& step_responses() const { return *step_responses_; }

  /// Per-node heat capacity [J/K] (all positive).
  const std::vector<double>& capacitance() const { return capacitance_; }

  /// Expands per-block power [W] into a full node power vector (package
  /// nodes dissipate nothing). Requires one power per block, each finite
  /// and non-negative (InvalidArgument otherwise).
  std::vector<double> expand_power(const std::vector<double>& block_power) const;

  /// Direct conductance between two nodes [W/K] (0 when not connected).
  double conductance_between(std::size_t a, std::size_t b) const;

  /// Sum over row `node` of conductance to ambient [W/K].
  double conductance_to_ambient(std::size_t node) const;

 private:
  void build(const floorplan::Floorplan& floorplan);

  PackageParams package_;
  std::uint64_t identity_ = 0;
  std::size_t block_count_ = 0;
  linalg::SparseMatrix sparse_;
  std::vector<double> capacitance_;
  std::vector<double> ambient_conductance_;
  std::shared_ptr<SteadyFactorSlot> steady_;  // tabulates the blocks
  std::shared_ptr<StepResponseTable> step_responses_ =
      std::make_shared<StepResponseTable>();
};

}  // namespace thermo::thermal
