#include "thermal/rc_model.hpp"

#include <atomic>
#include <cmath>
#include <utility>

#include "linalg/ordering.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace thermo::thermal {

namespace fp = thermo::floorplan;

namespace {

/// The next process-unique RCModel identity (never 0).
std::uint64_t next_identity() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

}  // namespace

const std::shared_ptr<const linalg::SymbolicCholesky>&
SteadyFactorSlot::symbolic(const linalg::SparseMatrix& g) {
  std::call_once(analyzed_, [&] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    static obs::Histogram& symbolic_ns =
        registry.histogram("thermal.symbolic_ns");
    obs::TraceSpan span("thermal.symbolic");
    obs::ScopedTimer timer(symbolic_ns);
    std::vector<std::size_t> order;
    if (g.rows() >= linalg::kOrderingAutoMinNodes) {
      static obs::Histogram& ordering_ns =
          registry.histogram("thermal.ordering_ns");
      obs::TraceSpan ordering_span("thermal.ordering");
      obs::ScopedTimer ordering_timer(ordering_ns);
      order = linalg::min_degree_ordering(g);
    }
    symbolic_ =
        std::make_shared<const linalg::SymbolicCholesky>(g, std::move(order));
  });
  return symbolic_;
}

void SteadyFactorSlot::build(const linalg::SparseMatrix& g) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  {
    static obs::Histogram& factor_ns = registry.histogram("thermal.factor_ns");
    obs::TraceSpan factor_span("thermal.factor");
    obs::ScopedTimer factor_timer(factor_ns);
    factor_ =
        std::make_unique<const linalg::SparseCholeskyFactor>(symbolic(g), g);
  }
  if (table_nodes_ == 0) return;
  static obs::Histogram& table_ns =
      registry.histogram("thermal.self_resistance_ns");
  obs::TraceSpan table_span("thermal.self_resistance");
  obs::ScopedTimer table_timer(table_ns);
  self_resistance_ = factor_->inverse_diagonal();
  self_resistance_.resize(table_nodes_);
}

const linalg::SparseCholeskyFactor& SteadyFactorSlot::get(
    const linalg::SparseMatrix& g) {
  std::call_once(once_, [&] { build(g); });
  return *factor_;
}

const std::vector<double>& SteadyFactorSlot::self_resistance(
    const linalg::SparseMatrix& g) {
  std::call_once(once_, [&] { build(g); });
  return self_resistance_;
}

StepResponseTable::Row* StepResponseTable::entry(const Key& key,
                                                 std::size_t size) {
  {
    std::shared_lock lock(mutex_);
    if (const auto it = rows_.find(key); it != rows_.end()) return &it->second;
  }
  const std::size_t row_bytes = size * sizeof(double);
  std::unique_lock lock(mutex_);
  if (const auto it = rows_.find(key); it != rows_.end()) return &it->second;
  if (row_bytes > kMaxBytes - bytes_) return nullptr;
  bytes_ += row_bytes;
  return &rows_.try_emplace(key).first->second;
}

std::size_t StepResponseTable::bytes() const {
  std::shared_lock lock(mutex_);
  return bytes_;
}

double lateral_conductance(const fp::Floorplan& floorplan,
                           const fp::Adjacency& adj,
                           const PackageParams& package) {
  const fp::Block& a = floorplan.block(adj.a);
  const fp::Block& b = floorplan.block(adj.b);
  const double da = a.centroid_to_side(adj.side_of_a);
  // The side of b facing a is the opposite one; centroid distance is
  // symmetric per axis, so reuse the same axis extent.
  const double db = b.centroid_to_side(adj.side_of_a);
  const double resistance =
      (da + db) / (package.k_die * package.t_die * adj.shared_length);
  return 1.0 / resistance;
}

double vertical_conductance(double area, const PackageParams& package) {
  const double r_die = package.t_die / (2.0 * package.k_die * area);
  const double r_tim = package.t_tim / (package.k_tim * area);
  // Constriction (spreading) resistance of a square heat source of side
  // sqrt(area) into the copper spreader; 0.475/(k*L) is the classic
  // square-source half-space approximation.
  const double r_spread = 0.475 / (package.k_spreader * std::sqrt(area));
  return 1.0 / (r_die + r_tim + r_spread);
}

void stamp_conductance(linalg::SparseMatrix::Builder& builder, std::size_t a,
                       std::size_t b, double g) {
  THERMO_ENSURE(std::isfinite(g) && g > 0.0, "stamped conductance must be positive");
  builder.add(a, a, g);
  builder.add(b, b, g);
  builder.add(a, b, -g);
  builder.add(b, a, -g);
}

std::array<double, kPackageNodes> stamp_package(
    linalg::SparseMatrix::Builder& builder, std::size_t first,
    const PackageParams& package) {
  const std::size_t sp_c = first;
  const std::size_t sp_n = sp_c + 1, sp_s = sp_c + 2, sp_e = sp_c + 3,
                    sp_w = sp_c + 4;
  const std::size_t sk_c = first + 5;
  const std::size_t sk_n = sk_c + 1, sk_s = sk_c + 2, sk_e = sk_c + 3,
                    sk_w = sk_c + 4;

  // --- spreader lateral: centre <-> periphery (half-side copper slab) ---
  {
    const double side = package.spreader_side;
    const double r_lat = (side / 2.0) /
                         (package.k_spreader * package.t_spreader * side);
    for (std::size_t node : {sp_n, sp_s, sp_e, sp_w}) {
      stamp_conductance(builder, sp_c, node, 1.0 / r_lat);
    }
  }

  // --- spreader -> sink vertical ---
  const double a_spr = package.spreader_side * package.spreader_side;
  {
    // Centre column: spreader half-thickness + sink half-thickness over
    // the spreader footprint.
    const double r_center =
        package.t_spreader / (2.0 * package.k_spreader * a_spr) +
        package.t_sink / (2.0 * package.k_sink * a_spr);
    stamp_conductance(builder, sp_c, sk_c, 1.0 / r_center);
    // Periphery quadrants drain into the matching sink periphery node.
    const double a_quadrant = a_spr / 4.0;
    const double r_side =
        package.t_spreader / (2.0 * package.k_spreader * a_quadrant) +
        package.t_sink / (2.0 * package.k_sink * a_quadrant);
    stamp_conductance(builder, sp_n, sk_n, 1.0 / r_side);
    stamp_conductance(builder, sp_s, sk_s, 1.0 / r_side);
    stamp_conductance(builder, sp_e, sk_e, 1.0 / r_side);
    stamp_conductance(builder, sp_w, sk_w, 1.0 / r_side);
  }

  // --- sink lateral: centre <-> periphery ---
  {
    const double side = package.sink_side;
    const double r_lat =
        (side / 2.0) / (package.k_sink * package.t_sink * side);
    for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
      stamp_conductance(builder, sk_c, node, 1.0 / r_lat);
    }
  }

  // --- convection to ambient, split by footprint area ---
  // R_node = r_convec * (A_sink / A_node): nodes in parallel recombine
  // to exactly r_convec. The centre node sits under the spreader.
  const double a_sink = package.sink_side * package.sink_side;
  const double a_side = (a_sink - a_spr) / 4.0;
  // A degenerate package (sink == spreader) keeps the periphery
  // grounded through a tiny leak so G stays non-singular.
  const double g_side = a_side > 0.0 ? a_side / (package.r_convec * a_sink) : 1e-9;
  std::array<double, kPackageNodes> ambient{};
  ambient[5] = a_spr / (package.r_convec * a_sink);
  for (std::size_t k = 6; k < kPackageNodes; ++k) ambient[k] = g_side;
  for (std::size_t k = 5; k < kPackageNodes; ++k) {
    THERMO_ENSURE(std::isfinite(ambient[k]) && ambient[k] > 0.0,
                  "ambient conductance must be positive");
    builder.add(first + k, first + k, ambient[k]);
  }
  return ambient;
}

RCModel::RCModel(const fp::Floorplan& floorplan, const PackageParams& package)
    : package_(package), identity_(next_identity()) {
  package_.validate();
  floorplan.require_valid();
  block_count_ = floorplan.size();
  build(floorplan);
  steady_ = std::make_shared<SteadyFactorSlot>(block_count_);
}

void RCModel::build(const fp::Floorplan& floorplan) {
  const std::size_t n = block_count_;
  const std::size_t total = node_count();
  // Sparse-first assembly: every stamp goes straight into the COO
  // builder (duplicates merge in insertion order, so the CSR values
  // are bit-identical to accumulating into a dense matrix). ~4 stamps
  // of 4 entries per node bounds the triplet count.
  linalg::SparseMatrix::Builder builder(total, total);
  builder.reserve(16 * total);
  capacitance_.assign(total, 0.0);
  for (const fp::Adjacency& adj : floorplan.adjacencies()) {
    stamp_conductance(builder, adj.a, adj.b,
                      lateral_conductance(floorplan, adj, package_));
  }
  const std::size_t sp_c = spreader_center_index();
  for (std::size_t i = 0; i < n; ++i) {
    stamp_conductance(builder, i, sp_c,
                      vertical_conductance(floorplan.block(i).area(), package_));
  }
  ambient_conductance_.assign(n, 0.0);
  const auto package_ambient = stamp_package(builder, sp_c, package_);
  ambient_conductance_.insert(ambient_conductance_.end(),
                              package_ambient.begin(), package_ambient.end());

  const std::size_t sp_n = sp_c + 1, sp_s = sp_c + 2, sp_e = sp_c + 3,
                    sp_w = sp_c + 4;
  const std::size_t sk_c = sink_center_index();
  const std::size_t sk_n = sk_c + 1, sk_s = sk_c + 2, sk_e = sk_c + 3,
                    sk_w = sk_c + 4;

  // --- capacitances ---
  for (std::size_t i = 0; i < n; ++i) {
    const double volume = floorplan.block(i).area() * package_.t_die;
    capacitance_[i] = package_.capacity_factor * package_.c_die * volume;
  }
  {
    const double a_spr = package_.spreader_side * package_.spreader_side;
    const double v_center = a_spr * package_.t_spreader;
    capacitance_[sp_c] = package_.capacity_factor * package_.c_spreader * v_center;
    // Periphery nodes share the remaining spreader volume; for the simple
    // five-node split the centre already covers the full footprint, so
    // give the periphery a quarter of the centre volume each (keeps the
    // transient well-posed without double counting much mass).
    for (std::size_t node : {sp_n, sp_s, sp_e, sp_w}) {
      capacitance_[node] =
          package_.capacity_factor * package_.c_spreader * v_center / 4.0;
    }
    const double a_sink = package_.sink_side * package_.sink_side;
    const double v_sink_center = a_spr * package_.t_sink;
    const double v_sink_side = (a_sink - a_spr) / 4.0 * package_.t_sink;
    capacitance_[sk_c] =
        package_.capacity_factor * package_.c_sink * v_sink_center +
        package_.c_convec * a_spr / a_sink;
    for (std::size_t node : {sk_n, sk_s, sk_e, sk_w}) {
      capacitance_[node] =
          package_.capacity_factor * package_.c_sink *
              std::max(v_sink_side, 1e-12) +
          package_.c_convec * std::max(a_sink - a_spr, 1e-12) / (4.0 * a_sink);
    }
  }

  sparse_ = builder.build();
  // Symmetry validation runs on the CSR matrix directly (O(nnz·log)).
  THERMO_ENSURE(sparse_.is_symmetric(1e-9),
                "conductance matrix must be symmetric");
}

std::vector<double> RCModel::expand_power(
    const std::vector<double>& block_power) const {
  THERMO_REQUIRE(block_power.size() == block_count_,
                 "power vector size must equal the block count");
  for (double p : block_power) {
    THERMO_REQUIRE(std::isfinite(p) && p >= 0.0,
                   "block power must be finite and non-negative");
  }
  std::vector<double> power(node_count(), 0.0);
  for (std::size_t i = 0; i < block_count_; ++i) power[i] = block_power[i];
  return power;
}

double RCModel::conductance_between(std::size_t a, std::size_t b) const {
  THERMO_REQUIRE(a < node_count() && b < node_count(),
                 "node index out of range");
  THERMO_REQUIRE(a != b, "conductance_between requires two distinct nodes");
  return -sparse_.at(a, b);
}

double RCModel::conductance_to_ambient(std::size_t node) const {
  THERMO_REQUIRE(node < node_count(), "node index out of range");
  return ambient_conductance_[node];
}

}  // namespace thermo::thermal
