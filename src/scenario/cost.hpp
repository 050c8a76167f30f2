// The cost of a request, estimated *before* it runs: the score the ljf /
// priority / srpt placements order by, and the key gen's order patterns
// sort on. It reads request fields only and never builds the SoC:
// estimation must cost microseconds, it runs once per request line
// before any scheduling starts.
//
// Every request lowers to the same shape of work: per STCL point,
// Algorithm 1 alternates cheap model-guided construction with oracle
// calls (validations); each call is one steady-state back-substitution
// or `steps` backward-Euler back-substitutions, and each
// back-substitution touches the nnz(L) entries of the sparse factor,
// predicted from the node count n as n·(4 + log2 n) — RC lattices keep
// ~4 off-diagonal couplings per node and min-degree ordering holds fill
// growth to roughly a log factor on 2-D meshes (a 64×64 grid factors at
// ~15·n, a 317×317 at ~20·n; docs/SOLVERS.md "Ordering"):
//
//   cost = 1000 + points · calls · (steps · nnz(L) + 50)
//
// The output is a RELATIVE unit, not seconds: placement only needs the
// *ordering*, so the constants (file-local to cost.cpp) are fitted to
// rank a 1034-node request far above an Alpha one, which measures ~100×
// slower; bench_serve_gates checks the rank against measured wall time.
//
// The request fields behind each factor (plus, for files the request
// *names*, a cached line count: one read per distinct path per process,
// never per request):
//   * cores, nodes = cores + 10 package nodes (thermal::kPackageNodes):
//     exact for the named SoCs (alpha = 15 cores, fig1 = 7) and for
//     synthetic (cores field); a `.flp` request's block count is read off
//     the file itself (one non-comment line per block, cached by path),
//     falling back to a fixed 40-core guess when the file is unreadable —
//     a wrong count only costs scheduling quality, never correctness.
//     A grid request's nodes are its rows·cols cells + 10;
//   * steps per call: mean test length / dt when transient (named SoCs
//     ship 1 s tests; synthetic carries its length range), 1 when steady;
//   * calls: 2 validations per core, except that a ptrace replay makes
//     exactly one call per trace step and a grid request exactly one;
//   * points: the STCL span's expanded size;
//   * kind chained: a transient single-point run (the chained replay
//     dominates, whatever oracle generated the schedule).
#pragma once

#include "scenario/request.hpp"

namespace thermo::scenario {

/// Estimated relative cost of one request (see the file comment); > 0,
/// monotone in every factor, and infinite when the step count
/// overflows (serve fails such a line alone).
double estimate_request_cost(const ScenarioRequest& request);

}  // namespace thermo::scenario
