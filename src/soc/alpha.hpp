// The evaluation SoC of the paper: a 15-core system modelled on the
// Compaq Alpha 21364 floorplan shipped with HotSpot.
//
// Substitution note (see docs/ARCHITECTURE.md, "Deviations from the
// paper"): the authors used the exact
// HotSpot floorplan file; we reconstruct a 16 mm x 16 mm die with the
// same character — two large L2 banks, mid-sized memory/network
// blocks, and a cluster of small, hot CPU-core units — which is what
// the paper's argument rests on (heterogeneous power density plus a
// realistic adjacency structure). Functional powers follow published
// Alpha-class breakdowns; test powers are 1.5x-8x functional, as in the
// paper (Section 4).
#pragma once

#include "core/soc_spec.hpp"

namespace thermo::soc {

/// The 15-core Alpha-like SoC with default package and test set.
core::SocSpec alpha_soc();

/// STC normalization placing this SoC's session-characteristic range
/// onto the paper's STCL axis (20..100): with this scale, single-core
/// STCs fall around 3.6-23.8 and multi-core sessions span 20-100+.
double alpha_stc_scale();

}  // namespace thermo::soc
