/// \file amo.hpp
/// At-most-one and exactly-one constraints. `addAtMostOne` uses plain
/// pairwise clauses for groups of three or fewer and the Sinz sequential
/// ladder (3n-4 clauses, n-1 auxiliaries) above that. The encoder uses it for
/// the C1 chain-selector groups.
#pragma once

#include <span>

#include "cnf/backend.hpp"

namespace etcs::cnf {

/// At most one of `literals` is true: one binary clause per pair, no auxiliaries.
void addPairwiseAtMostOne(SatBackend& backend, std::span<const Literal> literals);

/// At most one of `literals` is true: the Sinz sequential ladder.
void addSequentialAtMostOne(SatBackend& backend, std::span<const Literal> literals);

/// Add clauses enforcing that at most one of `literals` is true: pairwise for
/// groups of three or fewer, the sequential ladder otherwise.
void addAtMostOne(SatBackend& backend, std::span<const Literal> literals);

/// Add clauses enforcing that exactly one of `literals` is true.
void addExactlyOne(SatBackend& backend, std::span<const Literal> literals);

}  // namespace etcs::cnf
