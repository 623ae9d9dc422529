/// \file cardinality.hpp
/// Cardinality constraints: the totalizer encoding.
///
/// The totalizer is the one cardinality encoding of the optimization engine:
/// its monotone output literals let the border search tighten "at most k"
/// bounds purely through solver assumptions, keeping all learned clauses
/// valid across iterations.
#pragma once

#include <span>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::cnf {

/// Bailleux-Boutsidis totalizer over a set of input literals.
///
/// After construction, output(i) is a literal that is true iff at least i+1
/// of the inputs are true (both implication directions are encoded, so the
/// outputs are exact and usable for at-most and at-least bounds alike).
class Totalizer {
public:
    /// Build the totalizer tree; adds O(n log n) variables/clauses.
    Totalizer(SatBackend& backend, std::span<const Literal> inputs);

    [[nodiscard]] std::size_t numInputs() const noexcept { return outputs_.size(); }

    /// Literal that is true iff >= count+1 inputs are true.
    [[nodiscard]] Literal output(std::size_t count) const { return outputs_.at(count); }

    /// Assumption literal enforcing "at most k inputs are true".
    /// k must be < numInputs() (at most n is trivially true).
    [[nodiscard]] Literal atMostAssumption(std::size_t k) const { return ~outputs_.at(k); }

private:
    std::vector<Literal> outputs_;
};

}  // namespace etcs::cnf
