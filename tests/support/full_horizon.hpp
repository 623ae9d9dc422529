/// \file full_horizon.hpp
/// A full-horizon reference for the three tasks, built only from library
/// primitives: one `Encoder::encode` over every time step, then a plain
/// solve (verify), a solve followed by `opt::minimizeTrueLiterals` over the
/// free borders (generate), or `opt::smallestFeasibleIndex` over the done-all
/// selectors followed by border minimization at the optimum (optimize). The tasks
/// themselves solve by horizon unrolling (docs/UNROLLING.md); unroll_test and
/// gen_fuzz_test check their verdicts, section counts and completion steps
/// against this reference.
#pragma once

#include <cstddef>
#include <optional>

#include "cnf/backend.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "opt/minimize.hpp"

namespace etcs::test {

struct FullHorizonResult {
    bool feasible = false;
    std::optional<core::Solution> solution;  ///< the decoded witness when feasible
    int sectionCount = 0;                    ///< sections of the witness's layout
    int completionSteps = 0;                 ///< optimize: smallest feasible step
    int numVariables = 0;                    ///< final formula size
    std::size_t numClauses = 0;
};

namespace detail {

inline FullHorizonResult finish(const cnf::SatBackend& backend, const core::Encoder& encoder,
                                bool feasible) {
    FullHorizonResult result;
    result.feasible = feasible;
    if (feasible) {
        result.solution = encoder.decode();
        result.sectionCount = result.solution->sectionCount;
    }
    result.numVariables = backend.numVariables();
    result.numClauses = backend.numClauses();
    return result;
}

}  // namespace detail

/// Task 1 on the full-horizon encoding: one solve on `layout`.
inline FullHorizonResult fullHorizonVerify(const core::Instance& instance,
                                           const core::VssLayout& layout) {
    const auto backend = cnf::makeInternalBackend();
    core::Encoder encoder(*backend, instance);
    encoder.encode(&layout);
    return detail::finish(*backend, encoder, backend->solve() == cnf::SolveStatus::Sat);
}

/// Task 2 on the full-horizon encoding: minimize the free virtual borders.
inline FullHorizonResult fullHorizonGenerate(const core::Instance& instance) {
    const auto backend = cnf::makeInternalBackend();
    core::Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    const bool feasible = backend->solve() == cnf::SolveStatus::Sat;
    if (feasible) {
        opt::minimizeTrueLiterals(*backend, encoder.freeBorderLiterals());
    }
    return detail::finish(*backend, encoder, feasible);
}

/// Task 3 on the full-horizon encoding: bisect the smallest step at which
/// every train can be done, then (free layout) freeze it and minimize the
/// virtual borders. Infeasible when the horizon admits no completion at all.
inline FullHorizonResult fullHorizonOptimize(const core::Instance& instance,
                                             const core::VssLayout* fixedLayout = nullptr) {
    const auto backend = cnf::makeInternalBackend();
    core::Encoder encoder(*backend, instance);
    const int lo = encoder.completionLowerBound();
    const int hi = instance.horizonSteps() - 1;
    if (lo > hi) {
        return {};
    }
    encoder.encode(fixedLayout);
    const auto search = opt::smallestFeasibleIndex(
        *backend, [&](int step) { return encoder.doneAllLiteral(step); }, lo, hi);
    if (search.feasible && fixedLayout == nullptr) {
        // The index search leaves its model at the optimal step, so the
        // border search starts from a model of the frozen optimum.
        backend->addUnit(encoder.doneAllLiteral(search.index));
        opt::minimizeTrueLiterals(*backend, encoder.freeBorderLiterals());
    }
    FullHorizonResult result = detail::finish(*backend, encoder, search.feasible);
    result.completionSteps = search.index;
    return result;
}

}  // namespace etcs::test
