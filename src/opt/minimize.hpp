/// \file minimize.hpp
/// Objective minimization on top of incremental SAT.
///
/// Two primitives over the paper's objective functions (Sec. III-C), both
/// bisections on a warm backend:
///   * minimizeTrueLiterals  — min sum of Boolean "soft" literals
///                             (used for  min Σ border_v), continuing from
///                             the satisfying model the caller already holds,
///   * smallestFeasibleIndex — min index t such that a monotone family of
///                             literals can hold (used by core/analysis for
///                             per-budget and per-train completion times; the
///                             tasks find the completion time by horizon
///                             unrolling instead).
/// Neither repeats a solve whose answer it already knows: each leaves the
/// backend's most recent satisfying model at the witness of its result.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::opt {

using cnf::Literal;
using cnf::SatBackend;

/// Outcome of a minimization run. The backend's most recent satisfying model
/// is a witness of `optimum` (callers decode directly from the backend).
struct MinimizeResult {
    int optimum = 0;  ///< fewest true soft literals found (weighted: least weight)
    std::uint64_t solveCalls = 0;
};

/// Minimize the number of true literals among `soft` subject to the clauses
/// already in `backend`, starting from the backend's most recent satisfying
/// model, which must satisfy `alwaysAssume` (typically the caller's feasibility
/// probe under those assumptions). Builds one totalizer over `soft` and
/// bisects between 0 and the incumbent with assumption literals only, so the
/// backend stays reusable. `alwaysAssume` literals are assumed on every
/// probe, which lets callers scope the minimization (e.g. "given completion
/// by step T"). A probe that comes back Unknown (cancelled) ends the search:
/// `optimum` is then the best incumbent found, not a proven minimum.
MinimizeResult minimizeTrueLiterals(SatBackend& backend, std::span<const Literal> soft,
                                    std::span<const Literal> alwaysAssume = {});

/// Weighted variant: minimize sum(weight_i * soft_i). Weights must be
/// positive; a literal of weight w contributes w duplicated totalizer inputs,
/// so keep total weight moderate (it bounds the totalizer width).
MinimizeResult minimizeWeightedTrueLiterals(SatBackend& backend,
                                            std::span<const Literal> soft,
                                            std::span<const int> weights,
                                            std::span<const Literal> alwaysAssume = {});

/// Outcome of a monotone feasibility search.
struct IndexSearchResult {
    bool feasible = false;  ///< false: no index in [lo, hi] is feasible.
    int index = 0;          ///< smallest feasible index.
    std::uint64_t solveCalls = 0;
};

/// Find the smallest index t in [lo, hi] such that solve({literalAt(t)}) is
/// SAT, by bisection.  Requires monotonicity: if t is feasible then every
/// t' > t is feasible (the paper's done^t literals satisfy this by
/// construction). When feasible, the backend's most recent satisfying model
/// is at the returned index. `alwaysAssume` literals are added to every
/// solve. A probe that comes back Unknown (cancelled) ends the search at the
/// smallest index proven feasible so far.
IndexSearchResult smallestFeasibleIndex(SatBackend& backend,
                                        const std::function<Literal(int)>& literalAt, int lo,
                                        int hi, std::span<const Literal> alwaysAssume = {});

}  // namespace etcs::opt
