#include "opt/minimize.hpp"

#include <algorithm>
#include <string>

#include "cnf/cardinality.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace etcs::opt {

using cnf::SolveStatus;
using cnf::Totalizer;

namespace {

/// One trace/log record per bound probe of a minimization search.
void recordBoundProbe(const char* event, int bound, bool sat) {
    if (obs::tracingEnabled()) {
        obs::Tracer::instant(event, "{\"bound\":" + std::to_string(bound) +
                                        ",\"sat\":" + (sat ? "true" : "false") + "}");
    }
    if (obs::logEnabled(obs::LogLevel::Debug)) {
        obs::log(obs::LogLevel::Debug, "opt", event,
                 ",\"bound\":" + std::to_string(bound) +
                     ",\"sat\":" + (sat ? "true" : "false"));
    }
}

void recordIncumbent(int incumbent) {
    if (obs::tracingEnabled()) {
        obs::Tracer::counterValue("opt.incumbent", incumbent);
    }
}

int weightedCount(const SatBackend& backend, std::span<const Literal> lits,
                  std::span<const int> weights) {
    int count = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
        if (backend.modelValue(lits[i])) {
            count += weights.empty() ? 1 : weights[i];
        }
    }
    return count;
}

/// Shared search core: minimize the weighted count of true soft literals by
/// bisection, starting from the backend's most recent satisfying model.
/// `weights` may be empty (all ones). Invariant: `hi` is the count of the
/// most recent satisfying model and every bound below `lo` is refuted, so
/// when the loop ends that model already witnesses the result.
MinimizeResult minimizeImpl(SatBackend& backend, std::span<const Literal> soft,
                            std::span<const int> weights,
                            std::span<const Literal> alwaysAssume) {
    const obs::Span span("opt.minimize");
    MinimizeResult result;
    if (soft.empty()) {
        return result;
    }
    int hi = weightedCount(backend, soft, weights);
    recordIncumbent(hi);
    if (hi == 0) {
        return result;
    }

    // Weighted literals enter the totalizer once per weight unit.
    std::vector<Literal> totalizerInputs;
    if (weights.empty()) {
        totalizerInputs.assign(soft.begin(), soft.end());
    } else {
        for (std::size_t i = 0; i < soft.size(); ++i) {
            for (int w = 0; w < weights[i]; ++w) {
                totalizerInputs.push_back(soft[i]);
            }
        }
    }
    const Totalizer totalizer(backend, totalizerInputs);

    std::vector<Literal> assumptions(alwaysAssume.begin(), alwaysAssume.end());
    int lo = 0;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        ++result.solveCalls;
        assumptions.resize(alwaysAssume.size());
        assumptions.push_back(totalizer.atMostAssumption(static_cast<std::size_t>(mid)));
        const SolveStatus status = backend.solve(assumptions);
        recordBoundProbe("opt.tighten_bound", mid, status == SolveStatus::Sat);
        if (status == SolveStatus::Sat) {
            hi = weightedCount(backend, soft, weights);
            recordIncumbent(hi);
        } else if (status == SolveStatus::Unsat) {
            lo = mid + 1;
        } else {
            break;  // cancelled: the incumbent's model is still the latest
        }
    }
    result.optimum = hi;
    return result;
}

}  // namespace

MinimizeResult minimizeTrueLiterals(SatBackend& backend, std::span<const Literal> soft,
                                    std::span<const Literal> alwaysAssume) {
    return minimizeImpl(backend, soft, {}, alwaysAssume);
}

MinimizeResult minimizeWeightedTrueLiterals(SatBackend& backend,
                                            std::span<const Literal> soft,
                                            std::span<const int> weights,
                                            std::span<const Literal> alwaysAssume) {
    ETCS_REQUIRE_MSG(weights.size() == soft.size(),
                     "one weight per soft literal required");
    ETCS_REQUIRE_MSG(std::all_of(weights.begin(), weights.end(), [](int w) { return w > 0; }),
                     "weights must be positive");
    return minimizeImpl(backend, soft, weights, alwaysAssume);
}

IndexSearchResult smallestFeasibleIndex(SatBackend& backend,
                                        const std::function<Literal(int)>& literalAt, int lo,
                                        int hi, std::span<const Literal> alwaysAssume) {
    ETCS_REQUIRE_MSG(lo <= hi, "empty search range");
    const obs::Span span("opt.index_search");
    IndexSearchResult result;
    std::vector<Literal> assumptions(alwaysAssume.begin(), alwaysAssume.end());
    auto probe = [&](int t) {
        ++result.solveCalls;
        assumptions.resize(alwaysAssume.size());
        assumptions.push_back(literalAt(t));
        const SolveStatus status = backend.solve(assumptions);
        recordBoundProbe("opt.probe_index", t, status == SolveStatus::Sat);
        return status;
    };

    // Establish feasibility at hi first (monotone upper end). From here on
    // the most recent satisfying model is always the one at feasibleHi.
    if (probe(hi) != SolveStatus::Sat) {
        return result;
    }
    int feasibleHi = hi;
    int infeasibleLo = lo - 1;
    while (infeasibleLo + 1 < feasibleHi) {
        const int mid = infeasibleLo + (feasibleHi - infeasibleLo) / 2;
        const SolveStatus status = probe(mid);
        if (status == SolveStatus::Sat) {
            feasibleHi = mid;
        } else if (status == SolveStatus::Unsat) {
            infeasibleLo = mid;
        } else {
            break;  // cancelled: keep the smallest index proven feasible
        }
    }
    result.feasible = true;
    result.index = feasibleHi;
    return result;
}

}  // namespace etcs::opt
