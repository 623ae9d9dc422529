#include "core/tasks.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lint/rail_lint.hpp"
#include "obs/trace.hpp"
#include "opt/minimize.hpp"

namespace etcs::core {

std::string_view toString(OptimizeVerdict verdict) {
    switch (verdict) {
        case OptimizeVerdict::Feasible:
            return "feasible";
        case OptimizeVerdict::Infeasible:
            return "infeasible";
        case OptimizeVerdict::HorizonTooShort:
            return "horizon_too_short";
    }
    return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

std::unique_ptr<cnf::SatBackend> makeBackend(const TaskOptions& options) {
    auto backend = options.backendFactory ? options.backendFactory()
                   : options.threads == 1
                       ? cnf::makeInternalBackend()
                       : cnf::makePortfolioBackend(options.threads);
    if (options.progress) {
        backend->setProgressCallback(options.progress, options.progressIntervalConflicts);
    }
    return backend;
}

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fail-fast pre-pass: run the instance linter and report whether it proved
/// the schedule unsatisfiable. The schedule lints are sound w.r.t. the
/// encoding (see lint/rail_lint.hpp), so an Error-severity finding lets the
/// task return infeasible without encoding or solving anything. When the
/// gate passes after running the reachability analysis, `reach` holds its
/// table for the encoder to prune with, so the analysis runs once per task.
bool lintRejects(const Instance& instance, const TaskOptions& options, const char* task,
                 std::optional<PruneTable>& reach) {
    if (!options.lintInstance) {
        return false;
    }
    lint::LintReport report;
    lint::lintSchedule(instance.graph(), instance.trains(), instance.schedule(), report);
    if (report.hasErrors()) {
        if (obs::logEnabled(obs::LogLevel::Info)) {
            obs::log(obs::LogLevel::Info, "task", task,
                     ",\"lint_rejected\":true,\"errors\":" +
                         std::to_string(report.count(lint::Severity::Error)));
        }
        return true;
    }
    // Second, stronger gate: the fixpoint reachability analysis refutes
    // schedules the shortest-path bounds miss (R-codes, lint/reach.hpp) and
    // is equally sound w.r.t. the encoding.
    {
        const obs::Span reachSpan("lint.reach");
        reach.emplace(instance);
    }
    if (reach->provablyInfeasible()) {
        if (obs::logEnabled(obs::LogLevel::Info)) {
            obs::log(obs::LogLevel::Info, "task", task,
                     ",\"reach_rejected\":true,\"violations\":" +
                         std::to_string(reach->analysis().violations().size()));
        }
        return true;
    }
    return false;
}

/// Fold formula size and the backend's solver counters into the task stats
/// and record the task runtime.
void finishStats(TaskStats& stats, const cnf::SatBackend& backend, const char* task,
                 Clock::time_point start) {
    stats.numVariables = backend.numVariables();
    stats.numClauses = backend.numClauses();
    const sat::SolverStats& solver = backend.stats();
    stats.conflicts = solver.conflicts;
    stats.propagations = solver.propagations;
    stats.decisions = solver.decisions;
    stats.restarts = solver.restarts;
    stats.maxDecisionLevel = solver.maxDecisionLevel;
    stats.peakLearnts = solver.peakLearnts;
    stats.runtimeSeconds = secondsSince(start);
    if (obs::logEnabled(obs::LogLevel::Info)) {
        obs::log(obs::LogLevel::Info, "task", task,
                 ",\"variables\":" + std::to_string(stats.numVariables) +
                     ",\"clauses\":" + std::to_string(stats.numClauses) +
                     ",\"solve_calls\":" + std::to_string(stats.solveCalls) +
                     ",\"conflicts\":" + std::to_string(stats.conflicts) +
                     ",\"seconds\":" + std::to_string(stats.runtimeSeconds));
    }
}

// ---- BMC-style horizon unrolling: how every task solves (docs/UNROLLING.md)

/// First horizon worth probing: every train must be able to finish inside the
/// prefix (completion lower bound), and every pinned stop must lie strictly
/// inside it with at least one step to spare — a train still dwelling at the
/// prefix's last step cannot be done there, so shorter prefixes are UNSAT by
/// construction and probing them would waste solver calls.
int unrollStartHorizon(const Instance& instance, const Encoder& encoder) {
    int lo = encoder.completionLowerBound() + 1;
    for (const DiscreteRun& r : instance.runs()) {
        for (const DiscreteStop& stop : r.stops) {
            if (stop.arrivalStep) {
                lo = std::max(lo, *stop.arrivalStep + stop.dwellSteps + 1);
            }
        }
    }
    return std::clamp(lo, 1, instance.horizonSteps());
}

/// Where the unrolling loop stopped and why.
struct UnrollOutcome {
    cnf::SolveStatus status = cnf::SolveStatus::Unknown;
    int startHorizon = 0;  ///< first probed prefix length
    int horizon = 0;       ///< encoded horizon at the final probe
    int probes = 0;        ///< solver calls spent
    bool assumed = false;  ///< final probe ran under the completion assumption
};

/// The unrolling driver: encode the start prefix, probe it on the warm
/// incremental backend under the assumptions {horizon guard, all trains done
/// at the prefix's last step}, and extend one step on UNSAT. At the full
/// horizon the completion assumption is dropped for verify/generate
/// (`completionAssumedAtFull == false`) so an UNSAT verdict is assumption-free
/// and its DRAT proof certifies against the fully unrolled formula; optimize
/// keeps it (its objective literally is the smallest feasible completion
/// step). Soundness: a prefix model under the assumptions extends to a
/// full-horizon model by keeping every train done, and conversely any
/// full-horizon model completing by step k-1 restricts to the prefix — see
/// docs/UNROLLING.md for the argument.
UnrollOutcome unrollSolve(cnf::SatBackend& backend, Encoder& encoder, const Instance& instance,
                          const VssLayout* fixedLayout, bool completionAssumedAtFull) {
    const int fullHorizon = instance.horizonSteps();
    UnrollOutcome out;
    out.startHorizon = unrollStartHorizon(instance, encoder);
    encoder.encodePrefix(fixedLayout, out.startHorizon);
    for (int k = out.startHorizon;;) {
        const bool finalSolve = k == fullHorizon && !completionAssumedAtFull;
        std::vector<cnf::Literal> assumptions;
        if (!finalSolve) {
            const cnf::Literal guard = encoder.horizonGuardLiteral();
            if (guard.valid()) {
                assumptions.push_back(guard);
            }
            assumptions.push_back(encoder.doneAllLiteral(k - 1));
        }
        ++out.probes;
        {
            const obs::Span probeSpan("unroll.probe");
            out.status = backend.solve(assumptions);
        }
        out.horizon = k;
        if (out.status == cnf::SolveStatus::Sat) {
            out.assumed = !finalSolve;
            break;
        }
        if (out.status == cnf::SolveStatus::Unknown || k == fullHorizon) {
            break;  // cancelled, or UNSAT with nothing left to unroll
        }
        ++k;
        const obs::Span extendSpan("unroll.extend");
        encoder.extendHorizon(k);
    }
    if (obs::logEnabled(obs::LogLevel::Info)) {
        obs::log(obs::LogLevel::Info, "unroll", "horizon unrolling finished",
                 ",\"start\":" + std::to_string(out.startHorizon) +
                     ",\"final\":" + std::to_string(out.horizon) +
                     ",\"full\":" + std::to_string(fullHorizon) +
                     ",\"probes\":" + std::to_string(out.probes));
    }
    return out;
}

void recordUnroll(TaskStats& stats, const UnrollOutcome& out) {
    stats.solveCalls += static_cast<std::uint64_t>(out.probes);
    stats.unrollProbes = out.probes;
    stats.unrollStartHorizon = out.startHorizon;
    stats.unrollFinalHorizon = out.horizon;
}

}  // namespace

VerificationResult verifySchedule(const Instance& instance, const VssLayout& layout,
                                  const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "verification requires a fully timed schedule");
    const obs::Span span("task.verify");
    const auto start = Clock::now();
    VerificationResult result;
    std::optional<PruneTable> reach;
    if (lintRejects(instance, options, "verify", reach)) {
        result.stats.runtimeSeconds = secondsSince(start);
        return result;
    }

    const auto backend = makeBackend(options);
    Encoder encoder(*backend, instance, options.encoder, std::move(reach));
    const UnrollOutcome out = unrollSolve(*backend, encoder, instance, &layout, false);
    recordUnroll(result.stats, out);
    result.feasible = out.status == cnf::SolveStatus::Sat;
    if (result.feasible) {
        result.solution = encoder.decode();
    }
    finishStats(result.stats, *backend, "verify", start);
    return result;
}

GenerationResult generateLayout(const Instance& instance, const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "layout generation requires a fully timed schedule");
    const obs::Span span("task.generate");
    const auto start = Clock::now();
    GenerationResult result;
    std::optional<PruneTable> reach;
    if (lintRejects(instance, options, "generate", reach)) {
        result.stats.runtimeSeconds = secondsSince(start);
        return result;
    }

    const auto backend = makeBackend(options);
    Encoder encoder(*backend, instance, options.encoder, std::move(reach));
    const UnrollOutcome out = unrollSolve(*backend, encoder, instance, nullptr, false);
    recordUnroll(result.stats, out);
    result.feasible = out.status == cnf::SolveStatus::Sat;
    if (result.feasible) {
        // Minimize borders inside the SAT prefix, starting from the probe's
        // model: completion by the prefix's last step is objective-preserving
        // for a fully timed schedule (docs/UNROLLING.md), so the assumption
        // scopes the search without changing the optimum.
        std::vector<cnf::Literal> always;
        if (out.assumed) {
            always.push_back(encoder.doneAllLiteral(out.horizon - 1));
        }
        const obs::Span minimizeSpan("minimize.borders");
        result.stats.solveCalls +=
            opt::minimizeTrueLiterals(*backend, encoder.freeBorderLiterals(), always)
                .solveCalls;
    }
    if (result.feasible) {
        result.solution = encoder.decode();
        result.sectionCount = result.solution->sectionCount;
    }
    finishStats(result.stats, *backend, "generate", start);
    return result;
}

namespace {

OptimizationResult optimizeImpl(const Instance& instance, const VssLayout* fixedLayout,
                                const TaskOptions& options);

}  // namespace

OptimizationResult optimizeSchedule(const Instance& instance, const TaskOptions& options) {
    return optimizeImpl(instance, nullptr, options);
}

OptimizationResult optimizeScheduleOnLayout(const Instance& instance, const VssLayout& layout,
                                            const TaskOptions& options) {
    return optimizeImpl(instance, &layout, options);
}

namespace {

OptimizationResult optimizeImpl(const Instance& instance, const VssLayout* fixedLayout,
                                const TaskOptions& options) {
    const obs::Span span("task.optimize");
    const auto start = Clock::now();
    OptimizationResult result;
    std::optional<PruneTable> reach;
    if (lintRejects(instance, options, "optimize", reach)) {
        result.stats.runtimeSeconds = secondsSince(start);
        return result;
    }

    const auto backend = makeBackend(options);
    Encoder encoder(*backend, instance, options.encoder, std::move(reach));

    // Primary objective: minimize the number of time steps until all trains
    // have left (paper's min sum !done^t). done^t is monotone, so the optimum
    // is the smallest step at which the done-all selector can hold: the
    // unrolling driver's first SAT horizon, minus one.
    result.completionLowerBound = encoder.completionLowerBound();
    if (result.completionLowerBound > instance.horizonSteps() - 1) {
        // The horizon admits no completion at all — a bound mismatch, not a
        // proof of infeasibility. Report it distinctly (and skip encoding:
        // no formula is needed to see it).
        result.verdict = OptimizeVerdict::HorizonTooShort;
        finishStats(result.stats, *backend, "optimize", start);
        return result;
    }

    const UnrollOutcome out = unrollSolve(*backend, encoder, instance, fixedLayout, true);
    recordUnroll(result.stats, out);
    if (out.status != cnf::SolveStatus::Sat) {
        finishStats(result.stats, *backend, "optimize", start);
        return result;
    }
    result.feasible = true;
    result.verdict = OptimizeVerdict::Feasible;
    result.completionSteps = out.horizon - 1;

    if (fixedLayout == nullptr) {
        // Freeze the optimal completion time (and the prefix guard, when one
        // is active), then minimize virtual borders starting from the
        // optimal probe's model, which satisfies both units.
        const obs::Span minimizeSpan("minimize.borders");
        const cnf::Literal guard = encoder.horizonGuardLiteral();
        if (guard.valid()) {
            backend->addUnit(guard);
        }
        backend->addUnit(encoder.doneAllLiteral(result.completionSteps));
        result.stats.solveCalls +=
            opt::minimizeTrueLiterals(*backend, encoder.freeBorderLiterals()).solveCalls;
    }

    result.solution = encoder.decode();
    result.sectionCount = result.solution->sectionCount;
    finishStats(result.stats, *backend, "optimize", start);
    return result;
}

}  // namespace

}  // namespace etcs::core
