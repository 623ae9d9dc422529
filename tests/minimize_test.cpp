// Optimization engine tests: the border search must find the true optimum
// (as determined by brute force) from the caller's satisfying model, and the
// backend's most recent model must witness the optimum after return.
#include <gtest/gtest.h>

#include <random>

#include "cnf/backend.hpp"
#include "opt/minimize.hpp"
#include "support/repeat_counting_backend.hpp"
#include "util/error.hpp"

namespace etcs::opt {
namespace {

using cnf::SolveStatus;

std::vector<Literal> makeInputs(SatBackend& backend, int n) {
    std::vector<Literal> inputs;
    for (int i = 0; i < n; ++i) {
        inputs.push_back(Literal::positive(backend.addVariable()));
    }
    return inputs;
}

int trueCount(const SatBackend& backend, std::span<const Literal> lits) {
    int count = 0;
    for (Literal l : lits) {
        count += backend.modelValue(l) ? 1 : 0;
    }
    return count;
}

TEST(Minimize, MinimumOfUnconstrainedSoftLiteralsIsZero) {
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 5);
    ASSERT_EQ(backend->solve(), SolveStatus::Sat);
    EXPECT_EQ(minimizeTrueLiterals(*backend, soft).optimum, 0);
}

TEST(Minimize, CoveringConstraintForcesMinimum) {
    // Soft literals must cover three disjoint "demands": x0|x1, x2|x3, x4|x5
    // -> optimum 3.
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 6);
    backend->addClause({soft[0], soft[1]});
    backend->addClause({soft[2], soft[3]});
    backend->addClause({soft[4], soft[5]});
    ASSERT_EQ(backend->solve(), SolveStatus::Sat);
    const auto result = minimizeTrueLiterals(*backend, soft);
    EXPECT_EQ(result.optimum, 3);
    // The backend's model must realize the optimum.
    EXPECT_EQ(trueCount(*backend, soft), 3);
}

TEST(Minimize, EmptySoftSetNeedsNoSolve) {
    const auto backend = cnf::makeInternalBackend();
    makeInputs(*backend, 2);
    const auto result = minimizeTrueLiterals(*backend, {});
    EXPECT_EQ(result.optimum, 0);
    EXPECT_EQ(result.solveCalls, 0U);
}

TEST(Minimize, RandomInstancesMatchBruteForce) {
    std::mt19937 rng(77);
    for (int round = 0; round < 8; ++round) {
        // Random 3-clauses over 8 soft variables.
        const int n = 8;
        std::uniform_int_distribution<int> varDist(0, n - 1);
        std::bernoulli_distribution signDist(0.3);  // mostly positive -> coverage
        std::vector<std::vector<Literal>> clauses;
        const int numClauses = 10;

        const auto backend = cnf::makeInternalBackend();
        const auto soft = makeInputs(*backend, n);
        for (int c = 0; c < numClauses; ++c) {
            std::vector<Literal> clause;
            for (int k = 0; k < 3; ++k) {
                const Literal l = soft[varDist(rng)];
                clause.push_back(signDist(rng) ? ~l : l);
            }
            clauses.push_back(clause);
            backend->addClause(clause);
        }

        // Brute-force optimum.
        int best = -1;
        for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
            bool ok = true;
            for (const auto& clause : clauses) {
                bool sat = false;
                for (Literal l : clause) {
                    const bool v = ((bits >> l.var()) & 1u) != 0;
                    if (v != l.sign()) {
                        sat = true;
                        break;
                    }
                }
                if (!sat) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                const int count = __builtin_popcount(bits);
                if (best < 0 || count < best) {
                    best = count;
                }
            }
        }

        const bool feasible = backend->solve() == SolveStatus::Sat;
        ASSERT_EQ(feasible, best >= 0) << "round " << round;
        if (feasible) {
            const auto result = minimizeTrueLiterals(*backend, soft);
            EXPECT_EQ(result.optimum, best) << "round " << round;
            EXPECT_EQ(trueCount(*backend, soft), best) << "round " << round;
        }
    }
}

/// The search continues from the caller's model (here a deliberately poor
/// one, at least 6 true against an optimum of 4) and never repeats a solve
/// it knows the answer to: no opening re-solve, no closing re-solve.
TEST(Minimize, NeverRepeatsASolve) {
    test::SolveTally tally;
    test::RepeatCountingBackend backend(cnf::makeInternalBackend(), tally);
    const auto soft = makeInputs(backend, 12);
    for (int i = 0; i < 4; ++i) {
        backend.addClause({soft[3 * i], soft[3 * i + 1], soft[3 * i + 2]});
    }
    const Literal everyOther[] = {soft[0], soft[3], soft[6], soft[9], soft[1], soft[4]};
    ASSERT_EQ(backend.solve(everyOther), SolveStatus::Sat);
    const auto result = minimizeTrueLiterals(backend, soft);
    EXPECT_EQ(result.optimum, 4);
    EXPECT_EQ(trueCount(backend, soft), 4);
    EXPECT_EQ(tally.solves, result.solveCalls + 1);
    EXPECT_EQ(tally.repeats, 0U);
}

/// Cancels every solve from the `cancelFrom`-th call on, as a progress hook
/// that returns false does.
class CancellingBackend final : public test::ForwardingBackend {
public:
    CancellingBackend(std::unique_ptr<SatBackend> inner, int cancelFrom)
        : ForwardingBackend(std::move(inner)), cancelFrom_(cancelFrom) {}

    using ForwardingBackend::solve;

    SolveStatus solve(std::span<const Literal> assumptions) override {
        return ++calls_ >= cancelFrom_ ? SolveStatus::Unknown
                                       : ForwardingBackend::solve(assumptions);
    }

private:
    int cancelFrom_;
    int calls_ = 0;
};

TEST(Minimize, CancelledProbeKeepsTheIncumbentAndItsModel) {
    // Six free soft literals forced true by the opening solve: incumbent 6.
    // The first bound probe is cancelled, so the search ends with the
    // incumbent, whose model is still the backend's latest.
    CancellingBackend backend(cnf::makeInternalBackend(), 2);
    const auto soft = makeInputs(backend, 6);
    ASSERT_EQ(backend.solve(soft), SolveStatus::Sat);
    const auto result = minimizeTrueLiterals(backend, soft);
    EXPECT_EQ(result.optimum, 6);
    EXPECT_EQ(result.solveCalls, 1U);
    EXPECT_EQ(trueCount(backend, soft), 6);
}

TEST(IndexSearch, FindsSmallestFeasibleIndex) {
    // literal(t) is satisfiable iff t >= 5: chain y_t -> y_{t+1} with y_4
    // forced false and y_5 free models a monotone family.
    const auto backend = cnf::makeInternalBackend();
    std::vector<Literal> y = makeInputs(*backend, 10);
    for (int t = 0; t + 1 < 10; ++t) {
        backend->addClause({~y[t], y[t + 1]});  // monotone
    }
    backend->addClause({~y[4]});  // t <= 4 infeasible
    const auto result = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 0, 9);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.index, 5);
    EXPECT_TRUE(backend->modelValue(y[5]));
}

TEST(IndexSearch, ReportsInfeasibleRange) {
    const auto backend = cnf::makeInternalBackend();
    std::vector<Literal> y = makeInputs(*backend, 4);
    for (Literal l : y) {
        backend->addClause({~l});
    }
    const auto result = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 0, 3);
    EXPECT_FALSE(result.feasible);
}

TEST(IndexSearch, WholeRangeFeasibleReturnsLowerBound) {
    const auto backend = cnf::makeInternalBackend();
    std::vector<Literal> y = makeInputs(*backend, 4);
    const auto result = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 1, 3);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.index, 1);
}

TEST(IndexSearch, CancelledProbeKeepsTheSmallestProvenIndex) {
    // Probes 9 (SAT) and 4 (UNSAT), then 6 is cancelled: the search ends at
    // 9, the smallest index proven feasible, whose model is the latest.
    CancellingBackend backend(cnf::makeInternalBackend(), 3);
    std::vector<Literal> y = makeInputs(backend, 10);
    for (int t = 0; t + 1 < 10; ++t) {
        backend.addClause({~y[t], y[t + 1]});
    }
    backend.addClause({~y[4]});
    const auto result = smallestFeasibleIndex(backend, [&](int t) { return y[t]; }, 0, 9);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.index, 9);
    EXPECT_EQ(result.solveCalls, 3U);
    EXPECT_TRUE(backend.modelValue(y[9]));
}

/// Regression: smallestFeasibleIndex never burns a trailing re-solve. Its
/// latest SAT probe is always at the returned index, so the backend's most
/// recent model matches that index whether the final probe was SAT or UNSAT.
TEST(Minimize, SkipsRedundantTrailingResolve) {
    const auto makeChain = [](cnf::SatBackend& backend) {
        std::vector<Literal> y = makeInputs(backend, 10);
        for (int t = 0; t + 1 < 10; ++t) {
            backend.addClause({~y[t], y[t + 1]});  // monotone
        }
        backend.addClause({~y[4]});  // t <= 4 infeasible
        return y;
    };

    {
        // Binary probes 9, 4, 6, 5 and ends SAT at the optimum: 4 calls
        // (was 5).
        const auto backend = cnf::makeInternalBackend();
        const auto y = makeChain(*backend);
        const auto result = smallestFeasibleIndex(
            *backend, [&](int t) { return y[t]; }, 0, 9);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.index, 5);
        EXPECT_EQ(result.solveCalls, 4U);
        EXPECT_TRUE(backend->modelValue(y[5]));
    }
    {
        // With t <= 5 infeasible, Binary probes 9, 4, 6, 5 and ends on the
        // UNSAT probe below the optimum. The SAT model of the probe at 6 is
        // still the latest: 4 calls (was 5), model at 6.
        const auto backend = cnf::makeInternalBackend();
        const auto y = makeChain(*backend);
        backend->addClause({~y[5]});
        const auto result = smallestFeasibleIndex(
            *backend, [&](int t) { return y[t]; }, 0, 9);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.index, 6);
        EXPECT_EQ(result.solveCalls, 4U);
        EXPECT_TRUE(backend->modelValue(y[6]));
    }
}

TEST(Minimize, RejectsEmptyRange) {
    const auto backend = cnf::makeInternalBackend();
    const auto y = makeInputs(*backend, 2);
    EXPECT_THROW(smallestFeasibleIndex(*backend, [&](int t) { return y[t]; }, 2, 1),
                 PreconditionError);
}

}  // namespace
}  // namespace etcs::opt
