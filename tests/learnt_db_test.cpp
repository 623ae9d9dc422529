// Learnt-clause database tests: every learnt clause carries the LBD computed
// when it was learnt, later analyses only lower it, core clauses survive
// every reduction, and unused tier-2 clauses are demoted and then deleted
// with a DRAT deletion step that the checker accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "support/formula_helpers.hpp"

namespace etcs::sat {
namespace {

using etcs::test::pigeonhole;
using etcs::test::proofCertifies;
using Key = std::vector<Literal>;

Key keyOf(std::span<const Literal> literals) {
    Key key(literals.begin(), literals.end());
    std::sort(key.begin(), key.end());
    return key;
}

void load(Solver& solver, const CnfFormula& f) {
    for (int v = 0; v < f.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : f.clauses) {
        solver.addClause(clause);
    }
}

/// Calls `inspect` at the first conflict after each learnt-DB reduction that
/// deleted a clause: no conflict analysis has changed the database since.
void onEachReduction(Solver& solver, std::function<void()> inspect) {
    solver.options().progressInterval = 1;
    solver.options().onProgress = [&solver, inspect = std::move(inspect),
                                   removed = std::uint64_t{0}](const SolverProgress&) mutable {
        if (solver.stats().removedClauses != removed) {
            removed = solver.stats().removedClauses;
            inspect();
        }
        return true;
    };
}

TEST(LearntDatabase, LearntClauseCarriesItsLbdAndReanalysisOnlyLowersIt) {
    Solver solver;
    load(solver, pigeonhole(7, 6));
    // The export hook hands out the LBD computed at learning.
    std::map<Key, std::uint32_t> learntLbd;
    Key lastLearnt;
    solver.options().shareMaxSize = 1 << 20;
    solver.options().onLearntExport = [&](std::span<const Literal> lits, int lbd) {
        EXPECT_GE(lbd, 1);
        EXPECT_LE(static_cast<std::size_t>(lbd), lits.size());
        lastLearnt = keyOf(lits);
        learntLbd[lastLearnt] = static_cast<std::uint32_t>(lbd);
    };
    std::map<Key, std::uint32_t> seenLbd;
    std::uint64_t lowered = 0;
    std::uint64_t checkedFresh = 0;
    solver.options().progressInterval = 1;
    solver.options().onProgress = [&](const SolverProgress&) {
        const std::size_t n = solver.numLearnedClauses();
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = solver.learntClause(i);
            const Key key = keyOf(c.literals);
            const auto learnt = learntLbd.find(key);
            if (learnt == learntLbd.end()) {
                ADD_FAILURE() << "learnt clause was never exported";
                return false;
            }
            EXPECT_GE(c.lbd, 1u);
            EXPECT_LE(c.lbd, learnt->second);
            EXPECT_EQ(c.tier == LearntTier::Core, c.lbd <= 2);
            if (c.tier == LearntTier::Tier2) {
                EXPECT_LE(c.lbd, 6u);
            }
            // The clause learnt at the previous conflict has taken part in
            // no analysis yet.
            if (i + 1 == n && key == lastLearnt) {
                EXPECT_EQ(c.lbd, learnt->second);
                ++checkedFresh;
            }
            const auto [seen, fresh] = seenLbd.try_emplace(key, c.lbd);
            if (!fresh) {
                EXPECT_LE(c.lbd, seen->second) << "an LBD grew";
                lowered += c.lbd < seen->second ? 1 : 0;
                seen->second = c.lbd;
            }
        }
        return true;
    };
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    EXPECT_GT(checkedFresh, 0u);
    EXPECT_GT(lowered, 0u) << "test misconfigured: no analysis lowered an LBD";
}

TEST(LearntDatabase, CoreClausesSurviveForcedReductions) {
    Solver solver;
    solver.options().reduceInterval = 1;
    load(solver, pigeonhole(8, 7));
    std::set<Key> core;
    int inspections = 0;
    onEachReduction(solver, [&] {
        ++inspections;
        for (std::size_t i = 0; i < solver.numLearnedClauses(); ++i) {
            const auto c = solver.learntClause(i);
            if (c.tier == LearntTier::Core) {
                core.insert(keyOf(c.literals));
            }
        }
    });
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    ASSERT_GT(solver.stats().removedClauses, 0u)
        << "test misconfigured: no clause-DB reduction happened";
    ASSERT_GE(inspections, 3);
    ASSERT_FALSE(core.empty());

    std::set<Key> finalCore;
    for (std::size_t i = 0; i < solver.numLearnedClauses(); ++i) {
        const auto c = solver.learntClause(i);
        if (c.tier == LearntTier::Core) {
            finalCore.insert(keyOf(c.literals));
        }
    }
    for (const Key& key : core) {
        EXPECT_TRUE(finalCore.count(key) != 0) << "a core clause was deleted";
    }
}

TEST(LearntDatabase, UnusedTier2ClauseIsDemotedThenDeletedWithACheckedDratLine) {
    const CnfFormula php = pigeonhole(8, 7);
    MemoryProofWriter proof;
    Solver solver;
    solver.options().reduceInterval = 1;
    solver.setProofWriter(&proof);
    load(solver, php);

    // Tier-2 clauses of the previous inspection that are local now were
    // demoted (promotions only ever move a clause to a lower tier).
    std::set<Key> tier2;
    std::set<Key> demoted;
    std::set<Key> deleted;
    onEachReduction(solver, [&] {
        std::map<Key, LearntTier> now;
        for (std::size_t i = 0; i < solver.numLearnedClauses(); ++i) {
            const auto c = solver.learntClause(i);
            now.emplace(keyOf(c.literals), c.tier);
        }
        for (auto it = demoted.begin(); it != demoted.end();) {
            if (now.count(*it) == 0) {
                deleted.insert(*it);
                it = demoted.erase(it);
            } else {
                ++it;
            }
        }
        for (const Key& key : tier2) {
            const auto found = now.find(key);
            if (found != now.end() && found->second == LearntTier::Local) {
                demoted.insert(key);
            }
        }
        tier2.clear();
        for (const auto& [key, tier] : now) {
            if (tier == LearntTier::Tier2) {
                tier2.insert(key);
            }
        }
    });
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    ASSERT_FALSE(deleted.empty()) << "test misconfigured: no demoted clause was deleted";

    std::set<Key> deletionSteps;
    for (const DratStep& step : proof.proof().steps) {
        if (step.isDeletion) {
            deletionSteps.insert(keyOf(step.literals));
        }
    }
    for (const Key& key : deleted) {
        EXPECT_TRUE(deletionSteps.count(key) != 0) << "deleted without a DRAT d line";
    }
    EXPECT_TRUE(proofCertifies(php, proof.proof()));
}

}  // namespace
}  // namespace etcs::sat
