// Clause-database compaction tests: solving behaviour must be unchanged by
// garbage collection, and the automatic trigger must reclaim arena space.
#include <gtest/gtest.h>

#include <random>

#include "sat/solver.hpp"

namespace etcs::sat {
namespace {

Literal pos(Var v) { return Literal::positive(v); }
Literal neg(Var v) { return Literal::negative(v); }

void addPigeonhole(Solver& solver, int pigeons, int holes) {
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (auto& row : p) {
        std::vector<Literal> atLeast;
        for (Var& v : row) {
            v = solver.addVariable();
            atLeast.push_back(pos(v));
        }
        solver.addClause(atLeast);
    }
    for (int j = 0; j < holes; ++j) {
        for (int i = 0; i < pigeons; ++i) {
            for (int k = i + 1; k < pigeons; ++k) {
                solver.addClause({neg(p[i][j]), neg(p[k][j])});
            }
        }
    }
}

TEST(GarbageCollection, ManualCompactionPreservesResults) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> varDist(0, 11);
    std::bernoulli_distribution signDist(0.5);
    for (int round = 0; round < 10; ++round) {
        Solver compacted;
        Solver reference;
        for (int v = 0; v < 12; ++v) {
            compacted.addVariable();
            reference.addVariable();
        }
        for (int c = 0; c < 48; ++c) {
            std::vector<Literal> clause;
            for (int k = 0; k < 3; ++k) {
                clause.push_back(Literal(varDist(rng), signDist(rng)));
            }
            compacted.addClause(clause);
            reference.addClause(clause);
        }
        // Interleave solving under assumptions with forced compactions.
        for (int probe = 0; probe < 6; ++probe) {
            const Literal assumption(varDist(rng), signDist(rng));
            const auto a = compacted.solve({assumption});
            const auto b = reference.solve({assumption});
            EXPECT_EQ(a, b) << "round " << round << " probe " << probe;
            compacted.compactClauseDatabase();
        }
        EXPECT_EQ(compacted.solve(), reference.solve()) << "round " << round;
    }
}

TEST(GarbageCollection, CompactionReclaimsWastedWords) {
    Solver solver;
    // Early clause-DB reductions so clauses get freed.
    solver.options().reduceInterval = 1;
    addPigeonhole(solver, 8, 7);
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    ASSERT_GT(solver.stats().removedClauses, 0u)
        << "test misconfigured: no clause-DB reduction happened";
    // Reductions after the last automatic compaction (if any) leave waste
    // below the trigger; a manual compaction reclaims all of it.
    solver.compactClauseDatabase();
    EXPECT_EQ(solver.wastedArenaWords(), 0u);
}

TEST(GarbageCollection, AutomaticTriggerFiresOnHardInstances) {
    Solver solver;
    solver.options().reduceInterval = 1;
    addPigeonhole(solver, 9, 8);
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    EXPECT_GT(solver.stats().removedClauses, 0u);
    EXPECT_GT(solver.stats().garbageCollections, 0u);
}

TEST(GarbageCollection, SolvingContinuesAfterCompactionMidSearch) {
    // Compaction between incremental calls with a model check afterwards.
    Solver solver;
    std::vector<Var> x;
    for (int i = 0; i < 20; ++i) {
        x.push_back(solver.addVariable());
    }
    for (int i = 0; i + 1 < 20; i += 2) {
        solver.addClause({pos(x[i]), pos(x[i + 1])});
        solver.addClause({neg(x[i]), neg(x[i + 1])});
    }
    ASSERT_EQ(solver.solve({pos(x[0])}), SolveStatus::Sat);
    solver.compactClauseDatabase();
    ASSERT_EQ(solver.solve({neg(x[0])}), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(x[1]), Value::True);
    solver.addClause({pos(x[0])});
    solver.compactClauseDatabase();
    EXPECT_EQ(solver.solve({neg(x[0])}), SolveStatus::Unsat);
}

}  // namespace
}  // namespace etcs::sat
