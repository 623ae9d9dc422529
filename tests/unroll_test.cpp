/// \file unroll_test.cpp
/// Contracts of BMC-style incremental horizon unrolling (docs/UNROLLING.md),
/// the way every task solves, checked against the full-horizon reference of
/// support/full_horizon.hpp:
///
///   * verdict and witness agreement with the full-horizon encoding on every
///     shipped case study and the frozen generated corpus;
///   * objective agreement: generation finds the same minimal section count
///     and optimization the same minimal completion time as the full-horizon
///     searches;
///   * the optimize path reports a too-short horizon as its own verdict
///     (HorizonTooShort) without encoding or solving;
///   * proof soundness: UNSAT at the full horizon (assumption-free final
///     solve) carries a DRAT proof that re-certifies against the unrolled
///     formula, both in-process and through the shipped `dratcheck` tool;
///   * on Nordlandsbanen, the unrolled optimization formula is measurably
///     smaller than the full-horizon one (the acceptance pin).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "railway/io.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "studies/studies.hpp"
#include "support/full_horizon.hpp"

#ifndef ETCS_FIXTURE_DIR
#error "ETCS_FIXTURE_DIR must point at tests/fixtures/"
#endif
#ifndef ETCS_DRATCHECK_BIN
#error "ETCS_DRATCHECK_BIN must point at the dratcheck tool"
#endif

namespace etcs::core {
namespace {

/// The frozen generated corpus (tests/fixtures/gen/, regenerated and
/// byte-checked by gen_test); discretized at the generator's default
/// resolution.
const std::vector<std::string> kCorpus = {
    "corridor_s42_n3_t2_feasible",
    "corridor_s42_n3_t2_infeasible",
    "junction_s42_n3_t2_tight",
    "network_s42_n3_t2_feasible",
};
constexpr Resolution kCorpusResolution{Meters(500), Seconds(60)};

rail::Scenario loadCorpusScenario(const std::string& name, rail::Network& network) {
    const std::string base = std::string(ETCS_FIXTURE_DIR) + "/gen/" + name;
    std::ifstream railIn(base + ".rail");
    EXPECT_TRUE(railIn.good()) << "cannot open " << base << ".rail";
    network = rail::readNetwork(railIn);
    std::ifstream schedIn(base + ".sched");
    EXPECT_TRUE(schedIn.good()) << "cannot open " << base << ".sched";
    return rail::readScenario(schedIn, network);
}

/// The driver's start horizon (tasks.cpp): past the completion lower bound
/// and past every pinned stop, so pins always lie inside the first prefix.
int driverStartHorizon(const Instance& instance, int completionLowerBound) {
    int lo = completionLowerBound + 1;
    for (const DiscreteRun& run : instance.runs()) {
        for (const DiscreteStop& stop : run.stops) {
            if (stop.arrivalStep) {
                lo = std::max(lo, *stop.arrivalStep + stop.dwellSteps + 1);
            }
        }
    }
    return std::clamp(lo, 1, instance.horizonSteps());
}

TaskOptions taskOptions() {
    TaskOptions options;
    options.lintInstance = false;  // exercise the solver on every instance
    return options;
}

/// Verify `instance` on `layout` with the task and the full-horizon
/// reference; require identical verdicts, validating witnesses, and an
/// unrolled formula no larger than the full-horizon one (fully timed
/// schedules have no open stops, so a prefix at horizon k is exactly the
/// horizon-k full encoding).
bool expectVerifyAgreement(const Instance& instance, const VssLayout& layout) {
    const auto reference = test::fullHorizonVerify(instance, layout);
    const auto unrolled = verifySchedule(instance, layout, taskOptions());
    EXPECT_EQ(unrolled.feasible, reference.feasible)
        << "unrolled and full-horizon encodings disagree";
    if (reference.feasible) {
        EXPECT_TRUE(validateSolution(instance, *reference.solution).empty());
    }
    if (unrolled.feasible) {
        EXPECT_TRUE(unrolled.solution.has_value());
        EXPECT_TRUE(validateSolution(instance, *unrolled.solution).empty())
            << "unrolled witness fails the independent validator";
    }
    // A prefix at horizon k is exactly the horizon-k full encoding; the only
    // addition is one lazily-built done-all selector per probe
    // (numRuns + 1 clauses each), which plain verification never needs.
    const std::size_t selectorSlack =
        static_cast<std::size_t>(unrolled.stats.unrollProbes) *
        (instance.numRuns() + 1);
    EXPECT_LE(unrolled.stats.numClauses, reference.numClauses + selectorSlack)
        << "an unrolled prefix must not exceed the full-horizon clause count";
    EXPECT_GE(unrolled.stats.unrollProbes, 1);
    EXPECT_GE(unrolled.stats.unrollStartHorizon, 1);
    EXPECT_GE(unrolled.stats.unrollFinalHorizon, unrolled.stats.unrollStartHorizon);
    EXPECT_LE(unrolled.stats.unrollFinalHorizon, instance.horizonSteps());
    return reference.feasible;
}

TEST(Unroll, AgreesWithMonolithicOnShippedScenarios) {
    const std::vector<studies::CaseStudy> cases = {
        studies::runningExample(), studies::simpleLayout(), studies::complexLayout(),
        studies::nordlandsbanen()};
    for (const studies::CaseStudy& study : cases) {
        SCOPED_TRACE(study.name);
        const Instance instance(study.network, study.trains, study.timedSchedule,
                                study.resolution);
        // Pure TTD layout (the paper's verification task) and the finest
        // layout (every node a border) hit different exclusivity regimes.
        expectVerifyAgreement(instance, VssLayout(instance.graph()));
        expectVerifyAgreement(instance, VssLayout::finest(instance.graph()));
    }
}

TEST(Unroll, AgreesWithMonolithicOnFrozenCorpus) {
    for (const std::string& name : kCorpus) {
        SCOPED_TRACE(name);
        rail::Network network("pending");
        const rail::Scenario scenario = loadCorpusScenario(name, network);
        const Instance instance(network, scenario.trains, scenario.schedule,
                                kCorpusResolution);
        const bool feasible =
            expectVerifyAgreement(instance, VssLayout::finest(instance.graph()));
        if (name.find("_infeasible") != std::string::npos) {
            EXPECT_FALSE(feasible) << "provably infeasible corpus instance is SAT";
        }
        if (name.find("_feasible") != std::string::npos) {
            EXPECT_TRUE(feasible) << "feasible-by-construction instance is UNSAT";
        }
    }
}

TEST(Unroll, GenerationAndOptimizationAgree) {
    const studies::CaseStudy study = studies::runningExample();
    const Instance instance(study.network, study.trains, study.timedSchedule,
                            study.resolution);
    const auto reference = test::fullHorizonGenerate(instance);
    const auto unrolled = generateLayout(instance, taskOptions());
    ASSERT_EQ(unrolled.feasible, reference.feasible);
    ASSERT_TRUE(unrolled.feasible);
    // Both searches are sound and complete, so the minimized section counts
    // must coincide exactly.
    EXPECT_EQ(unrolled.sectionCount, reference.sectionCount);
    EXPECT_TRUE(validateSolution(instance, *unrolled.solution).empty());

    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const auto referenceOpt = test::fullHorizonOptimize(open);
    const auto unrolledOpt = optimizeSchedule(open, taskOptions());
    ASSERT_EQ(unrolledOpt.feasible, referenceOpt.feasible);
    ASSERT_TRUE(referenceOpt.feasible);
    EXPECT_EQ(unrolledOpt.verdict, OptimizeVerdict::Feasible);
    // "First SAT horizon" must equal the full-horizon smallest-index search.
    EXPECT_EQ(unrolledOpt.completionSteps, referenceOpt.completionSteps);
    EXPECT_EQ(unrolledOpt.sectionCount, referenceOpt.sectionCount);
    EXPECT_TRUE(validateSolution(open, *unrolledOpt.solution).empty());
    EXPECT_EQ(unrolledOpt.stats.unrollFinalHorizon, unrolledOpt.completionSteps + 1);
}

TEST(Unroll, OptimizeOnFixedLayoutAgrees) {
    const studies::CaseStudy study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const VssLayout finest = VssLayout::finest(open.graph());
    const auto reference = test::fullHorizonOptimize(open, &finest);
    const auto unrolled = optimizeScheduleOnLayout(open, finest, taskOptions());
    ASSERT_EQ(unrolled.feasible, reference.feasible);
    if (reference.feasible) {
        EXPECT_EQ(unrolled.completionSteps, reference.completionSteps);
    }
}

/// Satellite regression: a horizon shorter than any possible completion is
/// its own verdict — no encode, no solver call, and the lower bound that a
/// retry must beat is reported.
TEST(Unroll, OptimizeReportsHorizonTooShort) {
    const studies::CaseStudy study = studies::runningExample();
    rail::Schedule shortened = study.openSchedule;
    shortened.setHorizon(study.resolution.temporal +
                         study.resolution.temporal);  // two steps: nobody finishes
    const Instance instance(study.network, study.trains, shortened, study.resolution);
    const auto result = optimizeSchedule(instance, taskOptions());
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.verdict, OptimizeVerdict::HorizonTooShort);
    EXPECT_EQ(toString(result.verdict), "horizon_too_short");
    EXPECT_GT(result.completionLowerBound, instance.horizonSteps() - 1);
    EXPECT_EQ(result.stats.solveCalls, 0U);
    EXPECT_EQ(result.stats.numClauses, 0U) << "rejection must not encode";
}

/// A feasible optimization must NOT be classified as HorizonTooShort.
TEST(Unroll, FeasibleOptimizationReportsFeasibleVerdict) {
    const studies::CaseStudy study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const auto result = optimizeSchedule(open, taskOptions());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.verdict, OptimizeVerdict::Feasible);
    EXPECT_EQ(toString(result.verdict), "feasible");
    EXPECT_LE(result.completionLowerBound, result.completionSteps);
}

/// UNSAT at the full horizon comes from an assumption-free solve of the
/// fully unrolled formula, so the accumulated DRAT proof certifies — replay
/// the driver's probe/extend loop against a proof-logging solver while a
/// twin encoder records the identical clause stream for the checker.
TEST(Unroll, UnsatProofRecertifies) {
    // The running example's timed schedule is infeasible on the pure TTD
    // layout (the paper's motivating verification failure).
    const studies::CaseStudy study = studies::runningExample();
    const Instance instance(study.network, study.trains, study.timedSchedule,
                            study.resolution);
    const VssLayout pure(instance.graph());
    const int fullHorizon = instance.horizonSteps();

    const auto solver = cnf::makeInternalBackend();
    sat::MemoryProofWriter proof;
    // The proof writer must attach before encoding so clause-normalization
    // steps are logged.
    ASSERT_TRUE(solver->setProofWriter(&proof));
    cnf::CollectingBackend collector;
    Encoder encoder(*solver, instance, {});
    Encoder twin(collector, instance, {});  // same deterministic clause stream

    int k = driverStartHorizon(instance, encoder.completionLowerBound());
    encoder.encodePrefix(&pure, k);
    twin.encodePrefix(&pure, k);
    cnf::SolveStatus status = cnf::SolveStatus::Unknown;
    for (;; ++k) {
        if (k == fullHorizon) {
            status = solver->solve();  // assumption-free: certifiable verdict
            break;
        }
        status = solver->solve({encoder.doneAllLiteral(k - 1)});
        (void)twin.doneAllLiteral(k - 1);  // keep the twin's selector stream aligned
        if (status != cnf::SolveStatus::Unsat) {
            break;
        }
        encoder.extendHorizon(k + 1);
        twin.extendHorizon(k + 1);
    }
    ASSERT_EQ(status, cnf::SolveStatus::Unsat);

    const sat::CnfFormula formula = collector.formula();
    ASSERT_GT(formula.clauses.size(), 0U);
    const auto check = sat::checkDrat(formula, proof.proof());
    EXPECT_TRUE(check.verified) << check.error;

    // Round-trip through the shipped checker binary.
    const std::string dir = ::testing::TempDir();
    const std::string cnfPath = dir + "unroll_unsat.cnf";
    const std::string proofPath = dir + "unroll_unsat.drat";
    ASSERT_TRUE(sat::writeDimacsFile(cnfPath, formula));
    {
        std::ofstream out(proofPath);
        ASSERT_TRUE(out.good());
        sat::TextDratWriter writer(out);
        sat::writeDrat(writer, proof.proof());
    }
    const std::string command =
        std::string(ETCS_DRATCHECK_BIN) + " " + cnfPath + " " + proofPath;
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
    std::remove(cnfPath.c_str());
    std::remove(proofPath.c_str());
}

/// The acceptance pin: on Nordlandsbanen's open schedule, stopping the
/// encoding at the first SAT horizon leaves measurably fewer clauses than
/// the full-horizon formula.
TEST(Unroll, NordlandsbanenClauseReduction) {
    const studies::CaseStudy study = studies::nordlandsbanen();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    // Both sides run the border pass, so both formulas carry its totalizer.
    const auto baseline = test::fullHorizonOptimize(open);
    const auto probed = optimizeSchedule(open, taskOptions());
    ASSERT_EQ(probed.feasible, baseline.feasible);
    ASSERT_TRUE(baseline.feasible);
    EXPECT_EQ(probed.completionSteps, baseline.completionSteps);
    EXPECT_EQ(probed.sectionCount, baseline.sectionCount);
    EXPECT_LT(probed.stats.unrollFinalHorizon, open.horizonSteps())
        << "the optimum must fall before the full horizon for the pin to bite";
    // The acceptance bar: at least 15% fewer clauses than the full horizon
    // (the optimal timetable completes around 80% of the shipped horizon, so
    // the unrolled formula drops the last ~20% of the steps; measured 18%
    // with the border totalizer on both sides).
    EXPECT_LE(probed.stats.numClauses * 100, baseline.numClauses * 85)
        << "unrolled formula " << probed.stats.numClauses << " vs full horizon "
        << baseline.numClauses;
}

}  // namespace
}  // namespace etcs::core
