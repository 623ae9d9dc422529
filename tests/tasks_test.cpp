// Task-level API tests on the running example (paper Fig. 1/2, Table I rows
// 1-3) plus option behaviour.
#include <gtest/gtest.h>

#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "studies/studies.hpp"

namespace etcs::core {
namespace {

struct RunningFixture : ::testing::Test {
    studies::CaseStudy study = studies::runningExample();
    Instance timed{study.network, study.trains, study.timedSchedule, study.resolution};
    Instance open{study.network, study.trains, study.openSchedule, study.resolution};
};

TEST_F(RunningFixture, VerificationOnPureTtdIsInfeasible) {
    const VssLayout pure(timed.graph());
    EXPECT_EQ(pure.sectionCount(timed.graph()), 4);
    const auto result = verifySchedule(timed, pure);
    EXPECT_FALSE(result.feasible);  // Table I row 1: "No"
    EXPECT_FALSE(result.solution.has_value());
    EXPECT_GT(result.stats.numVariables, 0);
    EXPECT_GT(result.stats.numClauses, 0u);
}

TEST_F(RunningFixture, VerificationOnFinestLayoutSucceeds) {
    const auto finest = VssLayout::finest(timed.graph());
    const auto result = verifySchedule(timed, finest);
    EXPECT_TRUE(result.feasible);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(timed, *result.solution).empty());
}

TEST_F(RunningFixture, GenerationFindsSmallLayout) {
    const auto result = generateLayout(timed);
    ASSERT_TRUE(result.feasible);  // Table I row 2: "Yes"
    // Paper: 5 sections suffice (4 TTDs + 1 virtual border).
    EXPECT_EQ(result.sectionCount, 5);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(timed, *result.solution).empty());
}

TEST_F(RunningFixture, GeneratedLayoutPassesVerification) {
    const auto generated = generateLayout(timed);
    ASSERT_TRUE(generated.feasible);
    const auto verified = verifySchedule(timed, generated.solution->layout);
    EXPECT_TRUE(verified.feasible);
}

TEST_F(RunningFixture, OptimizationBeatsTheTimedSchedule) {
    const auto result = optimizeSchedule(open);
    ASSERT_TRUE(result.feasible);  // Table I row 3: "Yes"
    // The timed schedule needs 11 steps (last arrival at step 10); the
    // optimizer must finish strictly earlier (paper: 7 < 10).
    EXPECT_LT(result.completionSteps, timed.horizonSteps());
    EXPECT_GE(result.sectionCount, 4);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(open, *result.solution).empty());
    EXPECT_EQ(result.solution->completionSteps, result.completionSteps);
}

TEST_F(RunningFixture, OptimizationCompletionIsAMinimum) {
    // Re-solving with the completion bound one step lower must fail: do the
    // cross-check via a fresh encoder.
    const auto result = optimizeSchedule(open);
    ASSERT_TRUE(result.feasible);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, open);
    encoder.encode(nullptr);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(result.completionSteps - 1)}),
              cnf::SolveStatus::Unsat);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(result.completionSteps)}),
              cnf::SolveStatus::Sat);
}

TEST_F(RunningFixture, OptimizationOnPureLayoutIsWorseOrInfeasible) {
    const VssLayout pure(open.graph());
    const auto onPure = optimizeScheduleOnLayout(open, pure);
    const auto free = optimizeSchedule(open);
    ASSERT_TRUE(free.feasible);
    if (onPure.feasible) {
        EXPECT_GE(onPure.completionSteps, free.completionSteps);
    }
}

TEST_F(RunningFixture, VerificationRequiresTimedSchedule) {
    const VssLayout pure(open.graph());
    EXPECT_THROW((void)verifySchedule(open, pure), PreconditionError);
    EXPECT_THROW((void)generateLayout(open), PreconditionError);
}

TEST_F(RunningFixture, OptimizationInfeasibleOnTooShortHorizon) {
    rail::Schedule shortSchedule;
    for (const auto& run : study.openSchedule.runs()) {
        shortSchedule.addRun(run);
    }
    shortSchedule.setHorizon(Seconds(3 * 30));  // 3 steps: nobody can finish
    const Instance tiny(study.network, study.trains, shortSchedule, study.resolution);
    const auto result = optimizeSchedule(tiny);
    EXPECT_FALSE(result.feasible);
}

TEST_F(RunningFixture, StatsRuntimeIsPopulated) {
    const auto result = generateLayout(timed);
    EXPECT_GT(result.stats.runtimeSeconds, 0.0);
    EXPECT_GT(result.stats.solveCalls, 0u);
}

TEST(Tasks, IntermediateStopIsHonoured) {
    // A -> via C -> B on the running example network: train 1 must pass
    // through station C's segment at its pinned time.
    auto study = studies::runningExample();
    rail::Schedule schedule;
    rail::TrainRun run;
    run.train = TrainId(0u);
    run.origin = *study.network.findStation("StA");
    run.departure = Seconds(0);
    run.stops.push_back(rail::TimedStop{*study.network.findStation("StC"), Seconds(60)});
    run.stops.push_back(rail::TimedStop{*study.network.findStation("StB"), Seconds(270)});
    schedule.addRun(run);
    const Instance instance(study.network, study.trains, schedule, study.resolution);
    const auto finest = VssLayout::finest(instance.graph());
    const auto result = verifySchedule(instance, finest);
    ASSERT_TRUE(result.feasible);
    const auto& trace = result.solution->traces[0];
    const SegmentId stopSegment =
        instance.graph().segmentOfStation(*study.network.findStation("StC"));
    const auto& atStop = trace.occupied[2];  // 0:01 -> step 2
    EXPECT_NE(std::find(atStop.begin(), atStop.end(), stopSegment), atStop.end());
    EXPECT_TRUE(validateSolution(instance, *result.solution).empty());
}

}  // namespace
}  // namespace etcs::core
