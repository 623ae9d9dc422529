// Integration tests: the four case studies reproduce the qualitative shape
// of the paper's Table I.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "studies/studies.hpp"
#include "support/repeat_counting_backend.hpp"

namespace etcs::core {
namespace {

struct TableShape {
    int pureSections;          // TTD count expected in the "TTD/VSS" column
    bool expectVerifyFeasible; // Table I "Sat." for the verification row
};

void expectTableShape(const studies::CaseStudy& study, const TableShape& shape) {
    SCOPED_TRACE(study.name);
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const VssLayout pure(timed.graph());
    EXPECT_EQ(pure.sectionCount(timed.graph()), shape.pureSections);

    // Verification on the pure TTD layout.
    const auto verification = verifySchedule(timed, pure);
    EXPECT_EQ(verification.feasible, shape.expectVerifyFeasible);

    // Generation: must be feasible with at least as many sections, and only
    // a few more (the paper adds 1-4 virtual sections per study).
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    EXPECT_GE(generation.sectionCount, shape.pureSections);
    EXPECT_LE(generation.sectionCount, shape.pureSections + 4);
    ASSERT_TRUE(generation.solution.has_value());
    EXPECT_TRUE(validateSolution(timed, *generation.solution).empty());

    // Optimization: completes strictly within the scenario horizon.
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    const auto optimization = optimizeSchedule(open);
    ASSERT_TRUE(optimization.feasible);
    EXPECT_LT(optimization.completionSteps, open.horizonSteps());
    ASSERT_TRUE(optimization.solution.has_value());
    EXPECT_TRUE(validateSolution(open, *optimization.solution).empty());
}

TEST(Studies, RunningExampleMatchesTableI) {
    expectTableShape(studies::runningExample(), {4, false});
}

TEST(Studies, SimpleLayoutMatchesTableI) {
    expectTableShape(studies::simpleLayout(), {10, false});
}

TEST(Studies, ComplexLayoutMatchesTableI) {
    expectTableShape(studies::complexLayout(), {22, false});
}

TEST(Studies, NordlandsbanenMatchesTableI) {
    expectTableShape(studies::nordlandsbanen(), {51, false});
}

TEST(Studies, RunningExampleGenerationNeedsExactlyOneExtraSection) {
    const auto study = studies::runningExample();
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    EXPECT_EQ(generation.sectionCount, 5);  // Table I: 5
}

TEST(Studies, RunningExampleOptimizationImprovesArrivals) {
    // Fig. 2b: under the optimized layout, trains arrive strictly earlier
    // than the original schedule requires.
    const auto study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    const auto optimization = optimizeSchedule(open);
    ASSERT_TRUE(optimization.feasible);
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    int originalLatest = 0;
    for (const auto& run : timed.runs()) {
        originalLatest = std::max(originalLatest, *run.destination().arrivalStep);
    }
    EXPECT_LT(optimization.completionSteps - 1, originalLatest);
}

/// The border search continues from the unroll probe's model and never
/// re-asks a question whose answer is known: no solve repeats an assumption
/// set already answered SAT with no clause added since.
TEST(Studies, TasksNeverRepeatASolve) {
    for (const auto make : {&studies::runningExample, &studies::simpleLayout,
                            &studies::complexLayout, &studies::nordlandsbanen}) {
        const studies::CaseStudy study = make();
        SCOPED_TRACE(study.name);
        test::SolveTally tally;
        TaskOptions options;
        options.backendFactory = test::repeatCountingFactory(tally);
        const Instance timed(study.network, study.trains, study.timedSchedule,
                             study.resolution);
        const Instance open(study.network, study.trains, study.openSchedule,
                            study.resolution);
        ASSERT_TRUE(generateLayout(timed, options).feasible);
        ASSERT_TRUE(optimizeSchedule(open, options).feasible);
        EXPECT_GT(tally.solves, 0U);
        EXPECT_EQ(tally.repeats, 0U);
    }
}

/// Regression: cancelling generation or optimization at any point, border
/// minimization included, must not throw, and whatever solution the task
/// still returns must validate. The cancellation budgets (progress callbacks
/// at a 1-conflict interval) are spread over the callback count of one
/// uncancelled run, so they keep hitting every phase if the search changes.
/// Three backends: one thread; a two-worker portfolio without its solo-probe
/// gate that polls its stop flag at every conflict; and the gated default
/// that `TaskOptions::threads = 2` builds, where worker 0 alone decides
/// every solve here inside the gate, so the hook must run inside it.
TEST(Studies, CancellingComplexLayoutTasksNeverThrows) {
    const studies::CaseStudy study = studies::complexLayout();
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    constexpr std::uint64_t kBudgets = 20;
    enum class Backend { Single, UngatedPortfolio, GatedPortfolio };
    for (const Backend backend :
         {Backend::Single, Backend::UngatedPortfolio, Backend::GatedPortfolio}) {
        for (const bool optimize : {false, true}) {
            const Instance& instance = optimize ? open : timed;
            // Runs the task cancelled after `budget` callbacks; returns the
            // callbacks it saw and the solution it reported, if any.
            const auto run = [&](std::uint64_t budget) {
                std::uint64_t calls = 0;
                TaskOptions options;
                options.threads = backend == Backend::Single ? 1 : 2;
                if (backend == Backend::UngatedPortfolio) {
                    options.backendFactory = [] {
                        sat::PortfolioOptions portfolio;
                        portfolio.numThreads = 2;
                        portfolio.cancelCheckConflicts = 1;  // stop flag at every conflict
                        return cnf::makePortfolioBackend(portfolio);
                    };
                }
                options.progressIntervalConflicts = 1;
                options.progress = [&calls, budget](const sat::SolverProgress&) {
                    return ++calls <= budget;
                };
                std::optional<Solution> solution =
                    optimize ? optimizeSchedule(instance, options).solution
                             : generateLayout(instance, options).solution;
                return std::make_pair(calls, std::move(solution));
            };
            const std::uint64_t total = run(std::numeric_limits<std::uint64_t>::max()).first;
            ASSERT_GT(total, kBudgets) << "backend " << static_cast<int>(backend)
                                       << " optimize " << optimize;
            for (std::uint64_t i = 0; i < kBudgets; ++i) {
                const std::uint64_t budget = 1 + i * total / kBudgets;
                SCOPED_TRACE(testing::Message() << "backend " << static_cast<int>(backend)
                                                << " optimize " << optimize << " budget "
                                                << budget);
                std::optional<Solution> solution;
                ASSERT_NO_THROW(solution = run(budget).second);
                if (solution) {
                    EXPECT_TRUE(validateSolution(instance, *solution).empty());
                }
            }
        }
    }
}

TEST(Studies, NordlandsbanenHas58StationsAnd822Km) {
    const auto study = studies::nordlandsbanen();
    int numberedHalts = 0;
    for (const auto& station : study.network.stations()) {
        if (station.name.rfind("St", 0) == 0) {
            ++numberedHalts;
        }
    }
    EXPECT_EQ(numberedHalts, 58);
    EXPECT_EQ(study.network.totalLength().count(), 822000 + 10 * 10000);  // + loop tracks
    EXPECT_EQ(study.network.numTtds(), 51u);
}

TEST(Studies, HorizonsMatchThePaper) {
    EXPECT_EQ(Instance(studies::runningExample().network, studies::runningExample().trains,
                       studies::runningExample().timedSchedule,
                       studies::runningExample().resolution)
                  .horizonSteps(),
              11);
    const auto nordland = studies::nordlandsbanen();
    EXPECT_EQ(Instance(nordland.network, nordland.trains, nordland.timedSchedule,
                       nordland.resolution)
                  .horizonSteps(),
              48);  // Table I: 48 time steps
}

TEST(Studies, CorridorGeneratorProducesValidScenarios) {
    for (int stations : {2, 3, 4}) {
        const auto study = studies::corridor(stations, 3, Meters::fromKilometers(2.0),
                                             Resolution{Meters(500), Seconds(60)});
        SCOPED_TRACE(study.name);
        EXPECT_NO_THROW(study.network.validate());
        EXPECT_EQ(study.network.numTtds(), static_cast<std::size_t>(3 * stations - 1));
        const Instance timed(study.network, study.trains, study.timedSchedule,
                             study.resolution);
        const auto generation = generateLayout(timed);
        EXPECT_TRUE(generation.feasible);
        if (generation.solution) {
            EXPECT_TRUE(validateSolution(timed, *generation.solution).empty());
        }
    }
}

}  // namespace
}  // namespace etcs::core
