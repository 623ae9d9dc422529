/// \file ablation_encodings.cpp
/// Ablation A1 (our addition, see DESIGN.md): how encoding choices affect
/// the ETCS instances --
///   * at-most-one encodings on the chain-selector groups,
///   * totalizer vs sequential-counter cardinality bounds.
#include <benchmark/benchmark.h>

#include "cnf/cardinality.hpp"
#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

const studies::CaseStudy& running() {
    static const auto study = studies::runningExample();
    return study;
}

void BM_GenerationAmoEncoding(benchmark::State& state) {
    const auto& study = running();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    const auto encoding = static_cast<cnf::AmoEncoding>(state.range(0));
    core::TaskOptions options;
    options.encoder.amoEncoding = encoding;
    std::size_t clauses = 0;
    for (auto _ : state) {
        const auto result = core::generateLayout(instance, options);
        benchmark::DoNotOptimize(result.feasible);
        clauses = result.stats.numClauses;
        if (!result.feasible || result.sectionCount != 5) {
            state.SkipWithError("unexpected generation result");
        }
    }
    state.SetLabel(std::string(cnf::toString(encoding)));
    state.counters["clauses"] = static_cast<double>(clauses);
}
BENCHMARK(BM_GenerationAmoEncoding)
    ->Arg(static_cast<int>(cnf::AmoEncoding::Pairwise))
    ->Arg(static_cast<int>(cnf::AmoEncoding::Sequential))
    ->Arg(static_cast<int>(cnf::AmoEncoding::Commander))
    ->Arg(static_cast<int>(cnf::AmoEncoding::Product))
    ->Unit(benchmark::kMillisecond);

/// Totalizer (reusable, assumption-driven) vs sequential counter (one-shot):
/// enforce "at most k of 40" and solve once.
void BM_CardinalityEncoding(benchmark::State& state) {
    const bool useTotalizer = state.range(0) == 0;
    for (auto _ : state) {
        const auto backend = cnf::makeInternalBackend();
        std::vector<cnf::Literal> inputs;
        for (int i = 0; i < 40; ++i) {
            inputs.push_back(cnf::Literal::positive(backend->addVariable()));
        }
        // Demands that force at least 10 true inputs.
        for (int i = 0; i < 10; ++i) {
            backend->addClause({inputs[4 * i], inputs[4 * i + 1]});
        }
        if (useTotalizer) {
            const cnf::Totalizer totalizer(*backend, inputs);
            totalizer.addAtMost(*backend, 10);
        } else {
            cnf::addAtMostK(*backend, inputs, 10);
        }
        const auto status = backend->solve();
        benchmark::DoNotOptimize(status);
        if (status != cnf::SolveStatus::Sat) {
            state.SkipWithError("bound of 10 must be satisfiable");
        }
    }
    state.SetLabel(useTotalizer ? "totalizer" : "sequential-counter");
}
BENCHMARK(BM_CardinalityEncoding)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
