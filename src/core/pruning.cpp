#include "core/pruning.hpp"

#include <utility>
#include <vector>

namespace etcs::core {

namespace {

lint::ReachAnalysis buildAnalysis(const Instance& instance) {
    std::vector<lint::ReachRun> runs;
    runs.reserve(instance.numRuns());
    for (const DiscreteRun& run : instance.runs()) {
        lint::ReachRun r;
        r.originSegment = run.originSegment;
        r.departureStep = run.departureStep;
        r.lengthSegments = run.lengthSegments;
        r.speedSegments = run.speedSegments;
        r.stops.reserve(run.stops.size());
        for (const DiscreteStop& stop : run.stops) {
            r.stops.push_back(lint::ReachStop{stop.segment, stop.arrivalStep, stop.dwellSteps});
        }
        runs.push_back(std::move(r));
    }
    return lint::ReachAnalysis(instance.graph(), std::move(runs), instance.horizonSteps());
}

}  // namespace

PruneTable::PruneTable(const Instance& instance) : analysis_(buildAnalysis(instance)) {}

}  // namespace etcs::core
