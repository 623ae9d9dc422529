#include "timing_backend.hpp"

#include <algorithm>
#include <chrono>
#include <string>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const char* verdictName(cnf::SolveStatus status) {
    switch (status) {
        case cnf::SolveStatus::Sat: return "SAT";
        case cnf::SolveStatus::Unsat: return "UNSAT";
        default: return "UNKNOWN";
    }
}

}  // namespace

SatTally& SatTally::operator+=(const SatTally& other) {
    solveCalls += other.solveCalls;
    satCalls += other.satCalls;
    unsatCalls += other.unsatCalls;
    unknownCalls += other.unknownCalls;
    solveSeconds += other.solveSeconds;
    satSeconds += other.satSeconds;
    unsatSeconds += other.unsatSeconds;
    solveMaxSeconds = std::max(solveMaxSeconds, other.solveMaxSeconds);
    conflicts += other.conflicts;
    propagations += other.propagations;
    decisions += other.decisions;
    restarts += other.restarts;
    peakLearnts = std::max(peakLearnts, other.peakLearnts);
    addClauseCalls += other.addClauseCalls;
    addClauseSeconds += other.addClauseSeconds;
    repeatSolves += other.repeatSolves;
    return *this;
}

TimingBackend::TimingBackend(std::unique_ptr<cnf::SatBackend> inner, SatTally& tally,
                             SpanRecorder* spans)
    : inner_(std::move(inner)), tally_(&tally), spans_(spans) {}

void TimingBackend::addClause(std::span<const cnf::Literal> literals) {
    const auto start = Clock::now();
    inner_->addClause(literals);
    tally_->addClauseSeconds += std::chrono::duration<double>(Clock::now() - start).count();
    ++tally_->addClauseCalls;
    satSinceLastClause_.clear();
}

cnf::SolveStatus TimingBackend::solve(std::span<const cnf::Literal> assumptions) {
    std::vector<std::int32_t> key;
    key.reserve(assumptions.size());
    for (const cnf::Literal l : assumptions) {
        key.push_back(l.code());
    }
    std::sort(key.begin(), key.end());
    if (satSinceLastClause_.contains(key)) {
        ++tally_->repeatSolves;
    }

    const etcs::sat::SolverStats before = inner_->stats();
    const auto start = Clock::now();
    const cnf::SolveStatus status = inner_->solve(assumptions);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    const etcs::sat::SolverStats& after = inner_->stats();

    const std::uint64_t conflicts = after.conflicts - before.conflicts;
    SatTally& t = *tally_;
    ++t.solveCalls;
    t.solveSeconds += seconds;
    t.solveMaxSeconds = std::max(t.solveMaxSeconds, seconds);
    t.conflicts += conflicts;
    t.propagations += after.propagations - before.propagations;
    t.decisions += after.decisions - before.decisions;
    t.restarts += after.restarts - before.restarts;
    t.peakLearnts = std::max(t.peakLearnts, after.peakLearnts);
    switch (status) {
        case cnf::SolveStatus::Sat:
            ++t.satCalls;
            t.satSeconds += seconds;
            satSinceLastClause_.insert(std::move(key));
            break;
        case cnf::SolveStatus::Unsat:
            ++t.unsatCalls;
            t.unsatSeconds += seconds;
            break;
        default: ++t.unknownCalls; break;
    }
    if (spans_ != nullptr) {
        spans_->leaf("sat.solve", start, seconds,
                     std::string("\"verdict\":\"") + verdictName(status) +
                         "\",\"assumptions\":" + std::to_string(assumptions.size()) +
                         ",\"conflicts\":" + std::to_string(conflicts));
    }
    return status;
}

}  // namespace perfbench
