/// \file timing_backend.hpp
/// A forwarding cnf::SatBackend that times and counts every call into the
/// SAT layer. The traced run injects it through TaskOptions::backendFactory
/// around cnf::makeInternalBackend(), so the tasks under test run unchanged
/// while the benchmark learns where their solver time goes.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "cnf/backend.hpp"
#include "spans.hpp"

namespace perfbench {

namespace cnf = etcs::cnf;

/// SAT-layer totals accumulated by every TimingBackend sharing the tally.
struct SatTally {
    std::uint64_t solveCalls = 0;
    std::uint64_t satCalls = 0;
    std::uint64_t unsatCalls = 0;
    std::uint64_t unknownCalls = 0;
    double solveSeconds = 0.0;
    double satSeconds = 0.0;
    double unsatSeconds = 0.0;
    double solveMaxSeconds = 0.0;
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t decisions = 0;
    std::uint64_t restarts = 0;
    std::uint64_t peakLearnts = 0;  ///< largest learnt DB of any one backend
    std::uint64_t addClauseCalls = 0;
    double addClauseSeconds = 0.0;
    /// Solves whose assumption set already came back SAT with no clause
    /// added since: the answer was known, so the search was wasted work.
    std::uint64_t repeatSolves = 0;

    /// Add another tally's totals (maxima stay maxima).
    SatTally& operator+=(const SatTally& other);
};

class TimingBackend final : public cnf::SatBackend {
public:
    /// `tally` and `spans` must outlive the backend; `spans` may be null.
    TimingBackend(std::unique_ptr<cnf::SatBackend> inner, SatTally& tally,
                  SpanRecorder* spans);

    cnf::Var addVariable() override { return inner_->addVariable(); }
    [[nodiscard]] int numVariables() const override { return inner_->numVariables(); }
    [[nodiscard]] std::size_t numClauses() const override { return inner_->numClauses(); }
    void addClause(std::span<const cnf::Literal> literals) override;
    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override;
    [[nodiscard]] bool modelValue(cnf::Literal l) const override {
        return inner_->modelValue(l);
    }
    [[nodiscard]] std::vector<cnf::Literal> conflictCore() const override {
        return inner_->conflictCore();
    }
    [[nodiscard]] const etcs::sat::SolverStats& stats() const override {
        return inner_->stats();
    }
    bool setProgressCallback(etcs::sat::ProgressCallback callback,
                             std::uint64_t everyConflicts) override {
        return inner_->setProgressCallback(std::move(callback), everyConflicts);
    }
    bool setProofWriter(etcs::sat::ProofWriter* proof) override {
        return inner_->setProofWriter(proof);
    }
    [[nodiscard]] std::string name() const override { return "timed(" + inner_->name() + ")"; }

private:
    std::unique_ptr<cnf::SatBackend> inner_;
    SatTally* tally_;
    SpanRecorder* spans_;
    /// Sorted assumption sets answered SAT since the last added clause.
    std::set<std::vector<std::int32_t>> satSinceLastClause_;
};

}  // namespace perfbench
