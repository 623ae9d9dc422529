/// \file repeat_counting_backend.hpp
/// Forwarding cnf::SatBackend wrappers for tests that inspect how the library
/// uses its backend. `ForwardingBackend` passes every call to an inner
/// backend; `RepeatCountingBackend` additionally counts *repeated solves*:
/// solves whose sorted assumption set was already answered SAT with no clause
/// added since. Such a solve's answer was known before it ran (the rule
/// perfbench reports as `opt.repeat_solves`). Inject it into a task through
/// `TaskOptions::backendFactory` with `repeatCountingFactory`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::test {

class ForwardingBackend : public cnf::SatBackend {
public:
    explicit ForwardingBackend(std::unique_ptr<cnf::SatBackend> inner)
        : inner_(std::move(inner)) {}

    // Keep the base's initializer_list conveniences visible.
    using cnf::SatBackend::addClause;
    using cnf::SatBackend::solve;

    cnf::Var addVariable() override { return inner_->addVariable(); }
    [[nodiscard]] int numVariables() const override { return inner_->numVariables(); }
    [[nodiscard]] std::size_t numClauses() const override { return inner_->numClauses(); }
    void addClause(std::span<const cnf::Literal> literals) override {
        inner_->addClause(literals);
    }
    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override {
        return inner_->solve(assumptions);
    }
    [[nodiscard]] bool modelValue(cnf::Literal l) const override {
        return inner_->modelValue(l);
    }
    [[nodiscard]] std::vector<cnf::Literal> conflictCore() const override {
        return inner_->conflictCore();
    }
    [[nodiscard]] const sat::SolverStats& stats() const override { return inner_->stats(); }
    bool setProgressCallback(sat::ProgressCallback callback,
                             std::uint64_t everyConflicts) override {
        return inner_->setProgressCallback(std::move(callback), everyConflicts);
    }
    bool setProofWriter(sat::ProofWriter* proof) override {
        return inner_->setProofWriter(proof);
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

private:
    std::unique_ptr<cnf::SatBackend> inner_;
};

/// Totals shared by every RepeatCountingBackend a factory creates.
struct SolveTally {
    std::uint64_t solves = 0;
    std::uint64_t repeats = 0;
};

class RepeatCountingBackend final : public ForwardingBackend {
public:
    /// `tally` must outlive the backend.
    RepeatCountingBackend(std::unique_ptr<cnf::SatBackend> inner, SolveTally& tally)
        : ForwardingBackend(std::move(inner)), tally_(&tally) {}

    using ForwardingBackend::addClause;
    using ForwardingBackend::solve;

    void addClause(std::span<const cnf::Literal> literals) override {
        ForwardingBackend::addClause(literals);
        satSinceLastClause_.clear();
    }

    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override {
        std::vector<std::int32_t> key;
        key.reserve(assumptions.size());
        for (const cnf::Literal l : assumptions) {
            key.push_back(l.code());
        }
        std::sort(key.begin(), key.end());
        ++tally_->solves;
        if (satSinceLastClause_.contains(key)) {
            ++tally_->repeats;
        }
        const cnf::SolveStatus status = ForwardingBackend::solve(assumptions);
        if (status == cnf::SolveStatus::Sat) {
            satSinceLastClause_.insert(std::move(key));
        }
        return status;
    }

private:
    SolveTally* tally_;
    std::set<std::vector<std::int32_t>> satSinceLastClause_;
};

/// A `TaskOptions::backendFactory` wrapping the internal backend.
inline std::function<std::unique_ptr<cnf::SatBackend>()> repeatCountingFactory(
    SolveTally& tally) {
    return [&tally] {
        return std::make_unique<RepeatCountingBackend>(cnf::makeInternalBackend(), tally);
    };
}

}  // namespace etcs::test
