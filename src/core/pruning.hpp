/// \file pruning.hpp
/// Bridge between the lint-layer reachability analysis (lint/reach.hpp) and
/// the core encoder: runs the fixpoint over an already-discretized Instance
/// and answers per-cell pruning queries for EncoderOptions::pruneUnreachable.
///
/// Soundness (docs/REACHABILITY.md): every cell the table rules out is
/// absent from some satisfiability-preserving transformation of every model,
/// so skipping its variable (and thereby every clause that would mention it)
/// preserves the SAT/UNSAT verdict and the optimal objectives.
#pragma once

#include "core/instance.hpp"
#include "lint/reach.hpp"

namespace etcs::core {

class PruneTable {
public:
    /// Runs the reachability fixpoint for every run of `instance` (which the
    /// Instance constructor has already validated: speed >= 1, departures
    /// and arrivals inside the horizon). Analysis run indices equal
    /// instance run indices.
    explicit PruneTable(const Instance& instance);

    /// Sound per-cell verdict; false means the encoder may drop the cell.
    [[nodiscard]] bool possible(std::size_t run, SegmentId segment, int step) const {
        return analysis_.possible(run, segment, step);
    }

    /// Non-empty violations refute a scheduled obligation: the encoded
    /// instance is UNSAT without solving (used by the task fail-fast gate).
    [[nodiscard]] bool provablyInfeasible() const noexcept {
        return analysis_.provablyInfeasible();
    }

    [[nodiscard]] const lint::ReachAnalysis& analysis() const noexcept { return analysis_; }

private:
    lint::ReachAnalysis analysis_;
};

}  // namespace etcs::core
