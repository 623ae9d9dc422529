/// \file provenance.hpp
/// Clause provenance: a side-table mapping clause ids of an encoding to the
/// domain entity that emitted them — (constraint family, run, time step,
/// TTD section, segment). The encoder tags contiguous ranges of clauses as
/// it emits them; the table stores one run-length span per tagging context,
/// so lookups are a binary search and memory stays proportional to the
/// number of contexts, not the number of clauses.
///
/// Downstream consumers (see explain.hpp and docs/EXPLAIN.md):
///  * proof-core attribution — DRAT core clause indices map back to the
///    trains/sections/steps whose constraints refute the instance;
///  * per-entity encoder accounting — clauses per run / TTD from the spans;
///  * selector-group core shrinking on a warm incremental solver.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace etcs::core {

/// Where a clause came from. Fields not applicable to a family stay -1;
/// `family` points at a string literal (the encoder's family names, see
/// docs/OBSERVABILITY.md) and is valid for the program's lifetime.
struct ClauseProvenance {
    std::string_view family;
    int run = -1;      ///< first (or only) run involved
    int run2 = -1;     ///< second run for pairwise constraints
    int step = -1;     ///< time step (-1: step-independent)
    int ttd = -1;      ///< TTD section (vss_separation)
    int segment = -1;  ///< segment (schedule pins, separation witness)

    friend bool operator==(const ClauseProvenance&, const ClauseProvenance&) = default;
};

/// Run-length side-table keyed by clause id (the backend's clause count at
/// emission time). Spans are appended in strictly increasing clause order;
/// gaps between spans are untagged (auxiliary/structural clauses).
class ProvenanceTable {
public:
    /// Begin a tagging context at `clauseId`: clauses emitted from here on
    /// carry `record`. Implicitly closes any open context first; a context
    /// that ends up covering zero clauses is discarded.
    void open(std::size_t clauseId, const ClauseProvenance& record);

    /// Close the open context at `clauseId` (clauses [openAt, clauseId)).
    void close(std::size_t clauseId);

    /// Provenance of a clause, or nullptr when the clause is untagged.
    [[nodiscard]] const ClauseProvenance* lookup(std::size_t clauseId) const;

    /// Index of the span covering `clauseId` (-1: untagged). Span indices
    /// are stable and dense — usable as group ids for core shrinking.
    [[nodiscard]] int spanOf(std::size_t clauseId) const;

    [[nodiscard]] std::size_t numSpans() const noexcept { return spans_.size(); }
    [[nodiscard]] const ClauseProvenance& record(std::size_t span) const {
        return spans_.at(span).record;
    }
    [[nodiscard]] std::size_t spanFirstClause(std::size_t span) const {
        return spans_.at(span).firstClause;
    }
    [[nodiscard]] std::size_t spanClauseCount(std::size_t span) const {
        return spans_.at(span).clauseCount;
    }

    /// Total number of clauses covered by some span.
    [[nodiscard]] std::size_t taggedClauses() const noexcept { return taggedClauses_; }

private:
    struct Span {
        std::size_t firstClause = 0;
        std::size_t clauseCount = 0;
        ClauseProvenance record;
    };

    std::vector<Span> spans_;
    bool openActive_ = false;
    std::size_t openAt_ = 0;
    ClauseProvenance openRecord_;
    std::size_t taggedClauses_ = 0;
};

/// "family run=0 run2=1 step=4 ttd=2 segment=7" — stable debug rendering
/// (only the fields that are set); used by tests and trace events.
[[nodiscard]] std::string toString(const ClauseProvenance& record);

}  // namespace etcs::core
