/// \file clause.hpp
/// Arena-allocated clause storage.
///
/// Clauses live in one contiguous std::uint32_t arena and are addressed by
/// ClauseRef offsets, which keeps watcher lists compact and makes garbage
/// collection a linear copy.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"
#include "util/error.hpp"

namespace etcs::sat {

/// Offset of a clause inside the ClauseArena.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kInvalidClause = 0xFFFFFFFFu;

/// Learnt-clause tiers of the clause database (see Solver::reduceLearnedDb).
enum class LearntTier : std::uint8_t {
    Core,   ///< LBD <= 2: never deleted
    Tier2,  ///< LBD <= 6: kept while used since the last reduction
    Local,  ///< everything else: the lower-activity half is deleted
};

/// The tier a learnt clause of this LBD belongs to.
[[nodiscard]] constexpr LearntTier tierForLbd(std::uint32_t lbd) noexcept {
    return lbd <= 2 ? LearntTier::Core : lbd <= 6 ? LearntTier::Tier2 : LearntTier::Local;
}

/// A non-owning view of a clause stored in a ClauseArena.
///
/// Layout in the arena:
///   word 0: (size << 2) | relocated << 1 | learnt
///   word 1: activity as float bits (learnt clauses only)
///   word 2: (lbd << 3) | used << 2 | tier (learnt clauses only)
///   then: literal codes
/// A relocated clause (see ClauseArena::relocate) keeps only its header;
/// word 1 then holds the clause's reference in the new arena.
class Clause {
public:
    Clause(std::uint32_t* base) noexcept : base_(base) {}

    [[nodiscard]] std::uint32_t size() const noexcept { return base_[0] >> 2; }
    [[nodiscard]] bool learnt() const noexcept { return (base_[0] & 1) != 0; }

    [[nodiscard]] Literal operator[](std::uint32_t i) const noexcept {
        return Literal::fromCode(static_cast<std::int32_t>(lits()[i]));
    }
    void setLiteral(std::uint32_t i, Literal l) noexcept {
        lits()[i] = static_cast<std::uint32_t>(l.code());
    }

    /// Drop the literal at position i by swapping in the last literal.
    void removeLiteral(std::uint32_t i) noexcept {
        lits()[i] = lits()[size() - 1];
        base_[0] -= 4;  // size -= 1, flags preserved
    }

    [[nodiscard]] float activity() const noexcept {
        return std::bit_cast<float>(base_[1]);
    }
    void setActivity(float a) noexcept { base_[1] = std::bit_cast<std::uint32_t>(a); }

    /// Literal block distance: distinct decision levels among the literals
    /// when the clause was learnt, lowered by later conflict analyses.
    [[nodiscard]] std::uint32_t lbd() const noexcept { return base_[2] >> 3; }
    void setLbd(std::uint32_t lbd) noexcept { base_[2] = (lbd << 3) | (base_[2] & 7u); }
    /// Stored rather than derived from lbd() and used(): a tier-2 clause
    /// demoted for going unused stays local until a smaller LBD promotes it,
    /// even if it is used again. Deriving the tier instead changes the
    /// solver's search on the corridor formulas.
    [[nodiscard]] LearntTier tier() const noexcept {
        return static_cast<LearntTier>(base_[2] & 3u);
    }
    void setTier(LearntTier t) noexcept {
        base_[2] = (base_[2] & ~3u) | static_cast<std::uint32_t>(t);
    }
    /// Took part in a conflict analysis since the last reduction.
    [[nodiscard]] bool used() const noexcept { return (base_[2] & 4u) != 0; }
    void setUsed(bool used) noexcept { base_[2] = (base_[2] & ~4u) | (used ? 4u : 0u); }

    /// Words needed to store a clause of `size` literals.
    [[nodiscard]] static std::uint32_t words(std::uint32_t size, bool learnt) noexcept {
        return 1 + (learnt ? 2 : 0) + size;
    }

private:
    friend class ClauseArena;

    [[nodiscard]] bool relocated() const noexcept { return (base_[0] & 2) != 0; }
    [[nodiscard]] std::uint32_t relocation() const noexcept { return base_[1]; }

    [[nodiscard]] std::uint32_t* lits() const noexcept { return base_ + 1 + (learnt() ? 2 : 0); }

    std::uint32_t* base_;
};

/// Bump allocator for clauses with mark-and-copy garbage collection support.
class ClauseArena {
public:
    /// Allocate a clause; returns its reference. A learnt clause starts with
    /// zero activity and the given LBD, in the tier that LBD selects.
    ClauseRef allocate(std::span<const Literal> lits, bool learnt, std::uint32_t lbd = 0) {
        ETCS_REQUIRE(lits.size() >= 2);
        const auto need = Clause::words(static_cast<std::uint32_t>(lits.size()), learnt);
        const ClauseRef ref = static_cast<ClauseRef>(storage_.size());
        storage_.resize(storage_.size() + need);
        std::uint32_t* base = storage_.data() + ref;
        base[0] = (static_cast<std::uint32_t>(lits.size()) << 2) | (learnt ? 1u : 0u);
        std::uint32_t* out = base + 1;
        if (learnt) {
            *out++ = std::bit_cast<std::uint32_t>(0.0f);
            *out++ = (lbd << 3) | static_cast<std::uint32_t>(tierForLbd(lbd));
        }
        for (Literal l : lits) {
            *out++ = static_cast<std::uint32_t>(l.code());
        }
        ++liveClauses_;
        return ref;
    }

    [[nodiscard]] Clause view(ClauseRef ref) noexcept { return Clause(storage_.data() + ref); }
    [[nodiscard]] Clause view(ClauseRef ref) const noexcept {
        // Clause only mutates through non-const methods; this const overload
        // is used for read-only inspection.
        return Clause(const_cast<std::uint32_t*>(storage_.data() + ref));
    }

    void markFreed(ClauseRef ref) noexcept {
        wasted_ += Clause::words(view(ref).size(), view(ref).learnt());
        --liveClauses_;
    }

    /// Copy the clause at `ref` into `to` on the first call and leave a
    /// forwarding mark in its old header; every later call for the same
    /// `ref` returns the reference of that one copy.
    ClauseRef relocate(ClauseRef ref, ClauseArena& to) {
        Clause c = view(ref);
        if (c.relocated()) {
            return c.relocation();
        }
        const std::uint32_t* base = storage_.data() + ref;
        const ClauseRef moved = static_cast<ClauseRef>(to.storage_.size());
        to.storage_.insert(to.storage_.end(), base, base + Clause::words(c.size(), c.learnt()));
        ++to.liveClauses_;
        c.base_[0] |= 2u;
        c.base_[1] = moved;
        return moved;
    }

    /// Reserve room for `words` words (used before a compaction).
    void reserve(std::size_t words) { storage_.reserve(words); }

    [[nodiscard]] std::size_t wastedWords() const noexcept { return wasted_; }
    [[nodiscard]] std::size_t totalWords() const noexcept { return storage_.size(); }
    [[nodiscard]] std::size_t liveClauses() const noexcept { return liveClauses_; }

private:
    std::vector<std::uint32_t> storage_;
    std::size_t wasted_ = 0;
    std::size_t liveClauses_ = 0;
};

}  // namespace etcs::sat
