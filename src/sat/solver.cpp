#include "sat/solver.hpp"

#include <algorithm>

#include "sat/proof.hpp"

namespace etcs::sat {

namespace {

// Restart and reduction constants (see solver.hpp).
constexpr std::uint64_t kMinConflictsBetweenRestarts = 50;
constexpr std::uint64_t kBlockingStartsAfter = 10000;
constexpr double kBlockingTrailFactor = 1.4;

}  // namespace

// ---------------------------------------------------------------- heap ----

void Solver::VarOrderHeap::insert(Var v) {
    grow(v);
    if (index_[v] >= 0) {
        return;
    }
    index_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    percolateUp(index_[v]);
}

void Solver::VarOrderHeap::increased(Var v) {
    if (contains(v)) {
        percolateUp(index_[v]);
    }
}

Var Solver::VarOrderHeap::removeMax() {
    const Var top = heap_.front();
    heap_.front() = heap_.back();
    index_[heap_.front()] = 0;
    heap_.pop_back();
    index_[top] = -1;
    if (!heap_.empty()) {
        percolateDown(0);
    }
    return top;
}

void Solver::VarOrderHeap::rebuild(const std::vector<Var>& vars) {
    for (Var v : heap_) {
        index_[v] = -1;
    }
    heap_.clear();
    for (Var v : vars) {
        insert(v);
    }
}

void Solver::VarOrderHeap::percolateUp(int pos) {
    const Var v = heap_[pos];
    while (pos > 0) {
        const int parent = (pos - 1) >> 1;
        if (!less(heap_[parent], v)) {
            break;
        }
        heap_[pos] = heap_[parent];
        index_[heap_[pos]] = pos;
        pos = parent;
    }
    heap_[pos] = v;
    index_[v] = pos;
}

void Solver::VarOrderHeap::percolateDown(int pos) {
    const Var v = heap_[pos];
    const int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * pos + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && less(heap_[child], heap_[child + 1])) {
            ++child;
        }
        if (!less(v, heap_[child])) {
            break;
        }
        heap_[pos] = heap_[child];
        index_[heap_[pos]] = pos;
        pos = child;
    }
    heap_[pos] = v;
    index_[v] = pos;
}

// -------------------------------------------------------------- solver ----

Var Solver::addVariable() {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(Value::Undef);
    level_.push_back(0);
    reason_.push_back(kInvalidClause);
    activity_.push_back(0.0);
    polarity_.push_back(options_.defaultPolarity ? 1 : 0);
    seen_.push_back(0);
    watches_.emplace_back();  // positive literal
    watches_.emplace_back();  // negative literal
    order_.insert(v);
    return v;
}

bool Solver::addClause(std::span<const Literal> literals) {
    ETCS_REQUIRE_MSG(decisionLevel() == 0, "clauses may only be added at the root level");
    if (!ok_) {
        return false;
    }

    // Normalize: sort, deduplicate, drop root-false literals, detect
    // tautologies and root-satisfied clauses.
    std::vector<Literal> lits(literals.begin(), literals.end());
    std::sort(lits.begin(), lits.end());
    Literal previous = kUndefLiteral;
    std::size_t out = 0;
    for (Literal l : lits) {
        ETCS_REQUIRE_MSG(l.valid() && l.var() < numVariables(), "literal references unknown variable");
        if (value(l) == Value::True || l == ~previous) {
            return true;  // satisfied at root / tautology
        }
        if (value(l) == Value::False || l == previous) {
            continue;  // falsified at root / duplicate
        }
        lits[out++] = l;
        previous = l;
    }
    lits.resize(out);

    // The normalized clause is propagation-derivable from the input plus
    // the root-level facts, so logging it keeps the proof checkable.
    if (proof_ != nullptr && lits.size() != literals.size()) {
        proof_->addClause(lits);
    }

    if (lits.empty()) {
        ok_ = false;
        return false;
    }
    if (lits.size() == 1) {
        uncheckedEnqueue(lits[0], kInvalidClause);
        ok_ = (propagate() == kInvalidClause);
        if (!ok_ && proof_ != nullptr) {
            proof_->addEmptyClause();
        }
        return ok_;
    }
    const ClauseRef ref = arena_.allocate(lits, /*learnt=*/false);
    clauses_.push_back(ref);
    attachClause(ref);
    return true;
}

void Solver::attachClause(ClauseRef ref) {
    const Clause c = arena_.view(ref);
    watches_[(~c[0]).code()].push_back(Watcher{ref, c[1]});
    watches_[(~c[1]).code()].push_back(Watcher{ref, c[0]});
}

void Solver::detachClause(ClauseRef ref) {
    const Clause c = arena_.view(ref);
    for (Literal w : {~c[0], ~c[1]}) {
        auto& list = watches_[w.code()];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].clause == ref) {
                list[i] = list.back();
                list.pop_back();
                break;
            }
        }
    }
}

bool Solver::locked(ClauseRef ref) const {
    const Clause c = arena_.view(ref);
    const Literal first = c[0];
    return value(first) == Value::True && reason_[first.var()] == ref &&
           level_[first.var()] > 0;
}

void Solver::uncheckedEnqueue(Literal p, ClauseRef from) {
    assigns_[p.var()] = fromBool(!p.sign());
    level_[p.var()] = decisionLevel();
    reason_[p.var()] = from;
    trail_.push_back(p);
}

ClauseRef Solver::propagate() {
    ClauseRef conflict = kInvalidClause;
    while (propagationHead_ < static_cast<int>(trail_.size())) {
        const Literal p = trail_[propagationHead_++];
        ++stats_.propagations;
        auto& ws = watches_[p.code()];
        std::size_t keep = 0;
        std::size_t i = 0;
        const std::size_t n = ws.size();
        for (; i < n; ++i) {
            const Watcher w = ws[i];
            if (value(w.blocker) == Value::True) {
                ws[keep++] = w;
                continue;
            }
            Clause c = arena_.view(w.clause);
            // Ensure the falsified literal ~p sits at position 1.
            const Literal notP = ~p;
            if (c[0] == notP) {
                c.setLiteral(0, c[1]);
                c.setLiteral(1, notP);
            }
            const Literal first = c[0];
            if (first != w.blocker && value(first) == Value::True) {
                ws[keep++] = Watcher{w.clause, first};
                continue;
            }
            // Look for a replacement watch.
            bool foundWatch = false;
            const std::uint32_t size = c.size();
            for (std::uint32_t k = 2; k < size; ++k) {
                if (value(c[k]) != Value::False) {
                    c.setLiteral(1, c[k]);
                    c.setLiteral(k, notP);
                    watches_[(~c[1]).code()].push_back(Watcher{w.clause, first});
                    foundWatch = true;
                    break;
                }
            }
            if (foundWatch) {
                continue;
            }
            // Clause is unit or conflicting.
            ws[keep++] = Watcher{w.clause, first};
            if (value(first) == Value::False) {
                conflict = w.clause;
                propagationHead_ = static_cast<int>(trail_.size());
                // Copy the remaining watchers back.
                for (std::size_t r = i + 1; r < n; ++r) {
                    ws[keep++] = ws[r];
                }
                break;
            }
            uncheckedEnqueue(first, w.clause);
        }
        ws.resize(keep);
        if (conflict != kInvalidClause) {
            break;
        }
    }
    return conflict;
}

void Solver::cancelUntil(int level) {
    if (decisionLevel() <= level) {
        return;
    }
    for (int i = static_cast<int>(trail_.size()) - 1; i >= trailLim_[level]; --i) {
        const Var v = trail_[i].var();
        assigns_[v] = Value::Undef;
        reason_[v] = kInvalidClause;
        if (options_.phaseSaving) {
            polarity_[v] = trail_[i].sign() ? 1 : 0;
        }
        order_.insert(v);
    }
    trail_.resize(trailLim_[level]);
    trailLim_.resize(level);
    propagationHead_ = static_cast<int>(trail_.size());
}

Literal Solver::pickBranchLiteral() {
    while (!order_.empty()) {
        // Peek via removeMax; skip assigned variables.
        const Var v = order_.removeMax();
        if (value(v) == Value::Undef) {
            return Literal(v, polarity_[v] != 0);
        }
    }
    return kUndefLiteral;
}

void Solver::bumpVariable(Var v) {
    activity_[v] += variableIncrement_;
    if (activity_[v] > 1e100) {
        rescaleVariableActivity();
    }
    order_.increased(v);
}

void Solver::rescaleVariableActivity() {
    for (double& a : activity_) {
        a *= 1e-100;
    }
    variableIncrement_ *= 1e-100;
}

void Solver::bumpClause(Clause c) {
    c.setActivity(static_cast<float>(c.activity() + clauseIncrement_));
    if (c.activity() > 1e20f) {
        rescaleClauseActivity();
    }
}

void Solver::rescaleClauseActivity() {
    for (ClauseRef ref : learnts_) {
        Clause c = arena_.view(ref);
        c.setActivity(c.activity() * 1e-20f);
    }
    clauseIncrement_ *= 1e-20;
}

template <typename Literals>
std::uint32_t Solver::computeLbd(const Literals& literals) {
    ++lbdStamp_;
    std::uint32_t lbd = 0;
    for (std::uint32_t i = 0; i < literals.size(); ++i) {
        const int level = level_[literals[i].var()];
        if (level > 0 && levelStamp_[level] != lbdStamp_) {
            levelStamp_[level] = lbdStamp_;
            ++lbd;
        }
    }
    return lbd;
}

void Solver::analyze(ClauseRef conflict, std::vector<Literal>& outLearnt,
                     int& outBacktrackLevel, std::uint32_t& outLbd) {
    if (levelStamp_.size() <= static_cast<std::size_t>(decisionLevel())) {
        levelStamp_.resize(static_cast<std::size_t>(decisionLevel()) + 1, 0);
    }
    int counter = 0;
    Literal p = kUndefLiteral;
    outLearnt.clear();
    outLearnt.push_back(kUndefLiteral);  // placeholder for the asserting literal
    int index = static_cast<int>(trail_.size()) - 1;

    ClauseRef reasonRef = conflict;
    do {
        Clause c = arena_.view(reasonRef);
        if (c.learnt()) {
            bumpClause(c);
            c.setUsed(true);
            if (c.tier() != LearntTier::Core) {
                const std::uint32_t lbd = computeLbd(c);
                if (lbd < c.lbd()) {
                    c.setLbd(lbd);
                    c.setTier(std::min(c.tier(), tierForLbd(lbd)));
                }
            }
        }
        const std::uint32_t start = (p == kUndefLiteral) ? 0 : 1;
        for (std::uint32_t j = start; j < c.size(); ++j) {
            const Literal q = c[j];
            const Var v = q.var();
            if (seen_[v] == 0 && level_[v] > 0) {
                bumpVariable(v);
                seen_[v] = 1;
                if (level_[v] >= decisionLevel()) {
                    ++counter;
                } else {
                    outLearnt.push_back(q);
                }
            }
        }
        // Select the next literal on the current level to resolve on.
        while (seen_[trail_[index--].var()] == 0) {
        }
        p = trail_[index + 1];
        reasonRef = reason_[p.var()];
        seen_[p.var()] = 0;
        --counter;
    } while (counter > 0);
    outLearnt[0] = ~p;

    // Conflict-clause minimization: drop literals implied by the rest.
    analyzeToClear_.assign(outLearnt.begin(), outLearnt.end());
    std::size_t kept = 1;
    if (options_.minimizeLearned) {
        std::uint32_t abstractLevels = 0;
        for (std::size_t i = 1; i < outLearnt.size(); ++i) {
            abstractLevels |= abstractLevel(outLearnt[i].var());
        }
        for (std::size_t i = 1; i < outLearnt.size(); ++i) {
            const Literal q = outLearnt[i];
            if (reason_[q.var()] == kInvalidClause || !literalRedundant(q, abstractLevels)) {
                outLearnt[kept++] = q;
            } else {
                ++stats_.minimizedLiterals;
            }
        }
    } else {
        kept = outLearnt.size();
    }
    outLearnt.resize(kept);

    // Find the backtrack level: the highest level among the non-asserting
    // literals, which must be placed at position 1 (second watch).
    if (outLearnt.size() == 1) {
        outBacktrackLevel = 0;
    } else {
        std::size_t maxIndex = 1;
        for (std::size_t i = 2; i < outLearnt.size(); ++i) {
            if (level_[outLearnt[i].var()] > level_[outLearnt[maxIndex].var()]) {
                maxIndex = i;
            }
        }
        std::swap(outLearnt[1], outLearnt[maxIndex]);
        outBacktrackLevel = level_[outLearnt[1].var()];
    }

    for (Literal l : analyzeToClear_) {
        if (l.valid()) {
            seen_[l.var()] = 0;
        }
    }
    outLbd = computeLbd(outLearnt);
    stats_.learnedLiterals += outLearnt.size();
}

bool Solver::literalRedundant(Literal p, std::uint32_t abstractLevels) {
    analyzeStack_.clear();
    analyzeStack_.push_back(p);
    const std::size_t clearTop = analyzeToClear_.size();
    while (!analyzeStack_.empty()) {
        const Literal q = analyzeStack_.back();
        analyzeStack_.pop_back();
        const ClauseRef reasonRef = reason_[q.var()];
        // Redundancy candidates always have a reason clause.
        const Clause c = arena_.view(reasonRef);
        for (std::uint32_t j = 1; j < c.size(); ++j) {
            const Literal r = c[j];
            const Var v = r.var();
            if (seen_[v] != 0 || level_[v] == 0) {
                continue;
            }
            if (reason_[v] == kInvalidClause || (abstractLevel(v) & abstractLevels) == 0) {
                // Reached a decision or a level outside the learnt clause:
                // p is not redundant. Undo the marks made in this walk.
                for (std::size_t k = clearTop; k < analyzeToClear_.size(); ++k) {
                    seen_[analyzeToClear_[k].var()] = 0;
                }
                analyzeToClear_.resize(clearTop);
                return false;
            }
            seen_[v] = 1;
            analyzeStack_.push_back(r);
            analyzeToClear_.push_back(r);
        }
    }
    return true;
}

void Solver::analyzeFinal(Literal failedAssumption) {
    conflictCore_.clear();
    conflictCore_.push_back(failedAssumption);
    if (decisionLevel() == 0) {
        return;
    }
    const Var failedVar = failedAssumption.var();
    seen_[failedVar] = 1;
    for (int i = static_cast<int>(trail_.size()) - 1; i >= trailLim_[0]; --i) {
        const Var v = trail_[i].var();
        if (seen_[v] == 0) {
            continue;
        }
        if (reason_[v] == kInvalidClause) {
            // A decision inside the assumption prefix is an assumption. Note
            // that this can be ~failedAssumption itself when the assumption
            // set contains a complementary pair.
            conflictCore_.push_back(trail_[i]);
        } else {
            const Clause c = arena_.view(reason_[v]);
            for (std::uint32_t j = 1; j < c.size(); ++j) {
                if (level_[c[j].var()] > 0) {
                    seen_[c[j].var()] = 1;
                }
            }
        }
        seen_[v] = 0;
    }
    seen_[failedVar] = 0;
}

void Solver::reduceLearnedDb() {
    ++reductions_;
    lastReductionAt_ = stats_.conflicts;
    // Core clauses stay. Tier-2 clauses unused since the last reduction are
    // demoted to the local tier first; then the lower-activity half of the
    // local clauses is deleted.
    std::vector<std::size_t> local;
    for (std::size_t i = 0; i < learnts_.size(); ++i) {
        Clause c = arena_.view(learnts_[i]);
        if (c.tier() == LearntTier::Tier2 && !c.used()) {
            c.setTier(LearntTier::Local);
        }
        if (c.tier() == LearntTier::Local) {
            local.push_back(i);
        }
        c.setUsed(false);
    }
    std::sort(local.begin(), local.end(), [this](std::size_t a, std::size_t b) {
        const float activityA = arena_.view(learnts_[a]).activity();
        const float activityB = arena_.view(learnts_[b]).activity();
        return activityA != activityB ? activityA < activityB : a < b;
    });
    std::vector<char> removed(learnts_.size(), 0);
    std::vector<Literal> scratch;
    for (std::size_t k = 0; k < local.size() / 2; ++k) {
        const ClauseRef ref = learnts_[local[k]];
        if (locked(ref)) {
            continue;
        }
        const Clause c = arena_.view(ref);
        if (proof_ != nullptr) {
            // A clause justifying a root-level implication must leave
            // that fact derivable: emit the unit before deleting.
            const Literal first = c[0];
            if (value(first) == Value::True && level_[first.var()] == 0 &&
                reason_[first.var()] == ref) {
                proof_->addClause({first});
                reason_[first.var()] = kInvalidClause;
            }
            scratch.clear();
            for (std::uint32_t j = 0; j < c.size(); ++j) {
                scratch.push_back(c[j]);
            }
            proof_->deleteClause(scratch);
        }
        detachClause(ref);
        arena_.markFreed(ref);
        removed[local[k]] = 1;
        ++stats_.removedClauses;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < learnts_.size(); ++i) {
        if (removed[i] == 0) {
            learnts_[kept++] = learnts_[i];
        }
    }
    learnts_.resize(kept);
}

void Solver::compactClauseDatabase() {
    ++stats_.garbageCollections;
    ClauseArena fresh;
    fresh.reserve(arena_.totalWords() - arena_.wastedWords());
    // Each live clause is copied once; its old header then forwards every
    // further reference to the copy.
    for (ClauseRef& ref : clauses_) {
        ref = arena_.relocate(ref, fresh);
    }
    for (ClauseRef& ref : learnts_) {
        ref = arena_.relocate(ref, fresh);
    }
    // Watch lists only reference attached (live) clauses.
    for (auto& watchers : watches_) {
        for (Watcher& w : watchers) {
            w.clause = arena_.relocate(w.clause, fresh);
        }
    }
    // Reasons of assignments above level 0 are locked (live). Root-level
    // implications never have their reasons inspected again, so drop them
    // rather than keeping possibly-freed clauses alive.
    for (Var v = 0; v < numVariables(); ++v) {
        if (assigns_[v] == Value::Undef || reason_[v] == kInvalidClause) {
            continue;
        }
        if (level_[v] == 0) {
            reason_[v] = kInvalidClause;
        } else {
            reason_[v] = arena_.relocate(reason_[v], fresh);
        }
    }
    arena_ = std::move(fresh);
}

Solver::LearntClauseInfo Solver::learntClause(std::size_t i) const {
    const Clause c = arena_.view(learnts_[i]);
    LearntClauseInfo info{{}, c.lbd(), c.tier()};
    for (std::uint32_t j = 0; j < c.size(); ++j) {
        info.literals.push_back(c[j]);
    }
    return info;
}

void Solver::diversify(std::uint64_t seed, bool randomizePhases) {
    ETCS_REQUIRE_MSG(decisionLevel() == 0, "diversify only at the root level");
    // SplitMix64: cheap, deterministic, good bit diffusion for tiny streams.
    const auto next = [&seed]() {
        seed += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = seed;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    std::vector<Var> vars;
    vars.reserve(assigns_.size());
    for (Var v = 0; v < numVariables(); ++v) {
        // Activities stay far below the bump increment, so the noise only
        // breaks ties until real conflicts take over.
        activity_[v] = static_cast<double>(next() % 1024) * 1e-9;
        if (randomizePhases) {
            polarity_[v] = (next() & 1) != 0 ? 1 : 0;
        }
        vars.push_back(v);
    }
    order_.rebuild(vars);
}

void Solver::exportLearntClause(const std::vector<Literal>& learnt, std::uint32_t lbd) {
    if (learnt.size() > static_cast<std::size_t>(options_.shareMaxSize)) {
        return;
    }
    if (options_.shareMaxLbd > 0 && lbd > static_cast<std::uint32_t>(options_.shareMaxLbd)) {
        return;
    }
    ++stats_.exportedClauses;
    options_.onLearntExport(learnt, static_cast<int>(lbd));
}

void Solver::importSharedClauses() {
    importBuffer_.clear();
    options_.onImport(importBuffer_);
    for (const auto& clause : importBuffer_) {
        if (!ok_) {
            return;
        }
        importOneClause(clause);
    }
}

void Solver::importOneClause(std::span<const Literal> literals) {
    // Same normalization as addClause, but the clause is attached as a
    // learnt clause: it is implied by the problem clauses (every CDCL learnt
    // clause is a resolvent), so it may be dropped again by DB reduction
    // without affecting soundness.
    std::vector<Literal> lits(literals.begin(), literals.end());
    std::sort(lits.begin(), lits.end());
    Literal previous = kUndefLiteral;
    std::size_t out = 0;
    for (Literal l : lits) {
        if (!l.valid() || l.var() >= numVariables()) {
            return;  // foreign clause references a variable we do not have yet
        }
        if (value(l) == Value::True || l == ~previous) {
            return;  // satisfied at root / tautology
        }
        if (value(l) == Value::False || l == previous) {
            continue;  // falsified at root / duplicate
        }
        lits[out++] = l;
        previous = l;
    }
    lits.resize(out);
    ++stats_.importedClauses;
    // Imported clauses are not re-derivable by the importer's own proof, so
    // they are only logged when a writer is attached anyway (the portfolio
    // disables sharing under proof logging; see docs/PARALLEL.md).
    if (proof_ != nullptr) {
        proof_->addClause(lits);
    }
    if (lits.empty()) {
        ok_ = false;
        return;
    }
    if (lits.size() == 1) {
        uncheckedEnqueue(lits[0], kInvalidClause);
        ok_ = (propagate() == kInvalidClause);
        if (!ok_ && proof_ != nullptr) {
            proof_->addEmptyClause();
        }
        return;
    }
    // The exporter's levels are unknown here; the size bounds the LBD.
    const ClauseRef ref =
        arena_.allocate(lits, /*learnt=*/true, static_cast<std::uint32_t>(lits.size()));
    learnts_.push_back(ref);
    attachClause(ref);
    bumpClause(arena_.view(ref));
}

SolveStatus Solver::search() {
    std::uint64_t conflictsThisRestart = 0;
    std::vector<Literal> learntClause;
    while (true) {
        const ClauseRef conflict = propagate();
        if (conflict != kInvalidClause) {
            ++stats_.conflicts;
            ++conflictsThisRestart;
            if (options_.onProgress && stats_.conflicts >= nextProgressAt_) {
                nextProgressAt_ = stats_.conflicts + std::max<std::uint64_t>(
                                                         options_.progressInterval, 1);
                const SolverProgress progress{stats_.conflicts, stats_.decisions,
                                              stats_.propagations, stats_.restarts,
                                              learnts_.size()};
                if (!options_.onProgress(progress)) {
                    cancelled_ = true;
                    cancelUntil(0);
                    return SolveStatus::Unknown;
                }
            }
            if (decisionLevel() == 0) {
                ok_ = false;
                if (proof_ != nullptr) {
                    proof_->addEmptyClause();
                }
                return SolveStatus::Unsat;
            }
            // Block the coming restart while the trail is much longer than
            // usual: the search may be close to a model.
            trailSlow_.update(static_cast<double>(trail_.size()));
            if (stats_.conflicts > kBlockingStartsAfter &&
                conflictsThisRestart >= kMinConflictsBetweenRestarts &&
                static_cast<double>(trail_.size()) > kBlockingTrailFactor * trailSlow_.value) {
                conflictsThisRestart = 0;
            }
            int backtrackLevel = 0;
            std::uint32_t lbd = 0;
            analyze(conflict, learntClause, backtrackLevel, lbd);
            lbdFast_.update(lbd);
            lbdMean_.update(lbd);
            if (proof_ != nullptr) {
                proof_->addClause(learntClause);
            }
            if (options_.onLearntExport && options_.shareMaxSize > 0) {
                exportLearntClause(learntClause, lbd);
            }
            cancelUntil(backtrackLevel);
            if (learntClause.size() == 1) {
                uncheckedEnqueue(learntClause[0], kInvalidClause);
            } else {
                const ClauseRef ref = arena_.allocate(learntClause, /*learnt=*/true, lbd);
                learnts_.push_back(ref);
                attachClause(ref);
                bumpClause(arena_.view(ref));
                uncheckedEnqueue(learntClause[0], ref);
                stats_.peakLearnts = std::max<std::uint64_t>(stats_.peakLearnts,
                                                             learnts_.size());
            }
            ++stats_.learnedClauses;
            decayVariableActivity();
            decayClauseActivity();
            if (options_.conflictLimit >= 0 &&
                stats_.conflicts >= static_cast<std::uint64_t>(options_.conflictLimit)) {
                cancelUntil(0);
                return SolveStatus::Unknown;
            }
            continue;
        }

        if (options_.useRestarts && conflictsThisRestart >= kMinConflictsBetweenRestarts &&
            options_.restartMargin * lbdFast_.value > lbdMean_.value) {
            cancelUntil(0);
            ++stats_.restarts;
            return SolveStatus::Unknown;  // restart
        }
        // Each gap between reductions grows by 15% of the first one (300
        // conflicts at the default interval of 2,000).
        if (stats_.conflicts >= lastReductionAt_ + options_.reduceInterval +
                                    options_.reduceInterval * 3 / 20 * reductions_) {
            reduceLearnedDb();
            if (arena_.wastedWords() * 3 > arena_.totalWords()) {
                compactClauseDatabase();
            }
        }

        // Assumption decisions come first, in order.
        Literal next = kUndefLiteral;
        while (decisionLevel() < static_cast<int>(assumptions_.size())) {
            const Literal p = assumptions_[decisionLevel()];
            if (value(p) == Value::True) {
                newDecisionLevel();  // already implied; keep levels aligned
            } else if (value(p) == Value::False) {
                analyzeFinal(p);
                return SolveStatus::Unsat;
            } else {
                next = p;
                break;
            }
        }
        if (next == kUndefLiteral) {
            next = pickBranchLiteral();
            if (next == kUndefLiteral) {
                storeModel();
                return SolveStatus::Sat;
            }
            ++stats_.decisions;
        }
        newDecisionLevel();
        stats_.maxDecisionLevel =
            std::max<std::uint64_t>(stats_.maxDecisionLevel, decisionLevel());
        uncheckedEnqueue(next, kInvalidClause);
    }
}

SolveStatus Solver::solve(std::span<const Literal> assumptions) {
    conflictCore_.clear();
    if (!ok_) {
        return SolveStatus::Unsat;
    }
    cancelled_ = false;
    nextProgressAt_ =
        stats_.conflicts + std::max<std::uint64_t>(options_.progressInterval, 1);
    assumptions_.assign(assumptions.begin(), assumptions.end());
    for (Literal l : assumptions_) {
        ETCS_REQUIRE_MSG(l.valid() && l.var() < numVariables(),
                         "assumption references unknown variable");
    }

    SolveStatus status = SolveStatus::Unknown;
    while (status == SolveStatus::Unknown) {
        // Foreign clauses enter only here, at the root level: before the
        // first descent and at every restart boundary.
        if (options_.onImport) {
            importSharedClauses();
            if (!ok_) {
                cancelUntil(0);
                return SolveStatus::Unsat;
            }
        }
        status = search();
        if (cancelled_) {
            break;  // progress callback requested cancellation
        }
        if (options_.conflictLimit >= 0 &&
            stats_.conflicts >= static_cast<std::uint64_t>(options_.conflictLimit) &&
            status == SolveStatus::Unknown) {
            break;
        }
    }
    cancelUntil(0);
    return status;
}

void Solver::storeModel() {
    model_.resize(assigns_.size());
    for (std::size_t v = 0; v < assigns_.size(); ++v) {
        // Unassigned variables (none reachable from any clause) default to false.
        model_[v] = assigns_[v] == Value::Undef ? Value::False : assigns_[v];
    }
}

Value Solver::modelValue(Var v) const {
    ETCS_REQUIRE_MSG(v >= 0 && static_cast<std::size_t>(v) < model_.size(),
                     "no model available for this variable");
    return model_[v];
}

Value Solver::modelValue(Literal l) const {
    const Value v = modelValue(l.var());
    return l.sign() ? negate(v) : v;
}

}  // namespace etcs::sat
