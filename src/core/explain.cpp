#include "core/explain.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "cnf/collect.hpp"
#include "obs/trace.hpp"
#include "sat/drat_check.hpp"
#include "sat/solver.hpp"

namespace etcs::core {

namespace {

using sat::Literal;
using sat::SolveStatus;
using sat::Var;

/// Group identity: a provenance record minus the step. Steps are aggregated
/// into a range per group so one cited entry covers a whole time window.
using GroupKey = std::tuple<std::string_view, int, int, int, int>;  // family, run, run2, ttd, segment

struct Group {
    ClauseProvenance record;  ///< step kept as the group's stepFirst seed
    int stepFirst = -1;
    int stepLast = -1;
    std::vector<std::size_t> clauseIndices;  ///< core clause indices (into formula)
};

[[nodiscard]] GroupKey keyOf(const ClauseProvenance& r) {
    return {r.family, r.run, r.run2, r.ttd, r.segment};
}

[[nodiscard]] std::pair<const char*, lint::Severity> codeOf(std::string_view family) {
    if (family == "schedule_pins") {
        return {"E102", lint::Severity::Error};
    }
    if (family == "vss_separation") {
        return {"E103", lint::Severity::Error};
    }
    if (family == "pass_through") {
        return {"E104", lint::Severity::Error};
    }
    return {"E105", lint::Severity::Info};
}

[[nodiscard]] std::string stepText(int first, int last) {
    if (first < 0) {
        return {};
    }
    if (first == last) {
        return " at step " + std::to_string(first);
    }
    return " at steps " + std::to_string(first) + ".." + std::to_string(last);
}

[[nodiscard]] std::string trainName(const Instance& instance, int run) {
    if (run < 0 || static_cast<std::size_t>(run) >= instance.numRuns()) {
        return "?";
    }
    return instance.trains().train(instance.runs()[static_cast<std::size_t>(run)].train).name;
}

/// Station at `segment` on `run`'s itinerary; "origin" for the departure
/// segment; the bare segment label otherwise.
[[nodiscard]] std::string pinLocation(const Instance& instance, int run, int segment) {
    const std::string label =
        segment >= 0 ? instance.graph().segmentLabel(SegmentId(static_cast<std::size_t>(segment)))
                     : std::string("?");
    if (run < 0 || static_cast<std::size_t>(run) >= instance.numRuns() || segment < 0) {
        return "segment " + label;
    }
    const DiscreteRun& r = instance.runs()[static_cast<std::size_t>(run)];
    for (const DiscreteStop& stop : r.stops) {
        if (static_cast<int>(stop.segment.get()) == segment) {
            return "station " + instance.network().station(stop.station).name + " (segment " +
                   label + ")";
        }
    }
    if (static_cast<int>(r.originSegment.get()) == segment) {
        return "origin (segment " + label + ")";
    }
    return "segment " + label;
}

[[nodiscard]] std::string describeGroup(const Instance& instance, const Group& group) {
    const ClauseProvenance& r = group.record;
    const std::string steps = stepText(group.stepFirst, group.stepLast);
    if (r.family == "schedule_pins") {
        return "train " + trainName(instance, r.run) + ": schedule pin at " +
               pinLocation(instance, r.run, r.segment) + " cannot be satisfied" + steps;
    }
    if (r.family == "vss_separation") {
        std::string where;
        if (r.ttd >= 0) {
            where = " on TTD " +
                    instance.network().ttd(TtdId(static_cast<std::size_t>(r.ttd))).name;
        }
        if (r.segment >= 0) {
            where += " (segment " +
                     instance.graph().segmentLabel(SegmentId(static_cast<std::size_t>(r.segment))) +
                     ")";
        }
        return "trains " + trainName(instance, r.run) + " and " + trainName(instance, r.run2) +
               ": separation/headway conflict" + where + steps;
    }
    if (r.family == "pass_through") {
        if (r.run2 >= 0) {
            return "train " + trainName(instance, r.run) + " would pass through train " +
                   trainName(instance, r.run2) + steps;
        }
        return "train " + trainName(instance, r.run) + ": pass-through sweep envelope" + steps;
    }
    if (r.family == "chain_occupancy") {
        return "train " + trainName(instance, r.run) + ": occupancy-chain constraints" + steps;
    }
    if (r.family == "movement") {
        return "train " + trainName(instance, r.run) + ": movement constraints" + steps;
    }
    if (r.family == "done_machinery") {
        return "train " + trainName(instance, r.run) + ": completion (done) machinery" + steps;
    }
    if (r.family == "done_all_selectors") {
        return "all-trains-done selector" + steps;
    }
    return std::string(r.family) + " constraints" + steps;
}

[[nodiscard]] bool recordLess(const ClauseProvenance& a, const ClauseProvenance& b) {
    return std::tie(a.family, a.run, a.run2, a.step, a.ttd, a.segment) <
           std::tie(b.family, b.run, b.run2, b.step, b.ttd, b.segment);
}

/// Deletion-based group-MUS shrinking: guard every group's core clauses with
/// a fresh selector, keep untagged core clauses hard, and probe dropping one
/// group at a time on a warm incremental solver. Unsat probes tighten the
/// active set to the failed-assumption core; Sat/Unknown probes keep the
/// group (sound — only removals need proof). Returns the surviving flags.
std::vector<char> shrinkGroups(const sat::CnfFormula& formula,
                               const std::vector<Group>& groups,
                               const std::vector<std::size_t>& untaggedCoreClauses,
                               std::int64_t budget, std::size_t& solves) {
    std::vector<char> active(groups.size(), 1);
    if (groups.size() <= 1) {
        return active;
    }
    obs::Span span("etcs.explain.shrink");

    sat::Solver solver;
    for (int v = 0; v < formula.numVariables; ++v) {
        (void)solver.addVariable();
    }
    std::vector<Var> selector(groups.size());
    std::vector<Literal> guarded;
    bool ok = true;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        selector[g] = solver.addVariable();
        for (const std::size_t clause : groups[g].clauseIndices) {
            guarded.assign(1, Literal::negative(selector[g]));
            const auto& lits = formula.clauses[clause];
            guarded.insert(guarded.end(), lits.begin(), lits.end());
            ok = solver.addClause(guarded) && ok;
        }
    }
    for (const std::size_t clause : untaggedCoreClauses) {
        ok = solver.addClause(formula.clauses[clause]) && ok;
    }

    const auto groupsOfCore = [&](std::span<const Literal> core) {
        std::vector<char> survivors(groups.size(), 0);
        for (const Literal l : core) {
            const Var v = l.var();
            if (v >= formula.numVariables) {
                const auto g = static_cast<std::size_t>(v - formula.numVariables);
                if (g < groups.size()) {
                    survivors[g] = 1;
                }
            }
        }
        return survivors;
    };
    const auto assumptionsFor = [&](const std::vector<char>& flags, std::size_t skip) {
        std::vector<Literal> assumptions;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (flags[g] != 0 && g != skip) {
                assumptions.push_back(Literal::positive(selector[g]));
            }
        }
        return assumptions;
    };
    const auto probe = [&](const std::vector<Literal>& assumptions) {
        solver.options().conflictLimit =
            static_cast<std::int64_t>(solver.stats().conflicts) + budget;
        ++solves;
        return solver.solve(assumptions);
    };

    // Baseline: the whole core must still refute; its failed-assumption core
    // is already a (possibly strict) subset of the groups.
    if (probe(assumptionsFor(active, groups.size())) != SolveStatus::Unsat) {
        return active;  // budget exhausted on the easy direction — keep all
    }
    active = groupsOfCore(solver.conflictCore());

    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (active[g] == 0) {
            continue;
        }
        if (std::count(active.begin(), active.end(), char(1)) <= 1) {
            break;
        }
        if (probe(assumptionsFor(active, g)) == SolveStatus::Unsat) {
            std::vector<char> survivors = groupsOfCore(solver.conflictCore());
            survivors[g] = 0;  // dropping g succeeded; keep the tightened set
            active = survivors;
        }
        // Sat/Unknown: g is load-bearing (or undecided) — keep it.
    }
    return active;
}

}  // namespace

ExplainResult explainInfeasibility(const Instance& instance, const VssLayout* fixedLayout,
                                   const ExplainOptions& options) {
    ExplainResult result;

    cnf::CollectingBackend collector;
    EncoderOptions encoderOptions = options.encoder;
    encoderOptions.trackProvenance = true;
    Encoder encoder(collector, instance, encoderOptions);
    {
        obs::Span span("etcs.explain.encode");
        encoder.encode(fixedLayout);
    }
    result.formula = collector.takeFormula();
    const ProvenanceTable* table = encoder.provenance();

    sat::Solver solver;
    sat::MemoryProofWriter proofWriter;
    solver.setProofWriter(&proofWriter);
    for (int v = 0; v < result.formula.numVariables; ++v) {
        (void)solver.addVariable();
    }
    bool consistent = true;
    for (const auto& clause : result.formula.clauses) {
        consistent = solver.addClause(clause) && consistent;
    }
    SolveStatus status = SolveStatus::Unsat;
    if (consistent) {
        obs::Span span("etcs.explain.solve");
        status = solver.solve();
    }
    solver.setProofWriter(nullptr);
    result.proof = proofWriter.takeProof();

    if (status == SolveStatus::Sat) {
        result.feasible = true;
        return result;
    }
    if (status == SolveStatus::Unknown) {
        result.error = "solver returned unknown (resource limit)";
        return result;
    }
    result.unsat = true;

    const sat::DratCheckResult check = sat::checkDrat(result.formula, result.proof);
    if (!check.verified) {
        result.error = "DRAT certification failed: " + check.error;
        return result;
    }
    result.certified = true;
    result.coreClauses = check.coreClauseIndices.size();

    // Attribute every core clause to its provenance span and aggregate the
    // spans into constraint groups (record minus step, with a step range).
    std::map<GroupKey, std::size_t> groupIndex;
    std::vector<Group> groups;
    std::vector<std::size_t> untaggedCore;
    std::map<int, ClauseProvenance> coreSpans;  // span id -> record (deduped)
    {
        obs::Span span("etcs.explain.attribute");
        for (const std::size_t clause : check.coreClauseIndices) {
            const int spanId = table->spanOf(clause);
            if (spanId < 0) {
                untaggedCore.push_back(clause);
                continue;
            }
            ++result.taggedCoreClauses;
            const ClauseProvenance& record = table->record(static_cast<std::size_t>(spanId));
            coreSpans.emplace(spanId, record);
            const auto [it, inserted] = groupIndex.emplace(keyOf(record), groups.size());
            if (inserted) {
                Group g;
                g.record = record;
                g.stepFirst = record.step;
                g.stepLast = record.step;
                groups.push_back(std::move(g));
            }
            Group& g = groups[it->second];
            if (record.step >= 0) {
                g.stepFirst = g.stepFirst < 0 ? record.step : std::min(g.stepFirst, record.step);
                g.stepLast = std::max(g.stepLast, record.step);
            }
            g.clauseIndices.push_back(clause);
        }
    }
    result.untaggedCoreClauses = untaggedCore.size();
    result.coreGroups = groups.size();
    for (const auto& [spanId, record] : coreSpans) {
        result.coreRecords.push_back(record);
    }
    std::sort(result.coreRecords.begin(), result.coreRecords.end(), recordLess);
    result.coreRecords.erase(std::unique(result.coreRecords.begin(), result.coreRecords.end()),
                             result.coreRecords.end());

    std::vector<char> active(groups.size(), 1);
    if (options.shrinkCore) {
        active = shrinkGroups(result.formula, groups, untaggedCore,
                              options.shrinkConflictBudget, result.shrinkSolves);
    }
    result.citedGroups = static_cast<std::size_t>(
        std::count(active.begin(), active.end(), char(1)));

    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (active[g] == 0) {
            continue;
        }
        const Group& group = groups[g];
        const auto [code, severity] = codeOf(group.record.family);
        ExplainEntry entry;
        entry.code = code;
        entry.severity = severity;
        entry.family = std::string(group.record.family);
        entry.run = group.record.run;
        entry.run2 = group.record.run2;
        entry.ttd = group.record.ttd;
        entry.segment = group.record.segment;
        entry.stepFirst = group.stepFirst;
        entry.stepLast = group.stepLast;
        entry.message = describeGroup(instance, group);
        result.entries.push_back(std::move(entry));
    }
    std::sort(result.entries.begin(), result.entries.end(),
              [](const ExplainEntry& a, const ExplainEntry& b) {
                  return std::tie(a.code, a.family, a.run, a.run2, a.ttd, a.segment,
                                  a.stepFirst) <
                         std::tie(b.code, b.family, b.run, b.run2, b.ttd, b.segment, b.stepFirst);
              });

    ExplainEntry summary;
    summary.code = "E101";
    summary.severity = lint::Severity::Error;
    summary.message = "schedule proven infeasible: certified UNSAT core of " +
                      std::to_string(result.coreClauses) + " clauses in " +
                      std::to_string(result.coreGroups) + " constraint groups (" +
                      std::to_string(result.citedGroups) + " cited)";
    result.entries.insert(result.entries.begin(), std::move(summary));

    return result;
}

void writeExplanationText(std::ostream& os, const ExplainResult& result) {
    if (result.feasible) {
        os << "feasible: a satisfying schedule exists; nothing to explain\n";
        return;
    }
    if (!result.error.empty()) {
        os << "explain error: " << result.error << '\n';
        return;
    }
    for (const ExplainEntry& entry : result.entries) {
        os << lint::severityName(entry.severity) << ' ' << entry.code;
        if (!entry.family.empty()) {
            os << " [" << entry.family << ']';
        }
        os << ": " << entry.message << '\n';
    }
    if (result.untaggedCoreClauses > 0) {
        os << "note: " << result.untaggedCoreClauses
           << " structural core clause(s) without provenance\n";
    }
}

void writeExplanationJson(std::ostream& os, const ExplainResult& result) {
    os << "{\"feasible\":" << (result.feasible ? "true" : "false")
       << ",\"unsat\":" << (result.unsat ? "true" : "false")
       << ",\"certified\":" << (result.certified ? "true" : "false") << ",\"error\":\""
       << obs::jsonEscape(result.error) << "\",\"coreClauses\":" << result.coreClauses
       << ",\"taggedCoreClauses\":" << result.taggedCoreClauses
       << ",\"untaggedCoreClauses\":" << result.untaggedCoreClauses
       << ",\"coreGroups\":" << result.coreGroups << ",\"citedGroups\":" << result.citedGroups
       << ",\"shrinkSolves\":" << result.shrinkSolves << ",\"entries\":[";
    bool first = true;
    for (const ExplainEntry& entry : result.entries) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << "{\"code\":\"" << entry.code << "\",\"severity\":\""
           << lint::severityName(entry.severity) << "\",\"family\":\""
           << obs::jsonEscape(entry.family) << "\",\"run\":" << entry.run
           << ",\"run2\":" << entry.run2 << ",\"ttd\":" << entry.ttd
           << ",\"segment\":" << entry.segment << ",\"stepFirst\":" << entry.stepFirst
           << ",\"stepLast\":" << entry.stepLast << ",\"message\":\""
           << obs::jsonEscape(entry.message) << "\"}";
    }
    os << "],\"coreRecords\":[";
    first = true;
    for (const ClauseProvenance& r : result.coreRecords) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << "{\"family\":\"" << obs::jsonEscape(std::string(r.family))
           << "\",\"run\":" << r.run << ",\"run2\":" << r.run2 << ",\"step\":" << r.step
           << ",\"ttd\":" << r.ttd << ",\"segment\":" << r.segment << '}';
    }
    os << "]}\n";
}

}  // namespace etcs::core
