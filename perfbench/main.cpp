/// \file main.cpp
/// Repository benchmark: time-to-verdict of the verify / generate / optimize
/// tasks through the public core API with default TaskOptions, on one
/// workload, as a closed loop of passes over the workload's task list.
///
///   etcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--counts FILE] [--spans FILE]
///
/// --trace 0 times untraced passes and reports the end-to-end metrics.
/// --trace 1 alternates untraced and traced passes (the SAT backend wrapped
/// by TimingBackend, spans kept in memory) and standalone calls into each
/// layer, and reports the per-layer metrics. Every answer is checked outside
/// the timed region; the last stdout line is one JSON object with the keys
/// correct, attempted, failed and metrics. Exit code 0 = every check passed,
/// 1 = a wrong answer, a throw or count drift, 2 = usage error.
/// See README.md in this directory for the metric glossary.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "core/encoder.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "lint/diagnostics.hpp"
#include "lint/rail_lint.hpp"
#include "lint/reach.hpp"
#include "spans.hpp"
#include "timing_backend.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace lint = etcs::lint;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- arguments -------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string countsFile;
    std::string spansFile;
};

std::optional<Args> parseArgs(int argc, char** argv) {
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << flag << "\n";
            return std::nullopt;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (flag == "--counts") {
                args.countsFile = value;
            } else if (flag == "--spans") {
                args.spansFile = value;
            } else {
                std::cerr << "unknown flag " << flag << "\n";
                return std::nullopt;
            }
        } catch (const std::exception&) {
            std::cerr << "bad value for " << flag << ": " << value << "\n";
            return std::nullopt;
        }
    }
    if (!haveWorkload) {
        std::cerr << "--workload is required\n";
        return std::nullopt;
    }
    return args;
}

// ---- running and checking tasks ---------------------------------------------

/// The answer of one task run, reduced to what the checks compare.
struct Outcome {
    bool threw = false;
    std::string error;
    bool sat = false;
    int sections = -1;
    int completionSteps = -1;
    std::optional<core::Solution> solution;
    core::TaskStats stats;
    double seconds = 0.0;  ///< wall time of the task call
};

Outcome runTask(const TaskSpec& task, const core::TaskOptions& options) {
    Outcome out;
    const auto start = Clock::now();
    try {
        switch (task.kind) {
            case TaskKind::Verify: {
                auto r = core::verifySchedule(*task.instance, *task.layout, options);
                out.seconds = secondsSince(start);
                out.sat = r.feasible;
                out.solution = std::move(r.solution);
                out.stats = r.stats;
                break;
            }
            case TaskKind::Generate: {
                auto r = core::generateLayout(*task.instance, options);
                out.seconds = secondsSince(start);
                out.sat = r.feasible;
                out.sections = r.feasible ? r.sectionCount : -1;
                out.solution = std::move(r.solution);
                out.stats = r.stats;
                break;
            }
            case TaskKind::Optimize: {
                auto r = core::optimizeSchedule(*task.instance, options);
                out.seconds = secondsSince(start);
                out.sat = r.feasible;
                out.sections = r.feasible ? r.sectionCount : -1;
                out.completionSteps = r.feasible ? r.completionSteps : -1;
                out.solution = std::move(r.solution);
                out.stats = r.stats;
                break;
            }
        }
    } catch (const std::exception& e) {
        out.seconds = secondsSince(start);
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

/// The deterministic part of an outcome; it must repeat exactly in every
/// pass, traced or not.
struct Signature {
    bool sat = false;
    int sections = -1;
    int completionSteps = -1;
    std::uint64_t conflicts = 0;
    std::uint64_t solveCalls = 0;
    bool operator==(const Signature&) const = default;
};

Signature signatureOf(const Outcome& o) {
    return {o.sat, o.sections, o.completionSteps, o.stats.conflicts, o.stats.solveCalls};
}

std::string describe(const Signature& s) {
    std::ostringstream os;
    os << (s.sat ? "SAT" : "UNSAT") << " sections=" << s.sections
       << " steps=" << s.completionSteps << " conflicts=" << s.conflicts
       << " solve_calls=" << s.solveCalls;
    return os.str();
}

class Checker {
public:
    explicit Checker(const Workload& workload) : workload_(&workload) {}

    /// Check one pass's outcomes; returns the number of failed task runs.
    /// Failures are described on stderr.
    int checkPass(const std::vector<Outcome>& outcomes, const char* passKind) {
        int failed = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (const auto problem = checkOne(i, outcomes[i])) {
                std::cerr << "FAIL [" << passKind << "] " << workload_->tasks[i].name << ": "
                          << *problem << "\n";
                ++failed;
            }
        }
        return failed;
    }

private:
    std::optional<std::string> checkOne(std::size_t index, const Outcome& o) {
        const TaskSpec& task = workload_->tasks[index];
        if (o.threw) {
            return "threw: " + o.error;
        }
        const bool expectSat = task.expected.referenceVerdict ? referenceVerdict(index)
                                                              : task.expected.sat;
        if (o.sat != expectSat) {
            return std::string("verdict ") + (o.sat ? "SAT" : "UNSAT") + ", expected " +
                   (expectSat ? "SAT" : "UNSAT");
        }
        if (o.sat) {
            if (!o.solution) {
                return std::string("SAT without a witness");
            }
            const auto violations = core::validateSolution(*task.instance, *o.solution);
            if (!violations.empty()) {
                return "witness rejected by validateSolution: " + violations.front();
            }
            if (task.expected.sections >= 0 && o.sections != task.expected.sections) {
                return "sections " + std::to_string(o.sections) + ", expected " +
                       std::to_string(task.expected.sections);
            }
            if (task.expected.completionSteps >= 0 &&
                o.completionSteps != task.expected.completionSteps) {
                return "completion steps " + std::to_string(o.completionSteps) +
                       ", expected " + std::to_string(task.expected.completionSteps);
            }
        }
        const Signature signature = signatureOf(o);
        auto [it, inserted] = firstSignature_.emplace(index, signature);
        if (!inserted && !(it->second == signature)) {
            return "not deterministic: " + describe(signature) + " after " +
                   describe(it->second);
        }
        return std::nullopt;
    }

    /// Verdict of verifying on the finest layout with the lint gate and
    /// reachability pruning off, computed once per task.
    bool referenceVerdict(std::size_t index) {
        const auto found = reference_.find(index);
        if (found != reference_.end()) {
            return found->second;
        }
        const core::Instance& instance = *workload_->tasks[index].instance;
        core::TaskOptions options;
        options.lintInstance = false;
        options.encoder.pruneUnreachable = false;
        const bool sat =
            core::verifySchedule(instance, core::VssLayout::finest(instance.graph()), options)
                .feasible;
        reference_.emplace(index, sat);
        return sat;
    }

    const Workload* workload_;
    std::map<std::size_t, Signature> firstSignature_;
    std::map<std::size_t, bool> reference_;
};

// ---- statistics --------------------------------------------------------------

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default exclusive method); with one value all three are that value.
struct Summary {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

Summary summarize(std::vector<double> values) {
    Summary s;
    s.n = values.size();
    if (values.empty()) {
        return s;
    }
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto at = [&](double position) {  // 1-based position, clamped
        position = std::clamp(position, 1.0, n);
        const auto lo = static_cast<std::size_t>(position);
        const double frac = position - static_cast<double>(lo);
        const double a = values[lo - 1];
        const double b = lo < values.size() ? values[lo] : a;
        return a + (b - a) * frac;
    };
    s.q1 = at((n + 1) * 0.25);
    s.median = at((n + 1) * 0.5);
    s.q3 = at((n + 1) * 0.75);
    return s;
}

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::optional<Summary> summary;  ///< for timings: the per-pass distribution
};

Metric timing(std::string name, const std::vector<double>& perPass) {
    const Summary s = summarize(perPass);
    return Metric{std::move(name), "s", s.median, s};
}

double median(const std::vector<double>& values) { return summarize(values).median; }

// ---- set-up -------------------------------------------------------------------

/// Times set-up: builds of the workload's inputs, in batches spread over the
/// untraced run. Each batch yields one sample, the mean time per build (the
/// builds are thrown away; their destruction is not timed). setup_s is the
/// median of the samples.
class SetupTimer {
public:
    SetupTimer(const WorkloadInfo& info, SeedRange corpusSeeds)
        : info_(&info), corpusSeeds_(corpusSeeds) {}

    /// Run one batch; returns its wall time.
    double batch() {
        const auto batchStart = Clock::now();
        double building = 0.0;
        for (int i = 0; i < info_->setupBatch; ++i) {
            const auto start = Clock::now();
            const std::unique_ptr<Workload> built = buildWorkload(info_->name, corpusSeeds_);
            building += secondsSince(start);
        }
        samples_.push_back(building / info_->setupBatch);
        last_ = Clock::now();
        return std::chrono::duration<double>(last_ - batchStart).count();
    }

    /// Run a batch when the last one ended at least setupEverySeconds ago;
    /// returns its wall time, or 0 when none was due.
    double batchIfDue() {
        return secondsSince(last_) >= info_->setupEverySeconds ? batch() : 0.0;
    }

    [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

private:
    const WorkloadInfo* info_;
    SeedRange corpusSeeds_;
    std::vector<double> samples_;
    Clock::time_point last_ = Clock::now();
};

// ---- passes -------------------------------------------------------------------

struct PassResult {
    std::vector<Outcome> outcomes;
    double seconds = 0.0;
    double kindSeconds[3] = {0.0, 0.0, 0.0};  ///< verify, generate, optimize
    std::vector<SatTally> tallies;            ///< traced passes: per task
};

/// Run every task of the workload once. An untraced pass takes `setup`,
/// which may run a set-up batch after a task; the pass time leaves it out.
PassResult runPass(const Workload& workload, SpanRecorder* spans, SetupTimer* setup,
                   std::size_t passIndex) {
    PassResult pass;
    pass.outcomes.reserve(workload.tasks.size());
    if (spans != nullptr) {
        pass.tallies.resize(workload.tasks.size());
        spans->open("pass");
    }
    const auto start = Clock::now();
    double setupSeconds = 0.0;
    for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
        const TaskSpec& task = workload.tasks[i];
        core::TaskOptions options;  // the defaults users get
        if (spans != nullptr) {
            SatTally* tally = &pass.tallies[i];
            options.backendFactory = [tally, spans]() -> std::unique_ptr<cnf::SatBackend> {
                return std::make_unique<TimingBackend>(cnf::makeInternalBackend(), *tally,
                                                       spans);
            };
            spans->open("task." + std::string(taskKindName(task.kind)));
        }
        Outcome outcome = runTask(task, options);
        if (spans != nullptr) {
            spans->close("\"task\":\"" + task.name + "\",\"verdict\":\"" +
                         (outcome.threw ? "THROW" : outcome.sat ? "SAT" : "UNSAT") +
                         "\",\"solve_calls\":" + std::to_string(outcome.stats.solveCalls) +
                         ",\"conflicts\":" + std::to_string(outcome.stats.conflicts));
        }
        pass.kindSeconds[static_cast<int>(task.kind)] += outcome.seconds;
        pass.outcomes.push_back(std::move(outcome));
        if (setup != nullptr) {
            setupSeconds += setup->batchIfDue();
        }
    }
    pass.seconds = secondsSince(start) - setupSeconds;
    if (spans != nullptr) {
        spans->close("\"index\":" + std::to_string(passIndex));
    }
    return pass;
}

/// Per-layer figures of one traced pass.
struct LayerPass {
    SatTally sat;
    std::uint64_t optSolveCalls = 0;
    std::uint64_t optTasks = 0;
    double optimizeSolveSeconds = 0.0;
    double optimizeUnsatSeconds = 0.0;
    double taskSeconds = 0.0;
    double encodeSeconds = 0.0;
    std::uint64_t encodeClauses = 0;
    std::uint64_t encodeVariables = 0;
    std::map<std::string, std::uint64_t> familyClauses;
    double lintScheduleSeconds = 0.0;
    double lintReachSeconds = 0.0;
    std::uint64_t lintRejected = 0;
    double discretizeSeconds = 0.0;
};

/// Fold a traced pass's per-task tallies into layer totals, then call each
/// layer's public entry point standalone for every task, outside any timed
/// pass: the schedule linter, the reachability analysis, the encoder (on a
/// fresh internal backend, only for tasks that reached the solver) and the
/// discretization in the core::Instance constructor.
LayerPass measureLayers(const Workload& workload, const PassResult& pass, SpanRecorder& spans) {
    LayerPass layers;
    for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
        const TaskSpec& task = workload.tasks[i];
        const SatTally& tally = pass.tallies[i];
        const Outcome& outcome = pass.outcomes[i];
        layers.sat += tally;
        layers.taskSeconds += outcome.seconds;
        if (task.kind != TaskKind::Verify) {
            layers.optSolveCalls += tally.solveCalls;
            ++layers.optTasks;
        }
        if (task.kind == TaskKind::Optimize) {
            layers.optimizeSolveSeconds += tally.solveSeconds;
            layers.optimizeUnsatSeconds += tally.unsatSeconds;
        }
        if (outcome.stats.solveCalls == 0) {
            ++layers.lintRejected;
        }
    }

    spans.open("layers");
    for (const TaskSpec& task : workload.tasks) {
        const core::Instance& instance = *task.instance;
        const std::string args = "\"task\":\"" + task.name + "\"";

        spans.open("lint.schedule");
        auto start = Clock::now();
        lint::LintReport report;
        lint::lintSchedule(instance.graph(), instance.trains(), instance.schedule(), report);
        layers.lintScheduleSeconds += secondsSince(start);
        spans.close(args + ",\"errors\":" +
                    std::to_string(report.count(lint::Severity::Error)));

        spans.open("lint.reach");
        start = Clock::now();
        [[maybe_unused]] const lint::ScheduleReach reach =
            lint::analyzeSchedule(instance.graph(), instance.trains(), instance.schedule());
        layers.lintReachSeconds += secondsSince(start);
        spans.close(args);

        spans.open("railway.discretize");
        start = Clock::now();
        const core::Instance rebuilt(instance.network(), instance.trains(), instance.schedule(),
                                     instance.resolution());
        layers.discretizeSeconds += secondsSince(start);
        spans.close(args + ",\"segments\":" + std::to_string(rebuilt.graph().numSegments()));
    }
    for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
        const TaskSpec& task = workload.tasks[i];
        if (pass.outcomes[i].stats.solveCalls == 0) {
            continue;  // answered before encoding
        }
        spans.open("core.encode");
        const auto start = Clock::now();
        const auto backend = cnf::makeInternalBackend();
        core::Encoder encoder(*backend, *task.instance);
        encoder.encode(task.layout ? &*task.layout : nullptr);
        layers.encodeSeconds += secondsSince(start);
        layers.encodeClauses += backend->numClauses();
        layers.encodeVariables += static_cast<std::uint64_t>(backend->numVariables());
        for (const core::FamilyCounts& family : encoder.familyCounts()) {
            if (family.clauses > 0) {
                layers.familyClauses[std::string(family.family)] += family.clauses;
            }
        }
        spans.close("\"task\":\"" + task.name +
                    "\",\"clauses\":" + std::to_string(backend->numClauses()));
    }
    spans.close();
    return layers;
}

// ---- counts across runs ---------------------------------------------------------

/// Compare this run's deterministic counts with those an earlier run of the
/// same code stored in `path`, then store the union. Returns the number of
/// counts that drifted (each described on stderr).
int checkCounts(const std::string& path, const std::map<std::string, std::uint64_t>& counts) {
    // One "<value> <key>" line per count; keys may contain spaces.
    std::map<std::string, std::uint64_t> stored;
    {
        std::ifstream in(path);
        std::string key;
        std::uint64_t value = 0;
        while (in >> value && std::getline(in >> std::ws, key)) {
            stored[key] = value;
        }
    }
    int drifted = 0;
    for (const auto& [key, value] : counts) {
        const auto it = stored.find(key);
        if (it != stored.end() && it->second != value) {
            std::cerr << "FAIL count drift " << key << ": " << value << ", an earlier run had "
                      << it->second << "\n";
            ++drifted;
        }
        stored[key] = value;
    }
    std::ofstream out(path);
    for (const auto& [key, value] : stored) {
        out << value << " " << key << "\n";
    }
    if (!out.flush()) {
        std::cerr << "warning: could not write " << path << "\n";
    }
    return drifted;
}

// ---- output -------------------------------------------------------------------------

void printMetrics(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("  %-30s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
        if (m.summary) {
            std::printf("  q1 %.6g  q3 %.6g  n %zu", m.summary->q1, m.summary->q3,
                        m.summary->n);
        }
        std::printf("\n");
    }
}

void printResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                     const std::vector<Metric>& metrics) {
    std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

double peakRssMegabytes() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Args> parsed = parseArgs(argc, argv);
    if (!parsed) {
        return 2;
    }
    const Args& args = *parsed;
    const SeedRange corpusSeeds = corpusRangeForSeed(args.seed);

    const auto& known = workloads();
    const auto info = std::find_if(known.begin(), known.end(), [&](const WorkloadInfo& w) {
        return w.name == args.workload;
    });
    if (info == known.end()) {
        std::cerr << "unknown workload '" << args.workload << "'; known:";
        for (const WorkloadInfo& w : known) {
            std::cerr << " " << w.name;
        }
        std::cerr << "\n";
        return 2;
    }
    const std::unique_ptr<Workload> workload = buildWorkload(args.workload, corpusSeeds);

    std::cout << "workload " << args.workload << ": " << workload->tasks.size()
              << " tasks per pass, seed " << args.seed;
    if (args.workload == "corpus_verify") {
        std::cout << " (corpus seeds " << corpusSeeds.first << "-" << corpusSeeds.last << ")";
    }
    std::cout << ", trace " << (args.trace ? 1 : 0) << "\n";

    Checker checker(*workload);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    int drift = 0;
    std::vector<double> passSeconds;
    std::vector<double> kindSeconds[3];
    std::vector<double> tracedPassSeconds;
    std::vector<LayerPass> layerPasses;
    SpanRecorder spans;
    // Set-up is timed in untraced runs only, starting with a batch before
    // the first pass.
    std::optional<SetupTimer> setup;
    const auto measureStart = Clock::now();
    if (!args.trace) {
        setup.emplace(*info, corpusSeeds);
        setup->batch();
    }

    // Closed loop: the next pass starts when the previous one has been
    // checked. A pass starts only while it is expected to end within the
    // measuring time, judged by the mean wall time of the loop so far; at
    // least one pass (one of each kind when traced) runs.
    std::vector<Signature> plainSignatures;
    for (std::size_t index = 0;; ++index) {
        const double elapsed = secondsSince(measureStart);
        if (index > 0 && elapsed + elapsed / static_cast<double>(index) > args.seconds) {
            break;
        }

        PassResult plain = runPass(*workload, nullptr, setup ? &*setup : nullptr, index);
        attempted += plain.outcomes.size();
        failed += static_cast<std::uint64_t>(checker.checkPass(plain.outcomes, "plain"));
        passSeconds.push_back(plain.seconds);
        std::printf("pass %zu: %.4f s (verify %.4f, generate %.4f, optimize %.4f)\n", index,
                    plain.seconds, plain.kindSeconds[0], plain.kindSeconds[1],
                    plain.kindSeconds[2]);
        for (int k = 0; k < 3; ++k) {
            kindSeconds[k].push_back(plain.kindSeconds[k]);
        }
        if (plainSignatures.empty()) {
            for (const Outcome& o : plain.outcomes) {
                plainSignatures.push_back(signatureOf(o));
            }
        }
        if (!args.trace) {
            continue;
        }

        PassResult traced = runPass(*workload, &spans, nullptr, index);
        attempted += traced.outcomes.size();
        failed += static_cast<std::uint64_t>(checker.checkPass(traced.outcomes, "traced"));
        tracedPassSeconds.push_back(traced.seconds);
        // Self-check of the wrapper: it must see every solve the task counts.
        for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
            const core::TaskStats& stats = traced.outcomes[i].stats;
            if (traced.tallies[i].solveCalls != stats.solveCalls ||
                traced.tallies[i].conflicts != stats.conflicts) {
                std::cerr << "FAIL [traced] " << workload->tasks[i].name
                          << ": the timing backend saw " << traced.tallies[i].solveCalls
                          << " solves / " << traced.tallies[i].conflicts
                          << " conflicts, TaskStats reports " << stats.solveCalls << " / "
                          << stats.conflicts << "\n";
                ++failed;
            }
        }
        layerPasses.push_back(measureLayers(*workload, traced, spans));
    }

    // Deterministic counts: identical in every pass (the checker already
    // compared signatures) and across runs of the same code (counts file).
    std::map<std::string, std::uint64_t> counts;
    std::uint64_t lintRejected = 0;
    for (std::size_t i = 0; i < plainSignatures.size(); ++i) {
        const std::string& name = workload->tasks[i].name;
        counts["task." + name + ".conflicts"] = plainSignatures[i].conflicts;
        counts["task." + name + ".solve_calls"] = plainSignatures[i].solveCalls;
        lintRejected += plainSignatures[i].solveCalls == 0 ? 1 : 0;
    }
    counts["lint.rejected"] = lintRejected;
    for (const LayerPass& layers : layerPasses) {
        if (layers.encodeClauses != layerPasses.front().encodeClauses ||
            layers.lintRejected != layerPasses.front().lintRejected) {
            std::cerr << "FAIL encode clauses or lint rejections differ between passes\n";
            ++drift;
        }
    }
    if (!layerPasses.empty()) {
        counts["core.encode_clauses"] = layerPasses.front().encodeClauses;
    }
    if (!args.countsFile.empty()) {
        drift += checkCounts(args.countsFile, counts);
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics.push_back(timing("setup_s", setup->samples()));
        metrics.push_back(timing("pass_s", passSeconds));
        metrics.push_back(timing("verify_s", kindSeconds[0]));
        metrics.push_back(timing("generate_s", kindSeconds[1]));
        metrics.push_back(timing("optimize_s", kindSeconds[2]));
        metrics.push_back(Metric{"peak_rss_mb", "MB", peakRssMegabytes(), std::nullopt});
    } else {
        const auto med = [&](auto field) {
            std::vector<double> values;
            for (const LayerPass& layers : layerPasses) {
                values.push_back(static_cast<double>(field(layers)));
            }
            return median(values);
        };
        const auto add = [&](std::string name, std::string unit, auto field) {
            metrics.push_back(Metric{std::move(name), std::move(unit), med(field), std::nullopt});
        };
        add("sat.solve_calls", "count", [](const LayerPass& l) { return l.sat.solveCalls; });
        add("sat.solve_s", "s", [](const LayerPass& l) { return l.sat.solveSeconds; });
        add("sat.sat_calls", "count", [](const LayerPass& l) { return l.sat.satCalls; });
        add("sat.sat_s", "s", [](const LayerPass& l) { return l.sat.satSeconds; });
        add("sat.unsat_calls", "count", [](const LayerPass& l) { return l.sat.unsatCalls; });
        add("sat.unsat_s", "s", [](const LayerPass& l) { return l.sat.unsatSeconds; });
        add("sat.unknown_calls", "count", [](const LayerPass& l) { return l.sat.unknownCalls; });
        add("sat.solve_max_s", "s", [](const LayerPass& l) { return l.sat.solveMaxSeconds; });
        add("sat.conflicts", "count", [](const LayerPass& l) { return l.sat.conflicts; });
        add("sat.propagations", "count", [](const LayerPass& l) { return l.sat.propagations; });
        add("sat.decisions", "count", [](const LayerPass& l) { return l.sat.decisions; });
        add("sat.restarts", "count", [](const LayerPass& l) { return l.sat.restarts; });
        add("sat.peak_learnts", "count", [](const LayerPass& l) { return l.sat.peakLearnts; });
        add("sat.conflicts_per_s", "1/s", [](const LayerPass& l) {
            return l.sat.solveSeconds > 0.0 ? static_cast<double>(l.sat.conflicts) /
                                                  l.sat.solveSeconds
                                            : 0.0;
        });
        add("opt.probes", "count", [](const LayerPass& l) {
            return l.optTasks > 0 ? static_cast<double>(l.optSolveCalls) /
                                        static_cast<double>(l.optTasks)
                                  : 0.0;
        });
        add("opt.repeat_solves", "count", [](const LayerPass& l) { return l.sat.repeatSolves; });
        add("opt.unsat_probe_share", "ratio", [](const LayerPass& l) {
            return l.optimizeSolveSeconds > 0.0 ? l.optimizeUnsatSeconds / l.optimizeSolveSeconds
                                                : 0.0;
        });
        add("core.encode_s", "s", [](const LayerPass& l) { return l.encodeSeconds; });
        add("core.encode_clauses", "count", [](const LayerPass& l) { return l.encodeClauses; });
        add("core.encode_variables", "count",
            [](const LayerPass& l) { return l.encodeVariables; });
        for (const char* family : {"chain_occupancy", "movement", "done_machinery",
                                   "schedule_pins", "vss_separation", "pass_through"}) {
            add(std::string("core.family.") + family + ".clauses", "count",
                [family](const LayerPass& l) {
                    const auto it = l.familyClauses.find(family);
                    return it == l.familyClauses.end() ? std::uint64_t{0} : it->second;
                });
        }
        add("core.task_other_s", "s", [](const LayerPass& l) {
            return l.taskSeconds - l.sat.solveSeconds - l.sat.addClauseSeconds;
        });
        add("cnf.add_clause_calls", "count",
            [](const LayerPass& l) { return l.sat.addClauseCalls; });
        add("cnf.add_clause_s", "s", [](const LayerPass& l) { return l.sat.addClauseSeconds; });
        add("lint.schedule_s", "s", [](const LayerPass& l) { return l.lintScheduleSeconds; });
        add("lint.reach_s", "s", [](const LayerPass& l) { return l.lintReachSeconds; });
        add("lint.rejected", "count", [](const LayerPass& l) { return l.lintRejected; });
        add("railway.discretize_s", "s", [](const LayerPass& l) { return l.discretizeSeconds; });
        metrics.push_back(Metric{"obs.trace_overhead", "ratio",
                                 median(tracedPassSeconds) / median(passSeconds) - 1.0,
                                 std::nullopt});
    }

    if (args.trace && !args.spansFile.empty()) {
        if (spans.writeChromeTrace(args.spansFile)) {
            std::cout << "spans: " << spans.size() << " written to " << args.spansFile << "\n";
        } else {
            std::cerr << "warning: could not write spans to " << args.spansFile << "\n";
        }
    }
    std::cout << "passes " << passSeconds.size() << " (untraced), " << tracedPassSeconds.size()
              << " (traced); set-up batches " << (setup ? setup->samples().size() : 0) << " of "
              << info->setupBatch << "\n";
    if (args.trace) {
        std::printf("  %-30s %14.6g s (untraced %.6g s)\n", "traced pass_s",
                    median(tracedPassSeconds), median(passSeconds));
    }
    printMetrics(metrics);
    const bool correct = failed == 0 && drift == 0;
    std::cout << "failed_share " << (attempted > 0 ? static_cast<double>(failed) /
                                                         static_cast<double>(attempted)
                                                   : 0.0)
              << " (" << failed << " of " << attempted << " task runs)"
              << (drift > 0 ? "; deterministic counts drifted" : "") << "\n";
    printResultLine(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
