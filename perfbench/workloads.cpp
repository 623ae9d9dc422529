#include "workloads.hpp"

#include <array>

namespace perfbench {

namespace {

using etcs::Meters;
using etcs::Resolution;
using etcs::Seconds;

/// Verdicts of verifySchedule on the finest layout for the corpus's tight
/// kind at size 12 with 12 trains, corpus seeds 1..400 ('S' = SAT,
/// 'U' = UNSAT), recorded from the code the benchmark was introduced with and
/// cross-checked against a solve with the lint gate and reachability pruning
/// off. Indexed [family in gen::allFamilies() order][seed - 1].
constexpr std::uint64_t kFrozenTightSeeds = 400;
constexpr std::array<std::string_view, 6> kFrozenTightVerdicts = {
    // corridor
    "SUSUUUUUSSUUSUUSSUUUUSUUUSUSUUSUSUSUSUSSUUSUUUSSSUUUUSUSUSUSUUSSUUSSSUSUSSSSUSUU"
    "UUUUUUSSUUSSSSUUSUUUSSUSUSUUUUUUSSUUUSUUUUUUSSUUUUUUUSUUUSUUSUSUSUSSSSSUSUUSSUUS"
    "USUUSUSSUSSSUSUUUUUUSSUUSUSUSUSSSSUUUUSUSSSUUUUUUSUSSUUUUUUUSSSUSUUSUSSUUSUSUUUS"
    "SUSUSUSUSUUUSUSUSUUUSUSUUUUSUUUSUUUSSUUSUSUSUSSUSUUUSUSUUUSUSUSUUSUUSSSSUSSUSUUS"
    "USUUSSSUUSSSUSUUUSUSUUSSSUSUUUSSSUUUSUSUSUUSUUUSUSUUSSUUUSUUSUUSSUUUUUUUSSSUSSSU",
    // station
    "SSSSSUSSSSUUSSSSSSSSSSSSSUSSSSSSSSSSSSSSUSSSSSSUSSSSSSSUSSUSSSSUSSSSSSSSSSUSUSUU"
    "SSUSSSSSUSSSSUSSSSSSSSSUSSSSSSSSSSSSSUSSSSUSUSSSSSSSSSSUSSUSSUSSSSSSSSSSSSSSSSUU"
    "UUSUSSSSSSSSSSSSSSUSSUUSSSSUSSSSSSSSSUSSSSUUSSSSSUSSSUSSSSSSSSSUSSSSSUUUSSSSSSSS"
    "SUSSSSSSSSSSSSSSSSSSSSSSSSSUUSSSSUSSSSSSSSSSSSSUSUUSSSSUSUSSUUSUSUUSSSSSSSSSSSUS"
    "SSSSSSUSSSSSUSSSSSSUSSUSSSSUUSSSUSUSSSSSSSSSSSSSSSSSSSSSUSSSUSSSSSSSSSSSSSUSSSSS",
    // junction
    "UUUSUUSUUSUUUUUUUUUSUSSUUUUSUSUUUSSUUUUSUUSUUUUUUSSSUUSSSUUUUSUUSSUSSUUSUSUUSUUU"
    "USUSSSSSUUUSSUUUSSUSUUUUUUUUUUUUUSSUUSSSSUUUUUSUUUSSSUUUUUUSSUUUSUSSSSSUUUUUSUUS"
    "USSUUSUSUUUUUUUSUSSSUUUUUUSUUSUSSUSUUUSUUUSSSUSSSUSUUUSUUSUUSSSSUUUUSUSSSUSUSUSU"
    "USUUUUUUSSUSSUUSUUUUSSSSUUSUSUSSUUSUUSUUSUUSUUUSUSSUUSSUSSUSSSSSSUUSUSUUUUUSSUUS"
    "SSUUSSUSUUSUSUSSSSUSUUSSUSUUSUUUSSUSUUUUSUSUSUUUSUUUUUSUSUSSSUUUSUUSUUUUUSSSSUUU",
    // ring
    "SSUSSSUUSUSSSSSUSSUUUSSSSUUUUSUSSUSSSSSSUSSUUUSSSUUSSSSUUUSSUUUUSSUSSSSUUUSUSSSS"
    "SUUSUUUUUSUSUUSSSUSSUSSUUSSUUSUSUUSUUSUUUSSSUSUUUUUUUSUSUSUSSSUUSUUSSUUSSUUSUUUS"
    "SSUSSUUSUUUUSSUSUSUSSSUUUSSSSSSSSUUUSUUUUUUSUUSSSUUUUSSSSUSUSUUUUUSUSUSSSUUSSUUS"
    "USUUUUSUSUUSUSSUUUUSSUUSSSUSUUUUUSUUSSUSUSSUSUUSUUUSUUSUSSSUUUSSUUSUUUSSSUUSUSSU"
    "UUUUUSSSSSUSUSUUSUUUUSSUUUUSSUUUSSSUSUUSSUSUUSUUSSUSUSSUUUUSSUUUSUUSSSSSSUSSUSSS",
    // single_track
    "UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUSUUUUUUUUUUUUUUUUUUUUUUUUUU"
    "UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUSUUUUUUUUUUUUUUUUUUUUUU"
    "UUUUUUUUUUSUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU"
    "UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUSUUUUUUUUUUUUUUUUUSUUUUUUUU"
    "UUUUUUUUUUUUUUSUUUUUUUUUUUUUUUUUUUSUUUUUUUUUUUUUUUUUUUSUUUUUUUUUUUUUUUUUUUUUUUUU",
    // network
    "UUSSSUSUUSUSUUSUUSUUUUUUUUUSUUSSSSSUUUUUSSUSSUSUUUUUUUUUUSUUUSSSUUUUUUSSUSUUSSSS"
    "UUUSSUUSSSSSSUUUUUUSUUUUUUSSUUUUUSSUSSUUSSSUUUUUUUUUUUUSUSUUUSSSSSUSUUSUSSSSUUSU"
    "SUSSUUSUUUUUUUSUUUSUUSSUSUSUSSUSUUUSSUUUUUSUUUSUUUUUUSUUSUSUSUUUUUUSUSSUSSUSUSUU"
    "SUSUUSSSUUSUUUUSSUUSUUSSUUUSSUUUUUUUSUUUUSUSUUSUUSUSSUUSUUSSSSUUSUUUUSSSUUSSSSUS"
    "UUSUUUUSUSUUSSUUUSUSUSUUSSUSUSSSUUUUUUSSUUSUSSUUUSSSUUUSSSSUUUUUSUUSSSSUSSUUUUSU",
};

/// Answers of the frozen sample seed's generate and optimize tasks, in
/// gen::allFamilies() order, recorded from the code the benchmark was
/// introduced with: the section counts generateLayout gives on the feasible
/// and the tight instance (-1: the tight instance is UNSAT), and the section
/// count and completion step optimizeSchedule gives on the released feasible
/// instance.
struct SampleAnswers {
    int feasibleSections;
    int tightSections;
    int optimizeSections;
    int optimizeSteps;
};
constexpr std::array<SampleAnswers, 6> kSampleAnswers = {{
    {35, 35, 35, 34},  // corridor
    {14, 14, 14, 24},  // station
    {24, -1, 24, 16},  // junction
    {36, 36, 36, 25},  // ring
    {13, -1, 12, 18},  // single_track
    {45, -1, 45, 21},  // network
}};

/// Corpus seeds verified per benchmark seed.
constexpr std::uint64_t kCorpusSeedsPerRun = 40;

/// Size and train count of every corpus instance.
constexpr int kCorpusSize = 12;
constexpr int kCorpusTrains = 12;
/// Corpus seed whose instances are also generated and optimized.
constexpr std::uint64_t kSampleSeed = 1;
/// Horizon added to a released corpus schedule, so that trains can leave
/// after their last arrival.
const Seconds kCorpusOptimizeSlack{60};

const Resolution kCorridorResolution{Meters(500), Seconds(60)};

/// Add the instance (kept alive by the workload) built from the schedule.
const core::Instance& addInstance(Workload& w, const rail::Network& network,
                                  const rail::TrainSet& trains, const rail::Schedule& schedule,
                                  Resolution resolution) {
    return w.instances.emplace_back(network, trains, schedule, resolution);
}

void addVerify(Workload& w, std::string name, const core::Instance& instance,
               core::VssLayout layout, Expected expected) {
    w.tasks.push_back(TaskSpec{std::move(name) + "/verify", TaskKind::Verify, &instance,
                               std::move(layout), expected});
}

void addTask(Workload& w, std::string name, TaskKind kind, const core::Instance& instance,
             Expected expected) {
    w.tasks.push_back(TaskSpec{std::move(name) + "/" + std::string(taskKindName(kind)), kind,
                               &instance, std::nullopt, expected});
}

/// The four paper case studies, each verified on its pure TTD layout,
/// generated and optimized (Table I). Section counts and completion steps
/// are those of the code the benchmark was introduced with.
void buildTable1(Workload& w) {
    struct Row {
        studies::CaseStudy (*make)();
        int generateSections;
        int optimizeSections;
        int optimizeSteps;
    };
    const Row rows[] = {
        {studies::runningExample, 5, 5, 9},
        {studies::simpleLayout, 12, 11, 17},
        {studies::complexLayout, 23, 22, 15},
        {studies::nordlandsbanen, 52, 52, 41},
    };
    for (const Row& row : rows) {
        const studies::CaseStudy& study = w.studies.emplace_back(row.make());
        const core::Instance& timed = addInstance(w, study.network, study.trains,
                                                  study.timedSchedule, study.resolution);
        const core::Instance& open = addInstance(w, study.network, study.trains,
                                                 study.openSchedule, study.resolution);
        addVerify(w, study.name, timed, core::VssLayout(timed.graph()), Expected{.sat = false});
        addTask(w, study.name, TaskKind::Generate, timed,
                Expected{.sat = true, .sections = row.generateSections});
        addTask(w, study.name, TaskKind::Optimize, open,
                Expected{.sat = true,
                         .sections = row.optimizeSections,
                         .completionSteps = row.optimizeSteps});
    }
}

/// The generated schedule with every arrival released and the horizon
/// stretched by `slack`, for the optimization task.
rail::Schedule releaseArrivals(const rail::Schedule& timed, Seconds slack) {
    rail::Schedule open;
    for (rail::TrainRun run : timed.runs()) {
        for (rail::TimedStop& stop : run.stops) {
            stop.arrival.reset();
        }
        open.addRun(std::move(run));
    }
    open.setHorizon(timed.horizon() + slack);
    return open;
}

/// The verdict a corpus instance must get on the finest layout.
Expected corpusVerdict(std::size_t family, gen::ScheduleKind kind, std::uint64_t seed) {
    switch (kind) {
        case gen::ScheduleKind::Feasible: return Expected{.sat = true};
        case gen::ScheduleKind::Infeasible: return Expected{.sat = false};
        case gen::ScheduleKind::Tight: break;
    }
    if (seed <= kFrozenTightSeeds) {
        return Expected{.sat = kFrozenTightVerdicts[family][seed - 1] == 'S'};
    }
    return Expected{.referenceVerdict = true};
}

gen::GeneratedScenario generateScenario(gen::Family family, gen::ScheduleKind kind,
                                        std::uint64_t seed) {
    gen::GenParams params;
    params.family = family;
    params.seed = seed;
    params.size = kCorpusSize;
    params.trains = kCorpusTrains;
    params.schedule = kind;
    return gen::generate(params);
}

/// Every family x schedule kind of the generator over the seed range, each
/// verified on the finest layout. So that every task kind is timed on the
/// corpus, the instances of the frozen sample seed are also generated, and
/// its feasible instances are optimized with their arrivals released; the
/// sample does not move with the range, so its timings compare across
/// benchmark seeds.
void buildCorpus(Workload& w, SeedRange seeds) {
    const auto families = gen::allFamilies();
    for (std::uint64_t seed = seeds.first; seed <= seeds.last; ++seed) {
        for (std::size_t f = 0; f < families.size(); ++f) {
            for (const gen::ScheduleKind kind : gen::allScheduleKinds()) {
                const gen::GeneratedScenario& scenario =
                    w.scenarios.emplace_back(generateScenario(families[f], kind, seed));
                const core::Instance& instance =
                    addInstance(w, scenario.network, scenario.trains, scenario.schedule,
                                scenario.params.resolution);
                addVerify(w, scenario.name, instance, core::VssLayout::finest(instance.graph()),
                          corpusVerdict(f, kind, seed));
            }
        }
    }
    for (std::size_t f = 0; f < families.size(); ++f) {
        for (const gen::ScheduleKind kind : gen::allScheduleKinds()) {
            const gen::GeneratedScenario& scenario =
                w.scenarios.emplace_back(generateScenario(families[f], kind, kSampleSeed));
            const core::Instance& instance =
                addInstance(w, scenario.network, scenario.trains, scenario.schedule,
                            scenario.params.resolution);
            // The finest layout separates trains best, so generation has the
            // verdict of verification on it.
            Expected generated = corpusVerdict(f, kind, kSampleSeed);
            if (generated.sat) {
                generated.sections = kind == gen::ScheduleKind::Feasible
                                         ? kSampleAnswers[f].feasibleSections
                                         : kSampleAnswers[f].tightSections;
            }
            addTask(w, scenario.name, TaskKind::Generate, instance, generated);
            if (kind == gen::ScheduleKind::Feasible) {
                // The simulated witness still completes once the arrivals
                // are released.
                const rail::Schedule& open = w.openSchedules.emplace_back(
                    releaseArrivals(scenario.schedule, kCorpusOptimizeSlack));
                const core::Instance& released = addInstance(
                    w, scenario.network, scenario.trains, open, scenario.params.resolution);
                addTask(w, scenario.name + "_open", TaskKind::Optimize, released,
                        Expected{.sat = true,
                                 .sections = kSampleAnswers[f].optimizeSections,
                                 .completionSteps = kSampleAnswers[f].optimizeSteps});
            }
        }
    }
}

/// Three hard study corridors at 500 m / 60 s, one per task: a cold SAT
/// verification, a cold UNSAT generation, and an optimization whose
/// lower-bound probes are UNSAT.
void buildCorridorHard(Workload& w) {
    {
        const studies::CaseStudy& study = w.studies.emplace_back(
            studies::corridor(3, 6, Meters::fromKilometers(2.5), kCorridorResolution));
        const core::Instance& timed = addInstance(w, study.network, study.trains,
                                                  study.timedSchedule, study.resolution);
        addVerify(w, "corridor_s3_t6_sp25", timed, core::VssLayout(timed.graph()),
                  Expected{.sat = true});
    }
    {
        const studies::CaseStudy& study = w.studies.emplace_back(
            studies::corridor(2, 7, Meters::fromKilometers(2.0), kCorridorResolution));
        const core::Instance& timed = addInstance(w, study.network, study.trains,
                                                  study.timedSchedule, study.resolution);
        addTask(w, "corridor_s2_t7", TaskKind::Generate, timed, Expected{.sat = false});
    }
    {
        const studies::CaseStudy& study = w.studies.emplace_back(
            studies::corridor(4, 6, Meters::fromKilometers(2.0), kCorridorResolution));
        const core::Instance& open = addInstance(w, study.network, study.trains,
                                                 study.openSchedule, study.resolution);
        addTask(w, "corridor_s4_t6", TaskKind::Optimize, open,
                Expected{.sat = true, .sections = 11, .completionSteps = 15});
    }
}

}  // namespace

std::string_view taskKindName(TaskKind kind) {
    switch (kind) {
        case TaskKind::Verify: return "verify";
        case TaskKind::Generate: return "generate";
        case TaskKind::Optimize: return "optimize";
    }
    return "?";
}

SeedRange corpusRangeForSeed(std::uint64_t seed) {
    const std::uint64_t first = kCorpusSeedsPerRun * (seed % 1'000'000'000'000) + 1;
    return SeedRange{first, first + kCorpusSeedsPerRun - 1};
}

const std::vector<WorkloadInfo>& workloads() {
    // A table1 build takes about 2.5 ms, a corpus_verify build about 1.8 s
    // and a corridor_hard build about 60 us (4-vCPU Xeon guest).
    static const std::vector<WorkloadInfo> all = {
        {"table1", 40, 0.5}, {"corpus_verify", 1, 3.0}, {"corridor_hard", 5000, 0.5}};
    return all;
}

std::unique_ptr<Workload> buildWorkload(std::string_view name, SeedRange corpusSeeds) {
    auto w = std::make_unique<Workload>();
    if (name == "table1") {
        buildTable1(*w);
    } else if (name == "corpus_verify") {
        buildCorpus(*w, corpusSeeds);
    } else if (name == "corridor_hard") {
        buildCorridorHard(*w);
    } else {
        return nullptr;
    }
    return w;
}

}  // namespace perfbench
