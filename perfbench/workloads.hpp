/// \file workloads.hpp
/// The benchmark's workloads: fixed task lists over the paper's case
/// studies, the generated corpus and the hard study corridors, each task
/// with the answer the current code is expected to give.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/layout.hpp"
#include "gen/generator.hpp"
#include "studies/studies.hpp"

namespace perfbench {

namespace core = etcs::core;
namespace gen = etcs::gen;
namespace rail = etcs::rail;
namespace studies = etcs::studies;

enum class TaskKind { Verify, Generate, Optimize };

[[nodiscard]] std::string_view taskKindName(TaskKind kind);

/// What a task must answer. Verdicts of the generated corpus's tight kind
/// outside the frozen table are not known up front; those tasks carry
/// `referenceVerdict` and are checked against a second, independently
/// configured solve after the timed passes.
struct Expected {
    bool sat = false;
    bool referenceVerdict = false;  ///< `sat` unknown: compare with the reference
    int sections = -1;              ///< -1: not checked
    int completionSteps = -1;       ///< -1: not checked
};

struct TaskSpec {
    std::string name;  ///< <instance>/<task>
    TaskKind kind = TaskKind::Verify;
    const core::Instance* instance = nullptr;
    std::optional<core::VssLayout> layout;  ///< the fixed layout a verify task checks
    Expected expected;
};

/// A workload's inputs. The instances refer to the studies and scenarios
/// held here, so a Workload is neither copied nor moved once built.
struct Workload {
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    std::deque<studies::CaseStudy> studies;
    std::deque<gen::GeneratedScenario> scenarios;
    std::deque<rail::Schedule> openSchedules;  ///< generated schedules, arrivals released
    std::deque<core::Instance> instances;
    std::vector<TaskSpec> tasks;
};

/// Corpus seed range of the corpus_verify workload (inclusive).
struct SeedRange {
    std::uint64_t first = 1;
    std::uint64_t last = 40;
};

/// The default range for a benchmark seed: 40 corpus seeds per benchmark
/// seed, so seed 0 is corpus seeds 1..40, seed 1 is 41..80, ...
[[nodiscard]] SeedRange corpusRangeForSeed(std::uint64_t seed);

/// How a run times set-up. The inputs are rebuilt in batches spread over
/// the whole run, not in one block at its start, because the speed of a
/// shared machine drifts over seconds: spread out, set-up samples the same
/// conditions as the passes.
struct WorkloadInfo {
    std::string_view name;
    int setupBatch = 1;              ///< builds per set-up batch
    double setupEverySeconds = 1.0;  ///< measuring time between batches
};

[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

/// Build the named workload's inputs; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> buildWorkload(std::string_view name,
                                                      SeedRange corpusSeeds);

}  // namespace perfbench
