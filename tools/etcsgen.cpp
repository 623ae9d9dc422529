/// \file etcsgen.cpp
/// Emit parameterized, seed-deterministic benchmark scenarios.
///
/// Usage:
///   etcsgen --family <f|all> --seed <n> [--size <n>] [--trains <n>]
///           [--schedule <feasible|tight|infeasible|all>]
///           [--rs <metres>] [--rt <seconds>] [--out <dir>] [--dimacs]
///
/// For every selected (family, schedule-kind) combination one instance is
/// generated and written as three files under --out (default "."):
///   <name>.rail   the network (strict readNetwork round-trips it),
///   <name>.sched  the trains + fully timed schedule,
///   <name>.json   a manifest with seed + parameters for exact reproduction.
/// With --dimacs additionally <name>.cnf: the verification encoding on the
/// finest layout, through the same shared DIMACS writer as gencnf.
///
/// Identical parameters produce byte-identical files on every platform (the
/// generator draws raw mt19937_64 outputs; see docs/GENERATOR.md).
/// Exit code: 0 = all instances written, 2 = usage or I/O error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "gen/generator.hpp"
#include "railway/io.hpp"
#include "sat/dimacs.hpp"
#include "util/parse.hpp"

namespace {

void printUsage(std::ostream& os) {
    os << "usage: etcsgen --family <f|all> --seed <n> [--size <n>] [--trains <n>]\n"
          "               [--schedule <feasible|tight|infeasible|all>]\n"
          "               [--rs <metres>] [--rt <seconds>] [--out <dir>] [--dimacs]\n"
          "  families: corridor station junction ring single_track network\n";
}

}  // namespace

int main(int argc, char** argv) {
    using etcs::gen::Family;
    using etcs::gen::GenParams;
    using etcs::gen::ScheduleKind;

    std::vector<Family> families;
    std::vector<ScheduleKind> kinds;
    GenParams base;
    std::string outDir = ".";
    bool dimacs = false;
    bool sawFamily = false;
    bool sawSeed = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> std::optional<std::string> {
            if (i + 1 >= argc) {
                std::cerr << "error: " << flag << " expects a value\n";
                return std::nullopt;
            }
            return std::string(argv[++i]);
        };
        constexpr int kIntMax = std::numeric_limits<int>::max();
        if (arg == "-h" || arg == "--help") {
            printUsage(std::cout);
            return 0;
        } else if (arg == "--family") {
            const auto v = value("--family");
            if (!v) {
                return 2;
            }
            sawFamily = true;
            if (*v == "all") {
                families.assign(etcs::gen::allFamilies().begin(),
                                etcs::gen::allFamilies().end());
            } else if (const auto family = etcs::gen::parseFamily(*v)) {
                families.push_back(*family);
            } else {
                std::cerr << "error: unknown family '" << *v << "'\n";
                printUsage(std::cerr);
                return 2;
            }
        } else if (arg == "--schedule") {
            const auto v = value("--schedule");
            if (!v) {
                return 2;
            }
            if (*v == "all") {
                kinds.assign(etcs::gen::allScheduleKinds().begin(),
                             etcs::gen::allScheduleKinds().end());
            } else if (const auto kind = etcs::gen::parseScheduleKind(*v)) {
                kinds.push_back(*kind);
            } else {
                std::cerr << "error: unknown schedule kind '" << *v << "'\n";
                printUsage(std::cerr);
                return 2;
            }
        } else if (arg == "--seed") {
            const auto v = value("--seed");
            const auto seed = v ? etcs::parseInteger<std::uint64_t>(
                                      v->c_str(), 0, std::numeric_limits<std::uint64_t>::max())
                                : std::nullopt;
            if (!seed) {
                std::cerr << "error: --seed expects a nonnegative integer\n";
                return 2;
            }
            base.seed = *seed;
            sawSeed = true;
        } else if (arg == "--size") {
            const auto v = value("--size");
            const auto size = v ? etcs::parseInteger(v->c_str(), 1, kIntMax) : std::nullopt;
            if (!size) {
                std::cerr << "error: --size expects an integer in [1, " << kIntMax << "]\n";
                return 2;
            }
            base.size = *size;
        } else if (arg == "--trains") {
            const auto v = value("--trains");
            const auto trains = v ? etcs::parseInteger(v->c_str(), 0, kIntMax) : std::nullopt;
            if (!trains) {
                std::cerr << "error: --trains expects an integer in [0, " << kIntMax << "]\n";
                return 2;
            }
            base.trains = *trains;
        } else if (arg == "--rs" || arg == "--rt") {
            const char* flag = argv[i];
            const auto v = value(flag);
            const auto count =
                v ? etcs::parseResolutionArgument(flag, v->c_str()) : std::nullopt;
            if (!count) {
                return 2;
            }
            if (arg == "--rs") {
                base.resolution.spatial = etcs::Meters(*count);
            } else {
                base.resolution.temporal = etcs::Seconds(*count);
            }
        } else if (arg == "--out") {
            const auto v = value("--out");
            if (!v) {
                return 2;
            }
            outDir = *v;
        } else if (arg == "--dimacs") {
            dimacs = true;
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n";
            printUsage(std::cerr);
            return 2;
        }
    }
    if (!sawFamily || !sawSeed) {
        printUsage(std::cerr);
        return 2;
    }
    if (kinds.empty()) {
        kinds.push_back(base.schedule);
    }

    try {
        for (Family family : families) {
            for (ScheduleKind kind : kinds) {
                GenParams params = base;
                params.family = family;
                params.schedule = kind;
                const auto scenario = etcs::gen::generate(params);
                const std::string stem = outDir + "/" + scenario.name;

                auto writeText = [&](const std::string& path, auto&& writer) {
                    std::ofstream out(path);
                    if (out) {
                        writer(out);
                        out.flush();
                    }
                    if (!out) {
                        std::cerr << "error: cannot write " << path << "\n";
                        return false;
                    }
                    return true;
                };
                const bool ok =
                    writeText(stem + ".rail",
                              [&](std::ostream& out) {
                                  etcs::rail::writeNetwork(out, scenario.network);
                              }) &&
                    writeText(stem + ".sched",
                              [&](std::ostream& out) {
                                  etcs::rail::writeScenario(
                                      out,
                                      etcs::rail::Scenario{scenario.name, scenario.trains,
                                                           scenario.schedule},
                                      scenario.network);
                              }) &&
                    writeText(stem + ".json", [&](std::ostream& out) {
                        out << etcs::gen::manifestJson(scenario);
                    });
                if (!ok) {
                    return 2;
                }

                std::string note;
                if (dimacs) {
                    const etcs::core::Instance instance(scenario.network, scenario.trains,
                                                        scenario.schedule, params.resolution);
                    etcs::cnf::CollectingBackend backend;
                    etcs::core::Encoder encoder(backend, instance);
                    const auto finest = etcs::core::VssLayout::finest(instance.graph());
                    encoder.encode(&finest);
                    const auto formula = backend.takeFormula();
                    if (!etcs::sat::writeDimacsFile(stem + ".cnf", formula)) {
                        std::cerr << "error: writing " << stem
                                  << ".cnf failed; partial output removed\n";
                        return 2;
                    }
                    note = ", " + std::to_string(formula.numVariables) + " vars, " +
                           std::to_string(formula.clauses.size()) + " clauses";
                }
                std::cout << scenario.name << ": " << scenario.network.numTracks()
                          << " tracks, " << scenario.schedule.size() << " runs" << note
                          << " -> " << stem << ".{rail,sched,json"
                          << (dimacs ? ",cnf" : "") << "}\n";
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
