/// \file table1.cpp
/// Regenerates the paper's Table I: for each of the four case studies, run
/// the three design tasks (verification on the pure TTD layout, VSS layout
/// generation, schedule optimization) and report variables, satisfiability,
/// TTD/VSS section count, time steps, and runtime.
///
/// Expected shape (absolute numbers differ from the paper because the exact
/// network geometry is unpublished; see EXPERIMENTS.md):
///   * every verification row is UNSAT,
///   * every generation row is SAT with a few extra sections,
///   * every optimization row is SAT with fewer time steps.
/// The binary self-checks these verdicts and exits nonzero on mismatch.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

struct Row {
    std::string task;
    int vars = 0;
    bool sat = false;
    int sections = 0;
    int timeSteps = -1;  // -1: not applicable (verification UNSAT)
    double runtime = 0.0;
};

void printHeader(const studies::CaseStudy& study) {
    std::ostringstream title;
    title << study.name << " (r_t = " << study.resolution.temporal.minutes()
          << " min, r_s = " << study.resolution.spatial.kilometers() << " km)";
    std::cout << "| " << std::left << std::setw(61) << title.str() << "|\n";
}

void printRow(const Row& row) {
    std::cout << "| " << std::left << std::setw(14) << row.task << std::right << std::setw(7)
              << row.vars << "  " << std::setw(4) << (row.sat ? "Yes" : "No") << "  "
              << std::setw(8) << row.sections << "  ";
    if (row.timeSteps >= 0) {
        std::cout << std::setw(10) << row.timeSteps;
    } else {
        std::cout << std::setw(10) << "-";
    }
    std::cout << "  " << std::setw(11) << std::fixed << std::setprecision(2) << row.runtime
              << " |\n";
}

/// Run the three tasks for one case study; returns false on a shape mismatch.
bool runStudy(const studies::CaseStudy& study) {
    const core::Instance timed(study.network, study.trains, study.timedSchedule,
                               study.resolution);
    const core::Instance open(study.network, study.trains, study.openSchedule,
                              study.resolution);
    bool shapeOk = true;
    std::vector<Row> rows;

    // Verification on the pure TTD layout.
    const core::VssLayout pure(timed.graph());
    const auto verification = core::verifySchedule(timed, pure);
    rows.push_back(Row{"Verification", verification.stats.numVariables, verification.feasible,
                       pure.sectionCount(timed.graph()), -1,
                       verification.stats.runtimeSeconds});
    shapeOk &= !verification.feasible;  // paper: all verification rows UNSAT

    // Generation.
    const auto generation = core::generateLayout(timed);
    rows.push_back(Row{"Generation", generation.stats.numVariables, generation.feasible,
                       generation.sectionCount,
                       generation.feasible ? generation.solution->completionSteps : -1,
                       generation.stats.runtimeSeconds});
    shapeOk &= generation.feasible;

    // Optimization.
    const auto optimization = core::optimizeSchedule(open);
    rows.push_back(Row{"Optimization", optimization.stats.numVariables, optimization.feasible,
                       optimization.sectionCount,
                       optimization.feasible ? optimization.completionSteps : -1,
                       optimization.stats.runtimeSeconds});
    shapeOk &= optimization.feasible;
    if (generation.feasible && optimization.feasible) {
        shapeOk &= optimization.completionSteps <= generation.solution->completionSteps;
    }

    printHeader(study);
    for (const Row& row : rows) {
        printRow(row);
    }
    return shapeOk;
}

}  // namespace

int main() {
    std::cout << "TABLE I: Obtained results (reproduction)\n"
              << "+" << std::string(62, '-') << "+\n"
              << "| " << std::left << std::setw(14) << "Task" << std::right << std::setw(7)
              << "Var." << "  " << std::setw(4) << "Sat" << "  " << std::setw(8) << "TTD/VSS"
              << "  " << std::setw(10) << "Time Steps" << "  " << std::setw(11)
              << "Runtime [s]" << " |\n"
              << "+" << std::string(62, '-') << "+\n";
    bool allOk = true;
    allOk &= runStudy(studies::runningExample());
    std::cout << "+" << std::string(62, '-') << "+\n";
    allOk &= runStudy(studies::simpleLayout());
    std::cout << "+" << std::string(62, '-') << "+\n";
    allOk &= runStudy(studies::complexLayout());
    std::cout << "+" << std::string(62, '-') << "+\n";
    allOk &= runStudy(studies::nordlandsbanen());
    std::cout << "+" << std::string(62, '-') << "+\n";
    std::cout << (allOk ? "shape check: OK (verification UNSAT, generation/optimization SAT)"
                        : "shape check: MISMATCH against the paper's Table I")
              << "\n";
    return allOk ? 0 : 1;
}
