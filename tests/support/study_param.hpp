/// \file study_param.hpp
/// A shipped case study as a value parameter of a gtest suite. It prints as
/// its name, so the test names ctest derives from the printed value are the
/// same on every run; a bare function pointer would print as its address,
/// which moves from run to run. Used by differential_test and portfolio_test.
#pragma once

#include <gtest/gtest.h>

#include <ostream>

#include "studies/studies.hpp"

namespace etcs::test {

struct StudyParam {
    const char* name;  ///< identifier-safe, used in the test name
    studies::CaseStudy (*make)();
};

inline void PrintTo(const StudyParam& param, std::ostream* os) { *os << param.name; }

/// The two layouts small enough for the per-instance encoder suites.
inline auto paperLayouts() {
    return ::testing::Values(StudyParam{"RunningExample", &studies::runningExample},
                             StudyParam{"SimpleLayout", &studies::simpleLayout});
}

}  // namespace etcs::test
