// At-most-one / exactly-one constraints: both encodings and the public
// entry points must accept every assignment with <= 1 (== 1) true input and
// reject everything else.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cnf/amo.hpp"
#include "util/error.hpp"
#include "cnf/backend.hpp"

namespace etcs::cnf {
namespace {

std::vector<Literal> makeInputs(SatBackend& backend, int n) {
    std::vector<Literal> inputs;
    for (int i = 0; i < n; ++i) {
        inputs.push_back(Literal::positive(backend.addVariable()));
    }
    return inputs;
}

std::vector<Literal> assignmentAssumptions(const std::vector<Literal>& inputs,
                                           std::uint32_t bits) {
    std::vector<Literal> assumptions;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        assumptions.push_back(((bits >> i) & 1u) != 0 ? inputs[i] : ~inputs[i]);
    }
    return assumptions;
}

class AmoTest : public ::testing::TestWithParam<int> {};

TEST_P(AmoTest, AtMostOneAcceptsExactlyTheRightAssignments) {
    const int n = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    addAtMostOne(*backend, inputs);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int trueCount = __builtin_popcount(bits);
        const auto assumptions = assignmentAssumptions(inputs, bits);
        EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, trueCount <= 1)
            << "n=" << n << " bits=" << bits;
    }
}

TEST_P(AmoTest, ExactlyOneAcceptsExactlyTheRightAssignments) {
    const int n = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    addExactlyOne(*backend, inputs);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int trueCount = __builtin_popcount(bits);
        const auto assumptions = assignmentAssumptions(inputs, bits);
        EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, trueCount == 1)
            << "n=" << n << " bits=" << bits;
    }
}

// Sizes 1-3 take the pairwise base case, 4 and up the ladder.
INSTANTIATE_TEST_SUITE_P(AllSizes, AmoTest, ::testing::Values(1, 2, 3, 4, 5, 7, 9, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "n" + std::to_string(info.param);
                         });

// Each encoding on its own, over every size, not only the sizes
// `addAtMostOne` hands it.
using AmoCase = std::tuple<std::string, int>;

void addEncodedAtMostOne(const std::string& encoding, SatBackend& backend,
                         std::span<const Literal> literals) {
    if (encoding == "pairwise") {
        addPairwiseAtMostOne(backend, literals);
    } else {
        addSequentialAtMostOne(backend, literals);
    }
}

class AmoEncodingTest : public ::testing::TestWithParam<AmoCase> {};

TEST_P(AmoEncodingTest, AtMostOneAcceptsExactlyTheRightAssignments) {
    const auto& [encoding, n] = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    addEncodedAtMostOne(encoding, *backend, inputs);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int trueCount = __builtin_popcount(bits);
        const auto assumptions = assignmentAssumptions(inputs, bits);
        EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, trueCount <= 1)
            << encoding << " n=" << n << " bits=" << bits;
    }
}

TEST_P(AmoEncodingTest, ExactlyOneAcceptsExactlyTheRightAssignments) {
    const auto& [encoding, n] = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    backend->addClause(inputs);
    addEncodedAtMostOne(encoding, *backend, inputs);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int trueCount = __builtin_popcount(bits);
        const auto assumptions = assignmentAssumptions(inputs, bits);
        EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, trueCount == 1)
            << encoding << " n=" << n << " bits=" << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodingsAndSizes, AmoEncodingTest,
    ::testing::Combine(::testing::Values("pairwise", "sequential"),
                       ::testing::Values(1, 2, 3, 4, 5, 7, 9, 12)),
    [](const ::testing::TestParamInfo<AmoCase>& info) {
        return std::get<0>(info.param) + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(AmoEncoding, EmptyAndSingletonAreNoOps) {
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, 1);
    addAtMostOne(*backend, {});
    addAtMostOne(*backend, inputs);
    EXPECT_EQ(backend->numClauses(), 0u);
    EXPECT_EQ(backend->solve({inputs[0]}), SolveStatus::Sat);
}

TEST(AmoEncoding, ExactlyOneOverEmptySetIsRejected) {
    const auto backend = makeInternalBackend();
    EXPECT_THROW(addExactlyOne(*backend, {}), PreconditionError);
}

TEST(AmoEncoding, PairwiseAddsNoAuxiliaryVariables) {
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, 6);
    const int before = backend->numVariables();
    addPairwiseAtMostOne(*backend, inputs);
    EXPECT_EQ(backend->numVariables(), before);
    EXPECT_EQ(backend->numClauses(), 15u);  // C(6, 2)

    // addAtMostOne takes the pairwise case for groups of three.
    const auto small = makeInternalBackend();
    const auto three = makeInputs(*small, 3);
    addAtMostOne(*small, three);
    EXPECT_EQ(small->numVariables(), 3);
    EXPECT_EQ(small->numClauses(), 3u);  // C(3, 2)
}

TEST(AmoEncoding, SequentialIsLinearInClauses) {
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, 40);
    const int before = backend->numVariables();
    addAtMostOne(*backend, inputs);
    EXPECT_EQ(backend->numVariables(), before + 39);  // n - 1 ladder variables
    EXPECT_EQ(backend->numClauses(), 3u * 40u - 4u);
}

}  // namespace
}  // namespace etcs::cnf
