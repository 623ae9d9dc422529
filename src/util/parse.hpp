/// \file parse.hpp
/// Strict parsing of numeric command-line arguments.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <system_error>

#include "util/units.hpp"

namespace etcs {

/// The whole of `text` as an integer in [lo, hi]. Returns nullopt for empty
/// text, a leading sign other than '-', trailing characters, or a value
/// outside the range (including one that overflows T).
template <typename T>
[[nodiscard]] std::optional<T> parseInteger(const char* text, T lo, T hi) {
    const char* end = text + std::strlen(text);
    T value{};
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc{} || stop != end || value < lo || value > hi) {
        return std::nullopt;
    }
    return value;
}

/// The value of a --rs or --rt argument: a whole number in
/// [1, Resolution::kMaxCount]. Otherwise says why on stderr and returns
/// nullopt.
[[nodiscard]] inline std::optional<std::int64_t> parseResolutionArgument(const char* flag,
                                                                         const char* text) {
    const auto value = parseInteger<std::int64_t>(text, 1, Resolution::kMaxCount);
    if (!value) {
        std::cerr << "error: " << flag << " expects a whole number in [1, "
                  << Resolution::kMaxCount << "]\n";
    }
    return value;
}

}  // namespace etcs
