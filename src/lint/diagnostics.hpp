/// \file diagnostics.hpp
/// Structured lint diagnostics: stable codes, severities, source locations
/// and fix hints, collected into a LintReport.
///
/// Two analyzer families emit these diagnostics (see docs/LINTING.md for the
/// full catalogue):
///   * L0xx/L1xx/L2xx — instance linter over networks and schedules
///     (rail_lint.hpp), including parse-level issues from the lenient
///     readers in railway/io.hpp;
///   * C0xx — CNF linter over collected formulas (cnf_lint.hpp).
#pragma once

#include <cstddef>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace etcs::lint {

enum class Severity {
    Info,     ///< observation; never affects task feasibility or exit codes
    Warning,  ///< suspicious but not provably wrong
    Error,    ///< provably malformed or provably infeasible input
};

[[nodiscard]] std::string_view severityName(Severity severity) noexcept;

/// One finding: a stable code, a severity, the entity it concerns (track,
/// train, clause, ...), a human-readable message and an optional fix hint.
/// `line` carries the 1-based source line for file-level diagnostics
/// (0 when the diagnostic has no source location).
struct Diagnostic {
    std::string code;
    Severity severity = Severity::Warning;
    std::string entity;
    std::string message;
    std::string hint;
    int line = 0;
};

/// A catalogue entry describing one diagnostic code.
struct CodeInfo {
    std::string_view code;
    Severity severity;
    std::string_view summary;
};

/// Every diagnostic code either analyzer family can emit, in catalogue
/// order. docs/LINTING.md documents each entry; a regression test keeps the
/// two in sync.
[[nodiscard]] std::span<const CodeInfo> knownCodes() noexcept;

/// An ordered collection of diagnostics with per-severity counts.
class LintReport {
public:
    void add(Diagnostic diagnostic);

    [[nodiscard]] std::span<const Diagnostic> diagnostics() const noexcept {
        return diagnostics_;
    }
    [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return diagnostics_.size(); }

    [[nodiscard]] std::size_t count(Severity severity) const noexcept;
    [[nodiscard]] bool hasErrors() const noexcept { return count(Severity::Error) > 0; }

    /// Number of diagnostics carrying `code`.
    [[nodiscard]] std::size_t countOf(std::string_view code) const noexcept;
    [[nodiscard]] bool has(std::string_view code) const noexcept { return countOf(code) > 0; }

    /// Append another report's diagnostics.
    void merge(const LintReport& other);

    /// Plain-text rendering, one line per diagnostic:
    ///   file:12: error L004 [track broken]: track length must be positive (fix: ...)
    /// `file` prefixes diagnostics that carry a source line; pass an empty
    /// view for object-level reports.
    void write(std::ostream& os, std::string_view file = {}) const;

    /// Machine-readable rendering: {"diagnostics": [...], "errors": N, ...}.
    void writeJson(std::ostream& os) const;

private:
    std::vector<Diagnostic> diagnostics_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
    std::size_t infos_ = 0;
};

}  // namespace etcs::lint
