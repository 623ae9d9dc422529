/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// Spans are kept in a vector while the run is timed and written out once at
/// the end as a Chrome trace (`"ph":"X"` complete events), so recording costs
/// two clock reads and a vector append per span. Nesting is tracked with an
/// explicit stack: a span's parent is the span open when it started.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: top level
    std::string name;
    double startSeconds = 0.0;  ///< since the recorder was created
    double seconds = 0.0;
    std::string args;  ///< JSON object members (without braces), may be empty
};

class SpanRecorder {
public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() : origin_(Clock::now()) {}

    /// Open a span and return its id; it becomes the parent of spans opened
    /// before the matching close().
    std::uint64_t open(std::string name) {
        SpanRecord record;
        record.id = spans_.size() + 1;
        record.parent = stack_.empty() ? 0 : stack_.back();
        record.name = std::move(name);
        record.startSeconds = secondsSinceOrigin(Clock::now());
        spans_.push_back(std::move(record));
        stack_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    /// Close the innermost open span, attaching `args` (JSON members).
    void close(std::string args = {}) {
        SpanRecord& record = spans_[stack_.back() - 1];
        record.seconds = secondsSinceOrigin(Clock::now()) - record.startSeconds;
        record.args = std::move(args);
        stack_.pop_back();
    }

    /// Record an already measured leaf span under the innermost open span.
    void leaf(std::string name, Clock::time_point start, double seconds, std::string args) {
        SpanRecord record;
        record.id = spans_.size() + 1;
        record.parent = stack_.empty() ? 0 : stack_.back();
        record.name = std::move(name);
        record.startSeconds = secondsSinceOrigin(start);
        record.seconds = seconds;
        record.args = std::move(args);
        spans_.push_back(std::move(record));
    }

    /// Write every span as a Chrome trace JSON file; false on I/O failure.
    [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

    [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

private:
    [[nodiscard]] double secondsSinceOrigin(Clock::time_point t) const {
        return std::chrono::duration<double>(t - origin_).count();
    }

    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<std::uint64_t> stack_;
};

}  // namespace perfbench
