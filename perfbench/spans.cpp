#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

bool SpanRecorder::writeChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char times[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        // Chrome trace times are microseconds.
        std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", s.startSeconds * 1e6,
                      s.seconds * 1e6);
        out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << (s.args.empty() ? "" : ",") << s.args << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out.flush());
}

}  // namespace perfbench
