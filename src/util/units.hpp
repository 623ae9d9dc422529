/// \file units.hpp
/// Physical quantities with exact integer arithmetic.
///
/// The encoding discretizes space by a spatial resolution r_s and time by a
/// temporal resolution r_t (paper Sec. III-A).  To keep discretization exact
/// and reproducible we store lengths in metres, durations in seconds and
/// speeds in metres per hour, all as 64-bit integers, and provide the two
/// roundings the paper uses:
///   * train length  -> ceil(l / r_s) segments,
///   * travel per step -> floor(s * r_t / r_s) segments.
#pragma once

#include <cstdint>
#include <compare>
#include <ostream>
#include <string>

#include "util/error.hpp"

namespace etcs {

/// A length in whole metres.
class Meters {
public:
    constexpr Meters() noexcept = default;
    constexpr explicit Meters(std::int64_t metres) noexcept : metres_(metres) {}

    [[nodiscard]] static constexpr Meters fromKilometers(double km) noexcept {
        return Meters(static_cast<std::int64_t>(km * 1000.0 + 0.5));
    }

    [[nodiscard]] constexpr std::int64_t count() const noexcept { return metres_; }
    [[nodiscard]] constexpr double kilometers() const noexcept {
        return static_cast<double>(metres_) / 1000.0;
    }

    friend constexpr auto operator<=>(Meters, Meters) noexcept = default;
    friend constexpr Meters operator+(Meters a, Meters b) noexcept {
        return Meters(a.metres_ + b.metres_);
    }
    friend constexpr Meters operator-(Meters a, Meters b) noexcept {
        return Meters(a.metres_ - b.metres_);
    }

private:
    std::int64_t metres_ = 0;
};

/// A duration in whole seconds.
class Seconds {
public:
    constexpr Seconds() noexcept = default;
    constexpr explicit Seconds(std::int64_t seconds) noexcept : seconds_(seconds) {}

    [[nodiscard]] static constexpr Seconds fromMinutes(double minutes) noexcept {
        return Seconds(static_cast<std::int64_t>(minutes * 60.0 + 0.5));
    }

    /// Parse the paper's clock notation: "h:mm" or "h:mm:ss"
    /// (e.g. "0:01" -> 60 s, "0:04:30" -> 270 s). A bare number is minutes.
    [[nodiscard]] static Seconds parse(const std::string& clock);

    [[nodiscard]] constexpr std::int64_t count() const noexcept { return seconds_; }
    [[nodiscard]] constexpr double minutes() const noexcept {
        return static_cast<double>(seconds_) / 60.0;
    }

    /// Format as h:mm (or h:mm:ss when seconds are present), mirroring the
    /// paper's tables; parse(clock()) round-trips.
    [[nodiscard]] std::string clock() const;

    friend constexpr auto operator<=>(Seconds, Seconds) noexcept = default;
    friend constexpr Seconds operator+(Seconds a, Seconds b) noexcept {
        return Seconds(a.seconds_ + b.seconds_);
    }

private:
    std::int64_t seconds_ = 0;
};

/// A speed stored exactly as metres per hour.
class Speed {
public:
    constexpr Speed() noexcept = default;

    [[nodiscard]] static constexpr Speed fromKmPerHour(std::int64_t kmh) noexcept {
        Speed s;
        s.metresPerHour_ = kmh * 1000;
        return s;
    }

    [[nodiscard]] constexpr std::int64_t metresPerHour() const noexcept { return metresPerHour_; }
    [[nodiscard]] constexpr double kmPerHour() const noexcept {
        return static_cast<double>(metresPerHour_) / 1000.0;
    }

    /// Distance covered in the given duration, rounded down to whole metres.
    [[nodiscard]] constexpr Meters distanceIn(Seconds dt) const noexcept {
        return Meters(metresPerHour_ * dt.count() / 3600);
    }

    friend constexpr auto operator<=>(Speed, Speed) noexcept = default;

private:
    std::int64_t metresPerHour_ = 0;
};

/// The pair (r_s, r_t) of paper Sec. III-A together with the discretization
/// roundings used throughout the encoding.
struct Resolution {
    Meters spatial;    ///< r_s: the smallest section length considered.
    Seconds temporal;  ///< r_t: the smallest amount of time considered.

    /// Largest r_s (metres) or r_t (seconds) the command-line tools accept.
    /// It keeps speed * r_t and r_t * step inside 64 bits.
    static constexpr std::int64_t kMaxCount = 2147483647;

    /// Number of r_s segments a track of length `l` is partitioned into
    /// (at least 1; partial trailing segments round up).
    [[nodiscard]] int segmentsOf(Meters l) const {
        ETCS_REQUIRE_MSG(spatial.count() > 0, "spatial resolution must be positive");
        ETCS_REQUIRE_MSG(l.count() > 0, "track length must be positive");
        return static_cast<int>(l.count() / spatial.count() +
                                (l.count() % spatial.count() != 0 ? 1 : 0));
    }

    /// l*_tr = ceil(l_tr / r_s): segments occupied by a train of length `l`.
    [[nodiscard]] int trainLengthSegments(Meters l) const {
        ETCS_REQUIRE_MSG(l.count() > 0, "train length must be positive");
        return segmentsOf(l);
    }

    /// Segments a train of speed `s` can advance in one time step
    /// (floor(s * r_t / r_s); may be 0 for very slow trains/coarse grids).
    [[nodiscard]] int segmentsPerStep(Speed s) const {
        ETCS_REQUIRE_MSG(spatial.count() > 0, "spatial resolution must be positive");
        return static_cast<int>(s.distanceIn(temporal).count() / spatial.count());
    }

    /// Time step index of a wall-clock instant (floor(t / r_t)).
    [[nodiscard]] int stepOf(Seconds t) const {
        ETCS_REQUIRE_MSG(temporal.count() > 0, "temporal resolution must be positive");
        return static_cast<int>(t.count() / temporal.count());
    }

    /// Wall-clock time of a step index.
    [[nodiscard]] Seconds timeOf(int step) const {
        return Seconds(temporal.count() * step);
    }
};

inline std::ostream& operator<<(std::ostream& os, Meters m) { return os << m.count() << " m"; }
inline std::ostream& operator<<(std::ostream& os, Seconds s) { return os << s.count() << " s"; }
inline std::ostream& operator<<(std::ostream& os, Speed s) { return os << s.kmPerHour() << " km/h"; }

inline Seconds Seconds::parse(const std::string& clock) {
    std::int64_t parts[3] = {0, 0, 0};
    int n = 0;
    std::int64_t current = 0;
    bool sawDigit = false;
    for (char c : clock) {
        if (c >= '0' && c <= '9') {
            current = current * 10 + (c - '0');
            sawDigit = true;
        } else if (c == ':') {
            if (n >= 2 || !sawDigit) {
                throw InputError("malformed clock value: " + clock);
            }
            parts[n++] = current;
            current = 0;
            sawDigit = false;
        } else {
            throw InputError("malformed clock value: " + clock);
        }
    }
    if (!sawDigit) {
        throw InputError("malformed clock value: " + clock);
    }
    parts[n++] = current;
    if (n == 1) {
        return Seconds(parts[0] * 60);  // bare minutes, e.g. "5"
    }
    if (n == 2) {
        return Seconds(parts[0] * 3600 + parts[1] * 60);  // h:mm
    }
    return Seconds(parts[0] * 3600 + parts[1] * 60 + parts[2]);  // h:mm:ss
}

inline std::string Seconds::clock() const {
    std::int64_t total = seconds_;
    const std::int64_t h = total / 3600;
    total %= 3600;
    const std::int64_t m = total / 60;
    const std::int64_t s = total % 60;
    auto two = [](std::int64_t v) {
        std::string out = std::to_string(v);
        return out.size() < 2 ? "0" + out : out;
    };
    if (s != 0) {
        return std::to_string(h) + ":" + two(m) + ":" + two(s);
    }
    return std::to_string(h) + ":" + two(m);
}

}  // namespace etcs
