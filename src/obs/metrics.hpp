/// \file metrics.hpp
/// Process-wide metrics registry: counters, gauges, and histograms with
/// quantile export, cheap enough for hot paths.
///
/// Updates are lock-free (plain atomics); only the first lookup of a metric
/// name takes a lock. References returned by the registry stay valid for the
/// lifetime of the registry, so callers should resolve a metric once and keep
/// the reference:
///
///   static obs::Counter& conflicts =
///       obs::Registry::global().counter("etcs.sat.conflicts");
///   conflicts.add(delta);
///
/// Registry::writeJson() serializes every registered metric (histograms with
/// count/sum/min/max and p50/p90/p99) for machine-readable benchmark output;
/// see docs/OBSERVABILITY.md for the naming scheme.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace etcs::obs {

/// Monotonically increasing event count.
class Counter {
public:
    void increment() noexcept { add(1); }
    void add(std::uint64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written point-in-time value (sizes, bounds, incumbents).
class Gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(double delta) noexcept {
        double current = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(current, current + delta,
                                             std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { set(0.0); }

private:
    std::atomic<double> value_{0.0};
};

/// Distribution of nonnegative samples over exponential buckets
/// (~10% relative resolution), with quantile estimation by linear
/// interpolation inside the selected bucket.
class Histogram {
public:
    Histogram();

    void observe(double value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
    [[nodiscard]] double min() const noexcept;  ///< 0 when empty
    [[nodiscard]] double max() const noexcept;  ///< 0 when empty
    [[nodiscard]] double mean() const noexcept;

    /// Value below which a fraction `q` (in [0, 1]) of the samples fall.
    /// Accurate to the bucket resolution (~10% relative); 0 when empty.
    [[nodiscard]] double quantile(double q) const noexcept;

    void reset() noexcept;

private:
    [[nodiscard]] static std::size_t bucketIndex(double value) noexcept;
    [[nodiscard]] static double bucketLowerBound(std::size_t index) noexcept;
    [[nodiscard]] static double bucketUpperBound(std::size_t index) noexcept;

    // Bucket 0 holds values < kFirstBound; bucket i >= 1 holds
    // [kFirstBound * kGrowth^(i-1), kFirstBound * kGrowth^i).
    static constexpr double kFirstBound = 1e-9;
    static constexpr double kGrowth = 1.1;
    static constexpr std::size_t kNumBuckets = 512;  // covers up to ~1.6e12

    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/// Named metric store. One global instance serves the whole process;
/// independent registries can be created for tests.
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    [[nodiscard]] static Registry& global();

    /// Find or create; the returned reference stays valid for the registry's
    /// lifetime.
    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);
    [[nodiscard]] Histogram& histogram(std::string_view name);

    /// Serialize all metrics as one JSON object:
    /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
    void writeJson(std::ostream& os) const;
    [[nodiscard]] std::string toJson() const;

    /// Zero every registered metric (metrics stay registered).
    void reset();

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace etcs::obs
