#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace etcs::obs {

namespace {

/// CAS-loop update keeping an atomic double at the min/max of all samples.
template <typename Compare>
void atomicExtremum(std::atomic<double>& slot, double value, Compare better) {
    double current = slot.load(std::memory_order_relaxed);
    while (better(value, current) &&
           !slot.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
    }
}

void appendJsonNumber(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << 0;  // JSON has no Inf/NaN; metrics never legitimately produce them
        return;
    }
    // Fixed %.12g formatting, independent of stream state and locale, so two
    // exports of the same registry are byte-identical (the determinism
    // tests rely on this).
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.12g", v);
    os << buffer;
}

}  // namespace

// ----------------------------------------------------------- histogram ----

Histogram::Histogram() : buckets_(kNumBuckets) {}

std::size_t Histogram::bucketIndex(double value) noexcept {
    if (!(value >= kFirstBound)) {  // also catches NaN
        return 0;
    }
    const double position = std::log(value / kFirstBound) / std::log(kGrowth);
    const auto index = static_cast<std::size_t>(position) + 1;
    return std::min(index, kNumBuckets - 1);
}

double Histogram::bucketLowerBound(std::size_t index) noexcept {
    return index == 0 ? 0.0 : kFirstBound * std::pow(kGrowth, static_cast<double>(index - 1));
}

double Histogram::bucketUpperBound(std::size_t index) noexcept {
    return kFirstBound * std::pow(kGrowth, static_cast<double>(index));
}

void Histogram::observe(double value) noexcept {
    if (std::isnan(value)) {
        return;
    }
    value = std::max(value, 0.0);
    buckets_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
        // First sample seeds both extrema (0-initialized slots would
        // otherwise clamp min to 0 forever).
        min_.store(value, std::memory_order_relaxed);
        max_.store(value, std::memory_order_relaxed);
    }
    atomicExtremum(min_, value, std::less<>());
    atomicExtremum(max_, value, std::greater<>());
}

double Histogram::min() const noexcept {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const noexcept {
    const std::uint64_t total = count();
    if (total == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-quantile sample, 1-based: ceil(q * total), at least 1.
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        const std::uint64_t inBucket = buckets_[i].load(std::memory_order_relaxed);
        if (inBucket == 0) {
            continue;
        }
        seen += inBucket;
        if (seen < rank) {
            continue;
        }
        // Interpolate inside the bucket by the rank position.
        const double lo = bucketLowerBound(i);
        const double hi = bucketUpperBound(i);
        const double within =
            static_cast<double>(rank - (seen - inBucket)) / static_cast<double>(inBucket);
        const double estimate = lo + (hi - lo) * within;
        return std::clamp(estimate, min(), max());
    }
    return max();
}

void Histogram::reset() noexcept {
    for (auto& bucket : buckets_) {
        bucket.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

// ------------------------------------------------------------ registry ----

Registry& Registry::global() {
    static Registry instance;
    return instance;
}

Counter& Registry::counter(std::string_view name) {
    const std::scoped_lock lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
        return *it->second;
    }
    return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
    const std::scoped_lock lock(mutex_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
        return *it->second;
    }
    return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& Registry::histogram(std::string_view name) {
    const std::scoped_lock lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
        return *it->second;
    }
    return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
                .first->second;
}

void Registry::writeJson(std::ostream& os) const {
    const std::scoped_lock lock(mutex_);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, metric] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << metric->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, metric] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << name << "\": ";
        appendJsonNumber(os, metric->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, metric] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
           << metric->count() << ", \"sum\": ";
        appendJsonNumber(os, metric->sum());
        os << ", \"min\": ";
        appendJsonNumber(os, metric->min());
        os << ", \"max\": ";
        appendJsonNumber(os, metric->max());
        os << ", \"p50\": ";
        appendJsonNumber(os, metric->quantile(0.5));
        os << ", \"p90\": ";
        appendJsonNumber(os, metric->quantile(0.9));
        os << ", \"p99\": ";
        appendJsonNumber(os, metric->quantile(0.99));
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

std::string Registry::toJson() const {
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void Registry::reset() {
    const std::scoped_lock lock(mutex_);
    for (const auto& [name, metric] : counters_) {
        metric->reset();
    }
    for (const auto& [name, metric] : gauges_) {
        metric->reset();
    }
    for (const auto& [name, metric] : histograms_) {
        metric->reset();
    }
}

}  // namespace etcs::obs
