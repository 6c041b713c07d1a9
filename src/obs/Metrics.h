#pragma once
/// \file Metrics.h
/// Named metrics for the observability layer (`walb::obs`): counters,
/// gauges and fixed-bucket histograms collected per rank, cheap enough for
/// per-time-step use, and reducible across virtual-MPI ranks.
///
/// The paper validates its scaling runs with exactly this kind of
/// telemetry: MLUP/s per core and the percentage of time spent in MPI
/// communication, reduced over all processes (Figures 6/7). A
/// MetricsRegistry is owned per rank (no locking — same ownership model as
/// TimingPool); `reduce()` is a collective over a vmpi communicator and
/// yields min/avg/max/sum statistics of every metric across the world.
///
/// Hot-path usage caches the handle once:
///     obs::Counter& steps = registry.counter("sim.steps");
///     ... per step: steps.inc();

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/Debug.h"

namespace walb::vmpi {
class Comm;
}

namespace walb::obs {

/// Monotonically increasing integral metric. Saturates at the maximum
/// representable value instead of wrapping, so reduced sums never jump
/// backwards when a rank overflows.
class Counter {
public:
    static constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

    void inc(std::uint64_t n = 1) { value_ = (value_ > kMax - n) ? kMax : value_ + n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

private:
    std::uint64_t value_ = 0;
};

/// Last-value metric (e.g. MLUP/s of the finished run, current fluid-cell
/// count). Reduction reports min/avg/max/sum over ranks.
class Gauge {
public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

private:
    double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket i counts samples x with
/// edge[i-1] < x <= edge[i]; one implicit overflow bucket counts x beyond
/// the last edge. Also tracks sum/count/min/max of all samples.
class Histogram {
public:
    Histogram() : counts_(1, 0) {} // single overflow bucket only
    explicit Histogram(std::vector<double> upperEdges) : edges_(std::move(upperEdges)) {
        for (std::size_t i = 1; i < edges_.size(); ++i)
            WALB_ASSERT(edges_[i - 1] < edges_[i], "histogram edges must increase");
        counts_.assign(edges_.size() + 1, 0);
    }

    void record(double x) {
        std::size_t b = 0;
        while (b < edges_.size() && x > edges_[b]) ++b;
        ++counts_[b];
        sum_ += x;
        ++count_;
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
    }

    const std::vector<double>& edges() const { return edges_; }
    /// Per-bucket counts; size edges().size() + 1, last entry = overflow.
    const std::vector<std::uint64_t>& counts() const { return counts_; }
    std::uint64_t overflow() const { return counts_.back(); }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double average() const { return count_ ? sum_ / double(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /// Quantile estimate (q in [0,1]) by linear interpolation within the
    /// bucket holding the q-th sample. The first bucket's lower bound and
    /// the overflow bucket's upper bound are taken from the observed
    /// min/max, so estimates are always within [min(), max()]. Exact for
    /// min/max; within one bucket width otherwise.
    double quantile(double q) const {
        if (count_ == 0) return 0.0;
        if (q <= 0.0) return min();
        if (q >= 1.0) return max();
        const double target = q * double(count_);
        double cum = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            const double c = double(counts_[b]);
            if (c > 0 && cum + c >= target) {
                double lo = b == 0 ? min_ : std::max(edges_[b - 1], min_);
                double hi = b < edges_.size() ? std::min(edges_[b], max_) : max_;
                if (hi < lo) hi = lo;
                return lo + (hi - lo) * ((target - cum) / c);
            }
            cum += c;
        }
        return max();
    }

    /// Bucket-wise merge of another histogram with identical edges.
    void merge(const Histogram& other) {
        WALB_ASSERT(edges_ == other.edges_, "histogram edge mismatch in merge");
        mergeAggregate(other.counts(), other.sum_, other.count_,
                       other.count_ ? other.min_ : std::numeric_limits<double>::max(),
                       other.count_ ? other.max_ : std::numeric_limits<double>::lowest());
    }

    /// Splices pre-aggregated per-bucket counts and moment statistics into
    /// this histogram (used by the cross-rank reduction, which transports
    /// aggregates, not samples). `mn`/`mx` are ignored when `count` == 0.
    void mergeAggregate(const std::vector<std::uint64_t>& bucketCounts, double sampleSum,
                        std::uint64_t sampleCount, double mn, double mx) {
        WALB_ASSERT(bucketCounts.size() == counts_.size(),
                    "histogram bucket-count mismatch");
        for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += bucketCounts[i];
        sum_ += sampleSum;
        count_ += sampleCount;
        if (sampleCount > 0) {
            if (mn < min_) min_ = mn;
            if (mx > max_) max_ = mx;
        }
    }

private:
    std::vector<double> edges_;
    std::vector<std::uint64_t> counts_;
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::max();
    double max_ = std::numeric_limits<double>::lowest();
};

// ---- reduced (cross-rank) views --------------------------------------------

struct ReducedCounter {
    std::uint64_t sum = 0; ///< over all ranks (saturating)
    std::uint64_t min = Counter::kMax;
    std::uint64_t max = 0;
    int ranks = 0; ///< ranks that registered this counter
};

struct ReducedGauge {
    double min = std::numeric_limits<double>::max();
    double max = std::numeric_limits<double>::lowest();
    double sum = 0.0;
    int ranks = 0;
    double avg() const { return ranks ? sum / double(ranks) : 0.0; }
};

struct ReducedMetrics {
    int worldSize = 1;
    std::map<std::string, ReducedCounter> counters;
    std::map<std::string, ReducedGauge> gauges;
    std::map<std::string, Histogram> histograms; ///< bucket-wise summed

    /// Cross-rank mean of gauge `name`; `fallback` when no rank set it.
    double gaugeAvg(const std::string& name, double fallback = 0) const {
        const auto it = gauges.find(name);
        return it == gauges.end() ? fallback : it->second.avg();
    }

    /// Writes the reduced snapshot as one JSON object.
    void writeJson(std::ostream& os) const;
};

// ---- registry --------------------------------------------------------------

/// Per-rank collection of named metrics. Handles returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime
/// (node-based map storage), so hot loops pay a single lookup.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }

    /// Creates the histogram on first use with the given bucket edges;
    /// subsequent calls must pass identical edges (or none via find()).
    Histogram& histogram(const std::string& name, std::vector<double> upperEdges) {
        auto [it, inserted] = histograms_.try_emplace(name, std::move(upperEdges));
        WALB_ASSERT(inserted || upperEdges.empty() || it->second.edges() == upperEdges,
                    "histogram '" << name << "' re-registered with different edges");
        return it->second;
    }

    const Counter* findCounter(const std::string& name) const {
        auto it = counters_.find(name);
        return it == counters_.end() ? nullptr : &it->second;
    }
    const Gauge* findGauge(const std::string& name) const {
        auto it = gauges_.find(name);
        return it == gauges_.end() ? nullptr : &it->second;
    }
    const Histogram* findHistogram(const std::string& name) const {
        auto it = histograms_.find(name);
        return it == histograms_.end() ? nullptr : &it->second;
    }

    const std::map<std::string, Counter>& counters() const { return counters_; }
    const std::map<std::string, Gauge>& gauges() const { return gauges_; }
    const std::map<std::string, Histogram>& histograms() const { return histograms_; }

    void reset() {
        counters_.clear();
        gauges_.clear();
        histograms_.clear();
    }

    /// Collective over `comm`: every rank contributes its registry, every
    /// rank receives the same reduced view (allgather-based — registries may
    /// name different metrics on different ranks; names are merged).
    ReducedMetrics reduce(vmpi::Comm& comm) const;

    /// Writes the local (single-rank) snapshot as one JSON object.
    void writeJson(std::ostream& os) const;

private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace walb::obs
