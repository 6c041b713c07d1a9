#pragma once
/// \file Timer.h
/// Wall-clock timing. TimingPool aggregates named timers and can be reduced
/// across virtual-MPI ranks to produce per-phase statistics like the
/// "percentage of time spent for MPI communication" reported in Figure 6.

#include <chrono>
#include <map>
#include <ostream>
#include <string>

#include "core/Debug.h"
#include "core/Types.h"

namespace walb {

class Timer {
public:
    void start() {
        WALB_DASSERT(!running_);
        begin_ = Clock::now();
        running_ = true;
    }

    void stop() {
        WALB_DASSERT(running_);
        const double dt = std::chrono::duration<double>(Clock::now() - begin_).count();
        running_ = false;
        total_ += dt;
        ++count_;
        if (dt < min_) min_ = dt;
        if (dt > max_) max_ = dt;
    }

    double total() const { return total_; }
    uint_t count() const { return count_; }
    double average() const { return count_ ? total_ / double(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return max_; }
    bool running() const { return running_; }

    /// Accumulate a duration measured externally.
    void addMeasurement(double seconds) {
        total_ += seconds;
        ++count_;
        if (seconds < min_) min_ = seconds;
        if (seconds > max_) max_ = seconds;
    }

    /// Merge pre-aggregated statistics of another timer (e.g. one received
    /// from a different rank) without losing the measurement count or the
    /// single-measurement extremes: totals and counts add, min/max combine.
    /// A zero-count aggregate is a no-op (its min/max carry no information).
    void mergeAggregate(double total, uint_t count, double mn, double mx) {
        if (count == 0) return;
        total_ += total;
        count_ += count;
        if (mn < min_) min_ = mn;
        if (mx > max_) max_ = mx;
    }

    void reset() { *this = Timer(); }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point begin_{};
    double total_ = 0.0;
    double min_ = 1e300;
    double max_ = 0.0;
    uint_t count_ = 0;
    bool running_ = false;
};

/// Named collection of timers, e.g. {"collideStream", "communication",
/// "boundary"}. Supports merging pools from different ranks.
class TimingPool {
public:
    Timer& operator[](const std::string& name) { return timers_[name]; }

    const Timer* find(const std::string& name) const {
        auto it = timers_.find(name);
        return it == timers_.end() ? nullptr : &it->second;
    }

    /// Sum of totals of all timers — the denominator for phase percentages.
    double grandTotal() const {
        double s = 0;
        for (const auto& [name, t] : timers_) s += t.total();
        return s;
    }

    /// Fraction of grandTotal spent in the given timer (0 if unknown).
    double fraction(const std::string& name) const {
        const Timer* t = find(name);
        const double g = grandTotal();
        return (t && g > 0) ? t->total() / g : 0.0;
    }

    /// Merge another pool into this one timer-by-timer: totals and
    /// measurement counts add (averages stay meaningful), and the
    /// single-measurement min/max propagate instead of being collapsed into
    /// one aggregate pseudo-measurement.
    void merge(const TimingPool& other) {
        for (const auto& [name, t] : other.timers_)
            timers_[name].mergeAggregate(t.total(), t.count(), t.min(), t.max());
    }

    void reset() { timers_.clear(); }

    auto begin() const { return timers_.begin(); }
    auto end() const { return timers_.end(); }

    void print(std::ostream& os) const;

private:
    std::map<std::string, Timer> timers_;
};

} // namespace walb
