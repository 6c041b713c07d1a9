#pragma once
/// \file Trace.h
/// Phase-scoped tracing for the observability layer: every rank records
/// begin/end events of its simulation phases (communicate / boundary /
/// collideStream / ...), and the recorded timelines are exported as Chrome
/// `trace_event` JSON — load the file in chrome://tracing (or Perfetto) and
/// the rank-level overlap of communication and compute of a ThreadComm run
/// becomes visible as one horizontal track per rank.
///
/// All ranks of a ThreadComm world share one process, so steady_clock
/// timestamps taken against a process-wide epoch are directly comparable
/// across ranks — precisely the property a cross-rank overlap visualization
/// needs. Event recording costs two clock reads and one vector push_back;
/// a cap bounds memory for long runs (excess events are counted, not
/// stored). The drivers time their step phases with PhaseClock, whose one
/// clock read per phase boundary feeds the trace and the TimingPool alike.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/Debug.h"
#include "core/Timer.h"

namespace walb::vmpi {
class Comm;
}

namespace walb::obs {

/// One completed phase scope on one rank.
struct TraceEvent {
    std::string name;    ///< phase name, e.g. "communication"
    int rank = 0;        ///< exported as the Chrome tid
    double beginUs = 0;  ///< microseconds since the process trace epoch
    double durUs = 0;    ///< duration in microseconds
    std::uint32_t depth = 0; ///< nesting depth at begin (0 = top level)
};

class TraceRecorder {
public:
    explicit TraceRecorder(int rank = 0, std::size_t maxEvents = std::size_t(1) << 20)
        : rank_(rank), maxEvents_(maxEvents) {}

    int rank() const { return rank_; }
    void setRank(int r) { rank_ = r; }

    /// Tracing is on by default; disable to make begin()/end()/span() no-ops.
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    using Clock = std::chrono::steady_clock;

    /// Microseconds from the process-wide trace epoch to `t`, resp. to now.
    static double toUs(Clock::time_point t);
    static double nowUs() { return toUs(Clock::now()); }

    void begin(const std::string& name) {
        if (!enabled_) return;
        open_.push_back({name, nowUs()});
    }

    void end() {
        if (!enabled_) return;
        WALB_ASSERT(!open_.empty(), "TraceRecorder::end() without begin()");
        const Open o = std::move(open_.back());
        open_.pop_back();
        push({o.name, rank_, o.beginUs, nowUs() - o.beginUs, std::uint32_t(open_.size())});
    }

    /// Records a completed span [begin, end] at the current nesting depth,
    /// for a phase whose clock reads were taken by the caller.
    void span(const std::string& name, Clock::time_point begin, Clock::time_point end) {
        if (!enabled_) return;
        const double beginUs = toUs(begin);
        push({name, rank_, beginUs, toUs(end) - beginUs, std::uint32_t(open_.size())});
    }

    const std::vector<TraceEvent>& events() const { return events_; }
    std::size_t dropped() const { return dropped_; }

    void clear() {
        events_.clear();
        open_.clear();
        dropped_ = 0;
    }

    /// Collective: concatenates the events of every rank's recorder in rank
    /// order; the full timeline is returned on all ranks.
    static std::vector<TraceEvent> gather(vmpi::Comm& comm, const TraceRecorder& local);

    /// Collective: total dropped-event count over all ranks' recorders, so
    /// an exported trace can carry an honest completeness marker.
    static std::uint64_t gatherDropped(vmpi::Comm& comm, const TraceRecorder& local);

    /// Writes events as a Chrome trace_event JSON document (one complete
    /// "X" event per TraceEvent, tid = rank, plus thread_name metadata).
    /// `droppedEvents` is recorded in otherData so consumers (and
    /// `walb_tracecat --stats`) can tell a complete timeline from a capped
    /// one.
    static void writeChromeJson(std::ostream& os, const std::vector<TraceEvent>& events,
                                const std::string& processName = "walb",
                                std::uint64_t droppedEvents = 0);

private:
    void push(TraceEvent e) {
        if (events_.size() >= maxEvents_) ++dropped_;
        else events_.push_back(std::move(e));
    }

    struct Open {
        std::string name;
        double beginUs;
    };

    int rank_;
    std::size_t maxEvents_;
    bool enabled_ = true;
    std::vector<TraceEvent> events_;
    std::vector<Open> open_;
    std::size_t dropped_ = 0;
};

/// Times the consecutive phases of one step: every phase ends at a single
/// clock read, which is also where the next phase begins, and that read
/// feeds both the phase's TimingPool timer and its trace span — so the two
/// cannot disagree.
class PhaseClock {
public:
    using Clock = TraceRecorder::Clock;

    PhaseClock(TimingPool& pool, TraceRecorder& trace)
        : pool_(pool), trace_(trace), last_(Clock::now()) {}

    /// End of the last phase (construction time before the first).
    Clock::time_point last() const { return last_; }

    /// Closes phase `name` at `end` (a fresh read by default) and returns
    /// its seconds.
    double lap(const std::string& name, Clock::time_point end = Clock::now()) {
        const double seconds = std::chrono::duration<double>(end - last_).count();
        pool_[name].addMeasurement(seconds);
        trace_.span(name, last_, end);
        last_ = end;
        return seconds;
    }

private:
    TimingPool& pool_;
    TraceRecorder& trace_;
    Clock::time_point last_;
};

/// RAII phase scope: begin on construction, end on destruction.
class ScopedTrace {
public:
    ScopedTrace(TraceRecorder& r, const std::string& name) : r_(r) { r_.begin(name); }
    ~ScopedTrace() { r_.end(); }
    ScopedTrace(const ScopedTrace&) = delete;
    ScopedTrace& operator=(const ScopedTrace&) = delete;

private:
    TraceRecorder& r_;
};

} // namespace walb::obs
