#include "obs/Trace.h"

#include <algorithm>
#include <set>

#include "core/Buffer.h"
#include "obs/Json.h"
#include "vmpi/Comm.h"

namespace walb::obs {

namespace {
// Process-wide epoch, taken at static initialization so that no clock read
// of a span predates it: all ranks of a ThreadComm world are threads of
// this process, so their timestamps share this origin.
const TraceRecorder::Clock::time_point kEpoch = TraceRecorder::Clock::now();
} // namespace

double TraceRecorder::toUs(Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

std::vector<TraceEvent> TraceRecorder::gather(vmpi::Comm& comm, const TraceRecorder& local) {
    SendBuffer sb;
    sb << std::uint32_t(local.rank_) << std::uint64_t(local.events_.size());
    for (const TraceEvent& e : local.events_)
        sb << e.name << std::int32_t(e.rank) << e.beginUs << e.durUs << e.depth;

    // walb-lint: allow(blocking): report-time collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    const auto all = comm.allgatherv(std::span<const std::uint8_t>(sb.data(), sb.size()));

    std::vector<TraceEvent> out;
    for (const auto& bytes : all) {
        RecvBuffer rb(bytes);
        std::uint32_t srcRank = 0;
        std::uint64_t n = 0;
        rb >> srcRank >> n;
        for (std::uint64_t i = 0; i < n; ++i) {
            TraceEvent e;
            std::int32_t r = 0;
            rb >> e.name >> r >> e.beginUs >> e.durUs >> e.depth;
            e.rank = int(r);
            out.push_back(std::move(e));
        }
    }
    return out;
}

std::uint64_t TraceRecorder::gatherDropped(vmpi::Comm& comm, const TraceRecorder& local) {
    SendBuffer sb;
    sb << std::uint64_t(local.dropped_);
    // walb-lint: allow(blocking): report-time collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    const auto all = comm.allgatherv(std::span<const std::uint8_t>(sb.data(), sb.size()));
    std::uint64_t total = 0;
    for (const auto& bytes : all) {
        RecvBuffer rb(bytes);
        std::uint64_t d = 0;
        rb >> d;
        total += d;
    }
    return total;
}

void TraceRecorder::writeChromeJson(std::ostream& os, const std::vector<TraceEvent>& events,
                                    const std::string& processName,
                                    std::uint64_t droppedEvents) {
    json::Writer w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("otherData")
        .beginObject()
        .kv("framework", processName)
        .kv("droppedEvents", droppedEvents)
        .endObject();
    w.key("traceEvents").beginArray();

    // One thread_name metadata record per rank so chrome://tracing labels
    // the tracks "rank 0", "rank 1", ...
    std::set<int> ranks;
    for (const TraceEvent& e : events) ranks.insert(e.rank);
    for (int r : ranks) {
        w.beginObject();
        w.kv("name", "thread_name").kv("ph", "M").kv("pid", 0).kv("tid", r);
        w.key("args").beginObject().kv("name", "rank " + std::to_string(r)).endObject();
        w.endObject();
    }

    for (const TraceEvent& e : events) {
        w.beginObject();
        w.kv("name", e.name).kv("cat", "phase").kv("ph", "X");
        w.kv("ts", e.beginUs).kv("dur", e.durUs);
        w.kv("pid", 0).kv("tid", e.rank);
        w.key("args").beginObject().kv("depth", std::uint64_t(e.depth)).endObject();
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace walb::obs
