#pragma once
/// \file Scheduler.h
/// Gang scheduler of the scenario service (walb::serve).
///
/// The rank pool is carved once, statically: pool rank 0 is the
/// dispatcher (it owns the JobQueue, all accounting and every scheduling
/// decision; it runs no simulation), ranks 1..N-1 form gangs of
/// `ServeOptions::gangSize` consecutive ranks (a smaller remainder gang
/// absorbs the tail). Each gang runs one job at a time on a fresh
/// per-attempt SubComm whose generation shift isolates the attempt's
/// traffic — a preempted or killed attempt's stale ghost-exchange frames
/// can never match a later attempt's receives.
///
/// Control plane (pool comm, serve tag band, all polling via tryRecv — the
/// dispatcher never blocks on a possibly-dead rank):
///
///   dispatcher --kServeCtrl-->  gang leader   Grant / Preempt / Shutdown
///   leader    --kServeGangCtrl--> members     job launch / shutdown fan-out
///   leader(*) --kServeEvent-->  dispatcher    Done / Preempted / Failed
///
/// (*) after a gang failure the NEW leader (lowest surviving pool rank)
/// reports, carrying the survivor list so the dispatcher can update its
/// gang map and requeue the job from its last checkpoint.
///
/// Preemption is checkpoint-backed and chunk-aligned: a job attempt is a
/// sim::ChunkedRun whose boundary callable has the leader poll for a
/// Preempt verdict and broadcast a continue/preempt word to the gang (over
/// the job SubComm), so every member stops at the identical step, writes the collective checkpoint, and the job resumes
/// later — on any gang, at any size — bit-exactly.
///
/// Failure handling is gang-scoped: the survivors run the recovery
/// pipeline's agree-and-shrink (vmpi::agreeAndShrink) over the gang
/// SubComm, and the job is requeued. A gang whose
/// every member dies cannot report — keep gangs ≥ 2 ranks when injecting
/// faults, or accept that such jobs need an external watchdog.

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/Metrics.h"
#include "serve/Job.h"
#include "serve/JobQueue.h"
#include "vmpi/Agreement.h"
#include "vmpi/Comm.h"

namespace walb::serve {

struct ServeOptions {
    /// Ranks per gang (pool rank 0 is the dispatcher and joins no gang).
    int gangSize = 2;
    /// Steps between preemption-word exchanges (the scheduling quantum).
    std::uint64_t chunkSteps = 4;
    /// Steps between periodic checkpoints while a job runs.
    std::uint64_t checkpointEvery = 8;
    /// Directory for per-job checkpoints (`job<id>.wckp`) and flight dumps.
    std::string checkpointDir = ".";
    /// Failure detector: every blocking recv in a job surfaces CommError
    /// after this long. Also inherited by the job SubComms.
    std::chrono::milliseconds recvDeadline{250};
    /// Gang failure-agreement knobs (window must exceed the worst-case
    /// skew with which members notice a death: ~2 recv deadlines).
    vmpi::AgreementOptions agreement{};
    /// Allow higher-priority queued jobs to evict running lower-priority
    /// ones (checkpoint + requeue).
    bool preemption = true;
    /// Per-tenant cap on concurrently running jobs (absent = unlimited;
    /// must be >= 1, a zero quota would starve the queue forever).
    std::map<std::string, int> tenantQuotas;
    /// Dispatcher/worker idle-poll sleep.
    std::chrono::microseconds idlePoll{200};
    /// Fault-drill seam: called on every rank at the top of every simulated
    /// step with the job's id and the step index (a resumed attempt goes on
    /// from its checkpoint's step) — wire FaultyComm::beginStep here to
    /// kill a rank at the same point of the same job on every run, however
    /// the queue was interleaved.
    std::function<void(std::uint64_t jobId, std::uint64_t step)> stepProbe;
    /// Dispatcher-side metrics sink (serve.* series, per-tenant
    /// cell-second gauges). Optional.
    obs::MetricsRegistry* metrics = nullptr;
};

/// The static carve of the pool into gangs.
struct GangLayout {
    std::vector<std::vector<int>> gangs; ///< sorted pool ranks per gang

    /// Ranks 1..poolSize-1 in consecutive groups of gangSize; a remainder
    /// of fewer ranks forms a final smaller gang.
    static GangLayout carve(int poolSize, int gangSize);
    /// Gang index of a pool rank, -1 for the dispatcher.
    int gangOf(int poolRank) const;
};

struct TenantStats {
    std::uint64_t jobs = 0;     ///< completed jobs
    double cellSeconds = 0;     ///< accumulated fluid-cells × wall-seconds
};

/// Dispatcher-side outcome of a whole workload.
struct ServeReport {
    std::vector<JobRecord> jobs; ///< final per-job records (id order)
    std::map<std::string, TenantStats> tenants;
    std::uint64_t completed = 0;
    std::uint64_t requeues = 0;        ///< preemptions + failure requeues
    std::uint64_t preemptions = 0;
    std::uint64_t failedAttempts = 0;  ///< gang-failure requeues
    std::uint64_t checkpointSaveFailures = 0; ///< job checkpoint saves that returned false
    int gangs = 0;                     ///< gangs at carve time
    int ranksLost = 0;                 ///< pool ranks dead at shutdown
    double elapsedSeconds = 0;
};

class Scheduler {
public:
    /// Dispatcher loop (call on pool rank 0): feeds the queue to the
    /// gangs, preempts, requeues, accounts; returns when every job has
    /// completed and every surviving worker was told to shut down.
    static ServeReport dispatch(vmpi::Comm& pool, const ServeOptions& opt,
                                std::vector<JobSpec> jobs);

    /// Worker loop (call on every pool rank >= 1): serves jobs until the
    /// dispatcher's Shutdown, or until this rank dies (fault drills).
    static void work(vmpi::Comm& pool, const ServeOptions& opt);

    /// Degenerate 1-rank mode: runs the whole queue inline, one job at a
    /// time, on the calling rank (used by the serial baseline and by
    /// pools too small to carve a gang).
    static ServeReport runInline(vmpi::Comm& pool, const ServeOptions& opt,
                                 std::vector<JobSpec> jobs);
};

} // namespace walb::serve
