#include "serve/Scheduler.h"

#include <algorithm>
#include <optional>
#include <thread>

#include "core/Debug.h"
#include "core/Logging.h"
#include "core/Timer.h"
#include "obs/PerfDiag.h"
#include "recover/RecoveryManager.h"
#include "serve/Scenario.h"
#include "sim/ChunkedRun.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/SubComm.h"
#include "vmpi/Tags.h"

namespace walb::serve {

namespace {

constexpr int kDispatcher = 0;

// ---- wire protocol ---------------------------------------------------------

enum class CtrlKind : std::uint8_t { Grant = 1, Preempt = 2, Shutdown = 3 };

struct CtrlMsg {
    CtrlKind kind = CtrlKind::Shutdown;
    std::uint64_t jobId = 0;       ///< Preempt: the job being evicted
    JobSpec spec;                  ///< Grant/launch payload
    bool resume = false;           ///< Grant: an on-disk checkpoint exists
    int generation = 0;            ///< launch fan-out: SubComm generation
    std::vector<std::int32_t> members; ///< launch fan-out: current gang
};

std::vector<std::uint8_t> encodeCtrl(const CtrlMsg& m) {
    SendBuffer sb;
    sb << std::uint8_t(m.kind) << m.jobId << std::uint8_t(m.resume)
       << std::int32_t(m.generation) << m.members;
    writeSpec(sb, m.spec);
    return sb.release();
}

CtrlMsg decodeCtrl(std::vector<std::uint8_t> raw) {
    RecvBuffer rb(std::move(raw));
    CtrlMsg m;
    std::uint8_t kind = 0, resume = 0;
    std::int32_t generation = 0;
    rb >> kind >> m.jobId >> resume >> generation >> m.members;
    m.kind = CtrlKind(kind);
    m.resume = resume != 0;
    m.generation = generation;
    m.spec = readSpec(rb);
    return m;
}

enum class EventKind : std::uint8_t { Done = 1, Preempted = 2, Failed = 3 };

struct EventMsg {
    EventKind kind = EventKind::Done;
    std::uint64_t jobId = 0;
    std::int32_t gangId = -1;
    std::uint64_t step = 0;
    std::uint64_t digest = 0;
    bool hasCheckpoint = false;
    std::uint64_t checkpointStep = 0;
    std::uint32_t checkpointSaveFailures = 0; ///< saves of this attempt that returned false
    double cellSeconds = 0;
    std::vector<std::int32_t> members; ///< Failed: the survivors
};

std::vector<std::uint8_t> encodeEvent(const EventMsg& e) {
    SendBuffer sb;
    sb << std::uint8_t(e.kind) << e.jobId << e.gangId << e.step << e.digest
       << std::uint8_t(e.hasCheckpoint) << e.checkpointStep << e.checkpointSaveFailures
       << e.cellSeconds << e.members;
    return sb.release();
}

EventMsg decodeEvent(std::vector<std::uint8_t> raw) {
    RecvBuffer rb(std::move(raw));
    EventMsg e;
    std::uint8_t kind = 0, hasCkpt = 0;
    rb >> kind >> e.jobId >> e.gangId >> e.step >> e.digest >> hasCkpt >> e.checkpointStep >>
        e.checkpointSaveFailures >> e.cellSeconds >> e.members;
    e.kind = EventKind(kind);
    e.hasCheckpoint = hasCkpt != 0;
    return e;
}

std::string checkpointPath(const ServeOptions& opt, std::uint64_t jobId) {
    return opt.checkpointDir + "/job" + std::to_string(jobId) + ".wckp";
}

// ---- one job attempt on a gang ---------------------------------------------

/// Runs one attempt of `spec` on the gang, all members calling in. The
/// per-attempt SubComm generation isolates this attempt's traffic. The
/// serve use of sim::ChunkedRun: at each chunk end the leader (sub rank 0)
/// polls the dispatcher and broadcasts the continue/preempt word, so every
/// member stops at the same step; the boundary saves the job's checkpoint
/// every `checkpointEvery` steps and on preemption. The completed state is
/// saved once more as the checkpoint of record; failed saves are counted,
/// and only a successful one marks the job as having a checkpoint. Returns
/// the attempt's event (Failed carries the surviving pool ranks), or
/// nullopt when this rank is dead and must stop serving.
std::optional<EventMsg> runJob(vmpi::Comm& pool, const std::vector<int>& members,
                               int generation, const JobSpec& spec, bool resume,
                               const ServeOptions& opt) {
    EventMsg out;
    out.jobId = spec.id;
    vmpi::SubComm sub(pool, members, generation);
    sub.setRecvDeadline(opt.recvDeadline);
    const std::string ckpt = checkpointPath(opt, spec.id);
    std::optional<sim::DistributedSimulation> sim;
    std::optional<sim::ChunkedRun> run;
    try {
        const auto setup = makeScenarioSetup(spec, std::uint32_t(sub.size()));
        const auto flags = scenarioFlags(spec);
        const auto makeSim = [&] {
            sim.emplace(sub, setup, flags);
            sim->setWallVelocity({real_c(spec.lidVelocity), 0, 0});
            sim->setFlightRecorderDumpPrefix(opt.checkpointDir + "/serve_job" +
                                             std::to_string(spec.id));
            if (opt.stepProbe)
                sim->setPreStepCallback([probe = opt.stepProbe, id = spec.id](std::uint64_t step) {
                    probe(id, step);
                });
        };
        makeSim();
        if (resume) {
            std::string err;
            if (sim->loadCheckpoint(ckpt, &err)) {
                out.hasCheckpoint = true;
            } else {
                // Torn/corrupt checkpoint (e.g. the previous attempt died
                // mid-save): rebuild pristine and rerun from step 0 — the
                // job loses progress but never its answer.
                WALB_LOG_ERROR("job " << spec.id << ": resume from '" << ckpt
                                      << "' failed (" << err << "), restarting");
                makeSim();
            }
        }
        out.checkpointStep = sim->currentStep();
        const lbm::TRT op = scenarioCollision(spec);
        const std::uint64_t fluid = sim->globalFluidCells();
        Timer timer;
        timer.start();
        const auto boundary = [&](std::uint64_t step) {
            std::vector<std::uint8_t> word{0};
            std::vector<std::uint8_t> raw;
            while (sub.rank() == 0 && pool.tryRecv(kDispatcher, vmpi::tags::kServeCtrl, raw)) {
                const CtrlMsg c = decodeCtrl(std::move(raw));
                raw.clear();
                // Only a Preempt for THIS job counts; anything else is a
                // stale frame from an earlier attempt — dropped.
                if (c.kind == CtrlKind::Preempt && c.jobId == spec.id) word[0] = 1;
            }
            sub.broadcast(word, 0);
            if (step >= spec.steps) return true; // done: the final save follows
            const bool preempt = !word.empty() && word[0] != 0;
            if (preempt || (opt.checkpointEvery > 0 && step % opt.checkpointEvery == 0)) {
                std::string err;
                if (!sim->saveCheckpoint(ckpt, &err)) {
                    WALB_LOG_ERROR("job " << spec.id << ": checkpoint to '" << ckpt
                                          << "' failed: " << err);
                    ++out.checkpointSaveFailures;
                } else {
                    out.hasCheckpoint = true;
                    out.checkpointStep = step;
                }
            }
            return !preempt;
        };
        run.emplace(*sim, opt.chunkSteps, boundary);
        const bool finished = run->run(spec.steps, op);
        timer.stop();
        out.step = run->boundaryStep;
        out.cellSeconds = double(fluid) * timer.total();
        if (!finished) {
            out.kind = EventKind::Preempted;
            return out;
        }
        out.digest = sim->stateDigest();
        // Final checkpoint of record: the artifact whose digest the
        // acceptance drill compares against the serial baseline.
        std::string err;
        if (sim->saveCheckpoint(ckpt, &err)) {
            out.hasCheckpoint = true;
            out.checkpointStep = out.step;
        } else {
            WALB_LOG_ERROR("job " << spec.id << ": final checkpoint failed: " << err);
            ++out.checkpointSaveFailures;
        }
        out.kind = EventKind::Done;
        return out;
    } catch (const vmpi::CommError& e) {
        if (sim) sim->abortGhostExchange();
        if (run) out.step = run->boundaryStep;
        if (recover::RecoveryManager::isSelfDeath(e, pool.rank())) return std::nullopt;
        // Epoch 0 is safe even across repeated gang failures: the gang
        // SubComm's per-attempt generation shift already isolates this
        // agreement's gossip from every other attempt's.
        try {
            const vmpi::AgreementResult verdict = vmpi::agreeAndShrink(
                sub, sub.subRankOf(e.peer), {}, opt.agreement, /*epoch=*/0);
            for (int r = 0; r < sub.size(); ++r)
                if (!verdict.dead[std::size_t(r)]) out.members.push_back(sub.parentRank(r));
        } catch (const vmpi::CommError& excommunicated) {
            if (!recover::RecoveryManager::isSelfDeath(excommunicated, sub.rank())) throw;
            WALB_LOG_ERROR("gang agreement excommunicated this rank (pool rank "
                           << pool.rank() << "): " << excommunicated.what());
            return std::nullopt;
        } catch (const vmpi::AgreementError& lonely) {
            // "Heard nobody, would bury everyone" — the agreement refuses to
            // trust this rank's own connectivity. Stop serving: wedging the
            // whole pool on an unkillable exception is the one unacceptable
            // outcome, and the dispatcher requeues the job either way.
            WALB_LOG_ERROR("gang agreement gave up on pool rank " << pool.rank() << ": "
                                                                  << lonely.what());
            return std::nullopt;
        }
        out.kind = EventKind::Failed;
        return out;
    }
}

} // namespace

// ---- gang carve ------------------------------------------------------------

GangLayout GangLayout::carve(int poolSize, int gangSize) {
    WALB_ASSERT(gangSize >= 1, "gangSize must be >= 1");
    GangLayout layout;
    std::vector<int> current;
    for (int r = 1; r < poolSize; ++r) {
        current.push_back(r);
        if (int(current.size()) == gangSize) {
            layout.gangs.push_back(std::move(current));
            current.clear();
        }
    }
    if (!current.empty()) layout.gangs.push_back(std::move(current));
    return layout;
}

int GangLayout::gangOf(int poolRank) const {
    for (std::size_t g = 0; g < gangs.size(); ++g)
        if (std::find(gangs[g].begin(), gangs[g].end(), poolRank) != gangs[g].end())
            return int(g);
    return -1;
}

// ---- worker ----------------------------------------------------------------

void Scheduler::work(vmpi::Comm& pool, const ServeOptions& opt) {
    const GangLayout layout = GangLayout::carve(pool.size(), opt.gangSize);
    const int myGang = layout.gangOf(pool.rank());
    if (myGang < 0) return; // dispatcher, or an uncarved rank
    std::vector<int> members = layout.gangs[std::size_t(myGang)];
    int generation = 0;
    for (;;) {
        const bool leader = pool.rank() == members.front();
        std::vector<std::uint8_t> raw;
        const bool have =
            leader ? pool.tryRecv(kDispatcher, vmpi::tags::kServeCtrl, raw)
                   : pool.tryRecv(members.front(), vmpi::tags::kServeGangCtrl, raw);
        if (!have) {
            std::this_thread::sleep_for(opt.idlePoll);
            continue;
        }
        CtrlMsg msg = decodeCtrl(std::move(raw));
        if (msg.kind == CtrlKind::Shutdown) {
            if (leader)
                for (std::size_t i = 1; i < members.size(); ++i)
                    pool.send(members[i], vmpi::tags::kServeGangCtrl, encodeCtrl(msg));
            return;
        }
        if (msg.kind == CtrlKind::Preempt) continue; // stale: job already over
        // Grant (leader) / launch fan-out (member).
        if (leader) {
            ++generation;
            msg.generation = generation;
            msg.members.assign(members.begin(), members.end());
            for (std::size_t i = 1; i < members.size(); ++i)
                pool.send(members[i], vmpi::tags::kServeGangCtrl, encodeCtrl(msg));
        } else {
            // Adopt the leader's view — authoritative after recoveries.
            members.assign(msg.members.begin(), msg.members.end());
            generation = msg.generation;
        }
        std::optional<EventMsg> ev =
            runJob(pool, members, generation, msg.spec, msg.resume, opt);
        if (!ev) return; // this rank is dead: stop serving, peers shrink around it
        ev->gangId = myGang;
        // After a failure the NEW leader reports — the old one may be the
        // corpse.
        if (ev->kind == EventKind::Failed) members.assign(ev->members.begin(), ev->members.end());
        if (pool.rank() == members.front())
            pool.send(kDispatcher, vmpi::tags::kServeEvent, encodeEvent(*ev));
    }
}

// ---- dispatcher ------------------------------------------------------------

ServeReport Scheduler::dispatch(vmpi::Comm& pool, const ServeOptions& opt,
                                std::vector<JobSpec> jobs) {
    WALB_ASSERT(pool.rank() == kDispatcher, "dispatch() runs on pool rank 0");
    WALB_ASSERT(pool.size() >= 2, "a dispatcher needs at least one worker rank");
    for (const auto& [tenant, quota] : opt.tenantQuotas)
        WALB_ASSERT(quota >= 1, "tenant '" << tenant << "' quota must be >= 1");

    JobQueue queue;
    for (auto& spec : jobs) queue.push(std::move(spec));
    for (const auto& [tenant, quota] : opt.tenantQuotas)
        queue.setTenantQuota(tenant, quota);

    struct GangState {
        std::vector<int> members;
        bool busy = false;
        std::uint64_t jobId = 0;
        bool preemptPending = false;
    };
    const GangLayout layout = GangLayout::carve(pool.size(), opt.gangSize);
    std::vector<GangState> gangs(layout.gangs.size());
    for (std::size_t g = 0; g < layout.gangs.size(); ++g)
        gangs[g].members = layout.gangs[g];
    WALB_ASSERT(!gangs.empty(), "pool too small to carve any gang");

    obs::MetricsRegistry localMetrics;
    obs::MetricsRegistry& metrics = opt.metrics ? *opt.metrics : localMetrics;
    const std::vector<double> edges = obs::logHistogramEdges(1e-4, 1e4, 2);
    obs::Histogram& waitHist = metrics.histogram("serve.wait_seconds", edges);
    obs::Histogram& turnaroundHist = metrics.histogram("serve.turnaround_seconds", edges);
    metrics.gauge("serve.gangs").set(double(gangs.size()));

    const auto t0 = std::chrono::steady_clock::now();
    const auto secondsSinceStart = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    };
    const int initialWorkers = pool.size() - 1;
    ServeReport report;
    report.gangs = int(gangs.size());

    const auto refreshGauges = [&] {
        metrics.gauge("serve.jobs_queued").set(double(queue.queuedCount()));
        metrics.gauge("serve.jobs_running").set(double(queue.runningCount()));
    };

    const auto handleEvent = [&](const EventMsg& ev) {
        WALB_ASSERT(ev.gangId >= 0 && std::size_t(ev.gangId) < gangs.size(),
                    "event names unknown gang " << ev.gangId);
        GangState& gang = gangs[std::size_t(ev.gangId)];
        JobRecord& rec = queue.record(ev.jobId);
        rec.cellSeconds += ev.cellSeconds;
        rec.hasCheckpoint = rec.hasCheckpoint || ev.hasCheckpoint;
        rec.resumeHint = ev.checkpointStep;
        report.checkpointSaveFailures += ev.checkpointSaveFailures;
        gang.busy = false;
        gang.preemptPending = false;
        switch (ev.kind) {
            case EventKind::Done: {
                queue.complete(ev.jobId, ev.digest, ev.step);
                rec.turnaroundSeconds = secondsSinceStart();
                turnaroundHist.record(rec.turnaroundSeconds);
                metrics.counter("serve.jobs_completed").inc();
                // Per-tenant accounting rides on runtime-built series
                // names — one gauge per tenant.
                const std::string tenantSeries =
                    "serve.tenant_cell_seconds." + rec.spec.tenant;
                auto& stats = report.tenants[rec.spec.tenant];
                ++stats.jobs;
                stats.cellSeconds += rec.cellSeconds;
                metrics.gauge(tenantSeries).set(stats.cellSeconds);
                break;
            }
            case EventKind::Preempted:
                queue.requeue(ev.jobId, /*preempted=*/true);
                metrics.counter("serve.jobs_preempted").inc();
                metrics.counter("serve.jobs_requeued").inc();
                ++report.preemptions;
                ++report.requeues;
                break;
            case EventKind::Failed: {
                queue.requeue(ev.jobId, /*preempted=*/false);
                gang.members.assign(ev.members.begin(), ev.members.end());
                metrics.counter("serve.jobs_failed").inc();
                metrics.counter("serve.jobs_requeued").inc();
                ++report.failedAttempts;
                ++report.requeues;
                int alive = 0;
                for (const auto& g : gangs) alive += int(g.members.size());
                metrics.gauge("serve.pool_ranks_lost").set(double(initialWorkers - alive));
                WALB_LOG_INFO("serve: job " << ev.jobId << " failed on gang "
                                            << ev.gangId << ", "
                                            << gang.members.size()
                                            << " survivors, requeued");
                break;
            }
        }
    };

    refreshGauges();
    while (!queue.allCompleted()) {
        bool progressed = false;
        // 1. Feed idle gangs.
        for (std::size_t g = 0; g < gangs.size(); ++g) {
            GangState& gang = gangs[g];
            if (gang.busy || gang.members.empty()) continue;
            const auto id = queue.claim(queue.completedCount());
            if (!id) break; // deterministic: nothing runnable for anyone
            JobRecord& rec = queue.record(*id);
            rec.gang = int(g);
            if (rec.attempts == 1) {
                rec.waitSeconds = secondsSinceStart();
                waitHist.record(rec.waitSeconds);
            }
            CtrlMsg grant;
            grant.kind = CtrlKind::Grant;
            grant.jobId = *id;
            grant.spec = rec.spec;
            grant.resume = rec.hasCheckpoint;
            pool.send(gang.members.front(), vmpi::tags::kServeCtrl, encodeCtrl(grant));
            gang.busy = true;
            gang.jobId = *id;
            progressed = true;
        }
        // 2. Preempt: a higher-priority job is eligible but every live
        //    gang is busy — evict the lowest-priority running job.
        if (opt.preemption) {
            bool idleGang = false;
            for (const auto& gang : gangs)
                if (!gang.busy && !gang.members.empty()) idleGang = true;
            const auto best = queue.bestQueuedPriority(queue.completedCount());
            const auto victim = queue.lowestPriorityRunning();
            if (!idleGang && best && victim &&
                queue.record(*victim).spec.priority < *best) {
                GangState& gang = gangs[std::size_t(queue.record(*victim).gang)];
                if (!gang.preemptPending && gang.jobId == *victim) {
                    CtrlMsg preempt;
                    preempt.kind = CtrlKind::Preempt;
                    preempt.jobId = *victim;
                    pool.send(gang.members.front(), vmpi::tags::kServeCtrl,
                              encodeCtrl(preempt));
                    gang.preemptPending = true;
                    progressed = true;
                }
            }
        }
        // 3. Drain events — from EVERY pool rank: after a gang failure the
        //    reporter is the new leader, whoever that now is.
        for (int r = 1; r < pool.size(); ++r) {
            std::vector<std::uint8_t> raw;
            while (pool.tryRecv(r, vmpi::tags::kServeEvent, raw)) {
                handleEvent(decodeEvent(std::move(raw)));
                raw.clear();
                progressed = true;
            }
        }
        refreshGauges();
        if (!progressed) std::this_thread::sleep_for(opt.idlePoll);
    }

    // Shutdown every surviving gang (leader fans out to its members).
    CtrlMsg shutdown;
    shutdown.kind = CtrlKind::Shutdown;
    int alive = 0;
    for (const auto& gang : gangs) {
        if (gang.members.empty()) continue;
        alive += int(gang.members.size());
        pool.send(gang.members.front(), vmpi::tags::kServeCtrl, encodeCtrl(shutdown));
    }

    report.jobs = queue.records();
    report.completed = queue.completedCount();
    report.ranksLost = initialWorkers - alive;
    report.elapsedSeconds = secondsSinceStart();
    refreshGauges();
    metrics.gauge("serve.pool_ranks_lost").set(double(report.ranksLost));
    double totalCellSeconds = 0;
    for (const auto& [tenant, stats] : report.tenants) totalCellSeconds += stats.cellSeconds;
    metrics.gauge("serve.cell_seconds").set(totalCellSeconds);
    return report;
}

// ---- inline 1-rank mode ----------------------------------------------------

ServeReport Scheduler::runInline(vmpi::Comm& pool, const ServeOptions& opt,
                                 std::vector<JobSpec> jobs) {
    JobQueue queue;
    for (auto& spec : jobs) queue.push(std::move(spec));
    for (const auto& [tenant, quota] : opt.tenantQuotas)
        queue.setTenantQuota(tenant, quota);
    const std::vector<int> self{pool.rank()};
    int generation = 0;
    const auto t0 = std::chrono::steady_clock::now();
    ServeReport report;
    report.gangs = 1;
    while (!queue.allCompleted()) {
        const auto id = queue.claim(queue.completedCount());
        WALB_ASSERT(id, "inline serve stalled with jobs still queued");
        JobRecord& rec = queue.record(*id);
        const std::optional<EventMsg> out = runJob(pool, self, ++generation, rec.spec,
                                                   rec.hasCheckpoint, opt);
        WALB_ASSERT(out && out->kind == EventKind::Done,
                    "inline job " << *id << " did not complete");
        rec.cellSeconds += out->cellSeconds;
        rec.hasCheckpoint = rec.hasCheckpoint || out->hasCheckpoint;
        report.checkpointSaveFailures += out->checkpointSaveFailures;
        queue.complete(*id, out->digest, out->step);
        auto& stats = report.tenants[rec.spec.tenant];
        ++stats.jobs;
        stats.cellSeconds += rec.cellSeconds;
    }
    report.jobs = queue.records();
    report.completed = queue.completedCount();
    report.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return report;
}

} // namespace walb::serve
