/// \file fig_serve.cpp
/// Fleet drill of the scenario service (walb::serve), gated by
/// bench/gates/serve_smoke.json: a 100-job parameter study (tenants x
/// geometry families x Reynolds numbers) queued onto a 5-rank pool — one
/// dispatcher plus two gangs of two — with two injected rank kills (one
/// per gang, so every gang keeps a survivor and can report) and a burst of
/// high-priority late-release jobs that forces checkpoint-backed
/// preemption.
///
/// The gate is the paper-grade property of the whole subsystem: ZERO lost
/// jobs and every job's final state digest bit-exact with the same
/// scenario run alone on a fresh 1-rank world — no matter which gang ran
/// it, how often it was preempted, or how many ranks died under it.
///
/// Output: one `serve drill:` summary line; as --out JSON (committed as
/// BENCH_serve.json) the dispatcher's accounting (`ckpt_save_failures`
/// counts the job checkpoint saves that failed) plus the drill's `kills`,
/// `jobs_incomplete` (records not in state Completed), `digest_mismatches`
/// and `requeues_cover_evictions` (requeues >= failed attempts +
/// preemptions); and a gang-shaped block forest dumped to
/// <scratch>/serve_forest.walb for the walb_blockinfo --json check.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "serve/Scenario.h"
#include "serve/ServeDriver.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/ReliableComm.h"
#include "vmpi/ThreadComm.h"

namespace {

using namespace walb;

/// Rank `rank` dies at the top of step `jobStep` of job `jobId`: the same
/// job fails at the same point on every run, however the queue interleaved.
struct KillPlan {
    int rank;
    std::uint64_t jobId;
    std::uint64_t jobStep;
};

std::vector<serve::JobSpec> buildWorkload() {
    std::vector<serve::JobSpec> jobs;

    // Two long background studies, pushed first (lowest ids win FIFO ties,
    // so they are granted first and occupy both gangs). Their lengths
    // differ 10x on purpose: when the short one finishes — which is the
    // completion that releases the urgent burst below — the other gang is
    // GUARANTEED to still be mid-background, so at least one urgent job
    // can only start by preempting it. That makes the drill's forced
    // preemption deterministic instead of a race against idle gangs.
    for (int i = 0; i < 2; ++i) {
        serve::JobSpec bg;
        bg.name = "background_" + std::to_string(i);
        bg.tenant = "batch";
        bg.kind = serve::ScenarioKind::Voxel;
        bg.voxelSeed = 99 + std::uint64_t(i);
        bg.steps = i == 0 ? 100 : 1000;
        jobs.push_back(std::move(bg));
    }

    // 96 sweep points: 3 geometry families x 8 omegas x 4 repeats,
    // round-robined over 4 tenants. Voxel repeats reseed the obstacle
    // field, so every repeat is a distinct physics identity.
    serve::ServeDriver::SweepConfig sweep;
    sweep.tenants = {"acme", "burgers", "corelab", "dynamo"};
    sweep.kinds = {serve::ScenarioKind::Cavity, serve::ScenarioKind::Voxel,
                   serve::ScenarioKind::Cylinder};
    sweep.omegas = {1.2, 1.35, 1.5, 1.65, 1.8, 1.9, 1.95, 1.99};
    sweep.repeats = 4;
    sweep.steps = 12;
    for (auto& spec : serve::ServeDriver::makeParameterSweep(sweep))
        jobs.push_back(std::move(spec));

    // Plus 4 urgent jobs at priority 10: two arrive the moment the first
    // background completes (the deterministic preemption trigger above),
    // two arrive mid-sweep.
    for (int i = 0; i < 4; ++i) {
        serve::JobSpec urgent;
        urgent.name = "urgent_" + std::to_string(i);
        urgent.tenant = "ops";
        urgent.priority = 10;
        urgent.releaseAfterCompleted = i < 2 ? 1 : std::uint64_t(50 + 5 * i);
        urgent.kind = serve::ScenarioKind::Cylinder;
        urgent.omega = 1.7;
        urgent.steps = 12;
        jobs.push_back(std::move(urgent));
    }
    return jobs;
}

} // namespace

int main(int argc, char** argv) {
    std::string out = "BENCH_serve.json";
    std::string scratch = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
        else if (std::strcmp(argv[i], "--scratch") == 0 && i + 1 < argc)
            scratch = argv[++i];
        else {
            std::fprintf(stderr, "usage: %s [--out report.json] [--scratch dir]\n",
                         argv[0]);
            return 2;
        }
    }
    // Job checkpoints go to the scratch directory; without it every save
    // fails and the drill would run with no checkpoint to resume from.
    if (!std::filesystem::is_directory(scratch)) {
        std::fprintf(stderr, "fig_serve: --scratch: '%s' is not an existing directory\n",
                     scratch.c_str());
        return 2;
    }

    const int ranks = 5; // dispatcher + 2 gangs of 2
    // One per gang, each in the background study its gang is granted first
    // (job 1 on gang {1, 2}, job 2 on gang {3, 4}), before job 1 completes
    // and releases the urgent burst: both studies are requeued, and job 2 is
    // still mid-run when job 1 completes, so the forced preemption stands.
    const std::vector<KillPlan> kills = {{1, 1, 60}, {3, 2, 20}};

    const std::vector<serve::JobSpec> jobs = buildWorkload();

    serve::ServeOptions opt;
    opt.gangSize = 2;
    opt.chunkSteps = 4;
    opt.checkpointEvery = 8;
    opt.checkpointDir = scratch;
    opt.recvDeadline = std::chrono::milliseconds(250);
    // Cap the urgent tenant at 2 concurrent jobs (= the gang count). The
    // quota must admit both release-1 urgents at once: a quota-blocked job
    // is excluded from the preemption trigger by design.
    opt.tenantQuotas["ops"] = 2;

    // ---- the fleet run: kills injected below the reliability protocol ----
    serve::ServeReport report;
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& base) {
        vmpi::FaultPlan plan;
        std::uint64_t doomedJob = 0;
        for (const KillPlan& k : kills) {
            if (k.rank == base.rank()) {
                plan.killRank = k.rank;
                plan.killAtStep = k.jobStep;
                doomedJob = k.jobId;
            }
        }
        vmpi::FaultyComm faulty(base, plan);
        vmpi::ReliableComm reliable(faulty);
        serve::ServeOptions mine = opt;
        // The drill seam: only the doomed job's steps reach the kill plan.
        mine.stepProbe = [&faulty, doomedJob](std::uint64_t job, std::uint64_t step) {
            if (job == doomedJob) faulty.beginStep(step);
        };
        const serve::ServeReport rep =
            serve::ServeDriver::run(reliable, mine, jobs);
        if (base.rank() == 0) report = rep;
    });

    // ---- the serial baseline: every unique physics identity run alone ----
    std::map<std::string, std::uint64_t> baseline;
    for (const serve::JobRecord& rec : report.jobs) {
        const std::string key = rec.spec.scenarioKey();
        if (!baseline.count(key))
            baseline[key] = serve::ServeDriver::runAlone(rec.spec, scratch);
    }
    int mismatches = 0;
    int incomplete = 0;
    for (const serve::JobRecord& rec : report.jobs) {
        if (rec.state != serve::JobState::Completed) {
            ++incomplete;
            continue;
        }
        if (rec.digest != baseline.at(rec.spec.scenarioKey())) {
            ++mismatches;
            std::fprintf(stderr,
                         "fig_serve: job %llu (%s) digest %llx != alone %llx\n",
                         (unsigned long long)rec.spec.id, rec.spec.name.c_str(),
                         (unsigned long long)rec.digest,
                         (unsigned long long)baseline.at(rec.spec.scenarioKey()));
        }
    }

    // A gang-shaped forest dump for the walb_blockinfo --json check.
    serve::JobSpec probe;
    const auto forest = serve::makeScenarioSetup(probe, 2);
    if (!forest.saveToFile(scratch + "/serve_forest.walb"))
        std::fprintf(stderr, "fig_serve: warning: forest dump failed\n");

    const bool requeuesCover =
        report.requeues >= report.failedAttempts + report.preemptions;
    if (!serve::ServeDriver::writeReportJson(
            out, report, opt,
            {{"kills", kills.size()},
             {"jobs_incomplete", std::uint64_t(incomplete)},
             {"digest_mismatches", std::uint64_t(mismatches)},
             {"requeues_cover_evictions", requeuesCover ? 1 : 0}})) {
        std::fprintf(stderr, "fig_serve: cannot write %s\n", out.c_str());
        return 1;
    }

    // The jobs a kill struck: requeued more often than preempted.
    std::string failedJobs;
    for (const serve::JobRecord& rec : report.jobs)
        if (rec.requeues > rec.preemptions)
            failedJobs += (failedJobs.empty() ? "" : ",") + std::to_string(rec.spec.id);

    // One summary line per drill.
    std::printf("serve drill: ranks=%d gangs=%d jobs=%zu completed=%llu lost=%d "
                "kills=%zu ranks_lost=%d preemptions=%llu requeued=%llu "
                "failed_attempts=%llu failed_jobs=%s digest_mismatches=%d "
                "baseline_scenarios=%zu elapsed=%.2f\n",
                ranks, report.gangs, report.jobs.size(),
                (unsigned long long)report.completed, incomplete, kills.size(),
                report.ranksLost, (unsigned long long)report.preemptions,
                (unsigned long long)report.requeues,
                (unsigned long long)report.failedAttempts, failedJobs.c_str(), mismatches,
                baseline.size(), report.elapsedSeconds);
    return 0;
}
