#include "serve/ServeDriver.h"

#include <fstream>

#include "obs/Json.h"
#include "serve/Scenario.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/SerialComm.h"

namespace walb::serve {

ServeReport ServeDriver::run(vmpi::Comm& pool, const ServeOptions& opt,
                             std::vector<JobSpec> jobs) {
    if (pool.size() == 1) return Scheduler::runInline(pool, opt, std::move(jobs));
    if (pool.rank() == 0) return Scheduler::dispatch(pool, opt, std::move(jobs));
    Scheduler::work(pool, opt);
    return {};
}

std::uint64_t ServeDriver::runAlone(const JobSpec& spec, const std::string& scratchDir) {
    vmpi::SerialComm comm;
    const auto setup = makeScenarioSetup(spec, 1);
    sim::DistributedSimulation sim(comm, setup, scenarioFlags(spec));
    sim.setWallVelocity({real_c(spec.lidVelocity), 0, 0});
    sim.setFlightRecorderDumpPrefix(scratchDir + "/serve_alone");
    sim.run(uint_t(spec.steps), scenarioCollision(spec));
    return sim.stateDigest();
}

std::vector<JobSpec> ServeDriver::makeParameterSweep(const SweepConfig& cfg) {
    std::vector<JobSpec> jobs;
    std::size_t tenantCursor = 0;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
        for (const ScenarioKind kind : cfg.kinds) {
            for (const double omega : cfg.omegas) {
                JobSpec spec;
                spec.kind = kind;
                spec.blocksX = cfg.blocksX;
                spec.blocksY = cfg.blocksY;
                spec.blocksZ = cfg.blocksZ;
                spec.cellsPerBlock = cfg.cellsPerBlock;
                spec.steps = cfg.steps;
                spec.omega = omega;
                spec.lidVelocity = cfg.lidVelocity;
                if (kind == ScenarioKind::Voxel)
                    spec.voxelSeed = cfg.voxelSeedBase + std::uint64_t(rep);
                if (!cfg.tenants.empty()) {
                    spec.tenant = cfg.tenants[tenantCursor % cfg.tenants.size()];
                    ++tenantCursor;
                }
                spec.name = std::string(toString(kind)) + "_w" +
                            std::to_string(omega) + "_r" + std::to_string(rep);
                jobs.push_back(std::move(spec));
            }
        }
    }
    return jobs;
}

bool ServeDriver::writeReportJson(
    const std::string& path, const ServeReport& report, const ServeOptions& opt,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra) {
    std::ofstream os(path, std::ios::binary);
    if (!os) return false;
    obs::json::Writer w(os);
    w.beginObject();
    w.key("config").beginObject();
    w.kv("gang_size", std::int64_t(opt.gangSize));
    w.kv("chunk_steps", opt.chunkSteps);
    w.kv("checkpoint_every", opt.checkpointEvery);
    w.kv("preemption", opt.preemption);
    w.endObject();
    w.kv("gangs", std::int64_t(report.gangs));
    w.kv("jobs_total", std::uint64_t(report.jobs.size()));
    w.kv("jobs_completed", report.completed);
    w.kv("jobs_lost", std::uint64_t(report.jobs.size() - report.completed));
    w.kv("requeues", report.requeues);
    w.kv("preemptions", report.preemptions);
    w.kv("failed_attempts", report.failedAttempts);
    w.kv("ckpt_save_failures", report.checkpointSaveFailures);
    w.kv("ranks_lost", std::int64_t(report.ranksLost));
    w.kv("elapsed_seconds", report.elapsedSeconds);
    for (const auto& [key, count] : extra) w.kv(key, count);
    w.key("tenants").beginObject();
    for (const auto& [tenant, stats] : report.tenants) {
        w.key(tenant).beginObject();
        w.kv("jobs", stats.jobs);
        w.kv("cell_seconds", stats.cellSeconds);
        w.endObject();
    }
    w.endObject();
    w.key("jobs").beginArray();
    for (const auto& rec : report.jobs) {
        w.beginObject();
        w.kv("id", rec.spec.id);
        w.kv("name", rec.spec.name);
        w.kv("tenant", rec.spec.tenant);
        w.kv("scenario", rec.spec.scenarioKey());
        w.kv("reynolds", rec.spec.reynolds());
        w.kv("priority", std::int64_t(rec.spec.priority));
        w.kv("completed", rec.state == JobState::Completed);
        w.kv("digest", rec.digest);
        w.kv("final_step", rec.finalStep);
        w.kv("attempts", std::int64_t(rec.attempts));
        w.kv("preemptions", std::int64_t(rec.preemptions));
        w.kv("requeues", std::int64_t(rec.requeues));
        w.kv("gang", std::int64_t(rec.gang));
        w.kv("cell_seconds", rec.cellSeconds);
        w.kv("wait_seconds", rec.waitSeconds);
        w.kv("turnaround_seconds", rec.turnaroundSeconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return bool(os);
}

} // namespace walb::serve
