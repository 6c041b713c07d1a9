#pragma once
/// \file ChunkedRun.h
/// The one chunked, resumable run loop of the drivers. Every use that
/// splits the step loop around a checkpoint source is this loop plus a
/// callable at its call site:
///
///   * disk `.wckp` (fig6, fig7: runCheckpointed below) — the boundary
///     saves at multiples of `--checkpoint-every` and at the last step;
///   * the recovery buddy ring (recover::RecoveryManager::chunkedRun) —
///     the boundary refreshes the in-memory copy, the rewind hook is the
///     agree → shrink → restore → rewind pipeline;
///   * serve preemption (serve::Scheduler) — the boundary exchanges the
///     gang's continue/preempt word, saves periodically and stops the run
///     at the word's step.
///
/// Chunk ends fall on multiples of the chunk length and on the target; a
/// run that resumes or rewinds to a step off that grid steps to the next
/// multiple first, so every use sees the same boundaries whatever step it
/// (re)started from.

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/Logging.h"
#include "sim/DistributedSimulation.h"

namespace walb::sim {

struct ChunkedRun {
    /// Called at each chunk end with the step reached. It may save a
    /// checkpoint, refresh a buddy copy or exchange a preempt word;
    /// returning false stops the run at that step (ignored at the target).
    /// A callable that decides to stop must decide it identically on every
    /// rank of the simulation's comm — a split verdict deadlocks the next
    /// ghost exchange.
    using Boundary = std::function<bool(std::uint64_t step)>;
    /// Called with a CommError that escaped a chunk or its boundary: it
    /// heals and rewinds the simulation, and the loop resumes from the
    /// simulation's step — or it rethrows.
    using Rewind = std::function<void(const vmpi::CommError&)>;

    ChunkedRun(DistributedSimulation& s, std::uint64_t chunk, Boundary b, Rewind r = {})
        : sim(s), chunkSteps(chunk), boundary(std::move(b)), rewind(std::move(r)) {}

    DistributedSimulation& sim;
    std::uint64_t chunkSteps; ///< 0: one chunk to the target
    Boundary boundary;
    Rewind rewind;
    /// Step of the last chunk end reached; the start step before the
    /// first. Stays readable after a CommError escaped run().
    std::uint64_t boundaryStep = 0;

    /// Steps the simulation to the absolute step `target`. Returns true
    /// when it got there, false when the boundary callable stopped it
    /// earlier. Without a rewind hook a CommError propagates.
    template <typename Op>
    bool run(std::uint64_t target, const Op& op) {
        boundaryStep = sim.currentStep();
        while (sim.currentStep() < target) {
            const std::uint64_t step = sim.currentStep();
            const std::uint64_t next =
                chunkSteps > 0 ? std::min(target, (step / chunkSteps + 1) * chunkSteps) : target;
            try {
                sim.run(uint_t(next - step), op);
                boundaryStep = next;
                if (!boundary(next) && next < target) return false;
            } catch (const vmpi::CommError& e) {
                if (!rewind) throw;
                rewind(e);
            }
        }
        return true;
    }
};

/// The disk use of ChunkedRun under the CheckpointOptions command-line
/// contract (fig6, fig7): restarts from `opt.restartFrom` when given, then
/// steps to `lastStep` (`opt.steps` when given) in `opt.every`-step chunks,
/// saving to `opt.path` at every multiple of `opt.every` and at `lastStep`.
/// `opt.stopAfter` ends the process early: a simulated death, which saves
/// nothing, so a restart finds the last periodic checkpoint. Returns the
/// number of steps executed in this process. Throws std::runtime_error if
/// a requested restart file cannot be loaded.
template <typename Op>
std::uint64_t runCheckpointed(DistributedSimulation& sim, const CheckpointOptions& opt,
                              std::uint64_t lastStep, const Op& op) {
    if (opt.steps > 0) lastStep = opt.steps;
    std::string err;
    if (!opt.restartFrom.empty()) {
        if (!sim.loadCheckpoint(opt.restartFrom, &err))
            throw std::runtime_error("restart from '" + opt.restartFrom + "' failed: " + err);
        WALB_LOG_INFO("restarted from '" << opt.restartFrom << "' at step "
                                         << sim.currentStep());
    }
    const std::uint64_t start = sim.currentStep();
    const auto save = [&](std::uint64_t step) {
        if (opt.every == 0 || (step % opt.every != 0 && step != lastStep)) return true;
        if (sim.saveCheckpoint(opt.path, &err))
            WALB_LOG_INFO("checkpoint written to '" << opt.path << "' at step " << step);
        else
            WALB_LOG_ERROR("checkpoint save to '" << opt.path << "' failed: " << err);
        return true;
    };
    ChunkedRun{sim, opt.every, save}.run(
        opt.stopAfter > 0 ? std::min(lastStep, opt.stopAfter) : lastStep, op);
    return sim.currentStep() - start;
}

} // namespace walb::sim
