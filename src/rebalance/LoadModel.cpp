#include "rebalance/LoadModel.h"

#include "core/Buffer.h"
#include "core/Debug.h"
#include "vmpi/Comm.h"

namespace walb::rebalance {

void LoadModel::recordEpoch(const bf::BlockForest& forest,
                            const std::vector<double>& sweepSeconds) {
    WALB_ASSERT(sweepSeconds.size() == forest.numLocalBlocks(),
                "sweep seconds cover " << sweepSeconds.size() << " of "
                                       << forest.numLocalBlocks() << " blocks");
    std::unordered_map<bf::BlockID, double, bf::BlockIDHash> next;
    next.reserve(forest.numLocalBlocks());
    for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b) {
        const bf::BlockID& id = forest.blocks()[b].id;
        const auto prev = ewma_.find(id);
        next[id] = prev == ewma_.end()
                       ? sweepSeconds[b]
                       : alpha_ * sweepSeconds[b] + (1.0 - alpha_) * prev->second;
    }
    ewma_ = std::move(next);
}

double LoadModel::smoothed(const bf::BlockID& id) const {
    const auto it = ewma_.find(id);
    return it == ewma_.end() ? 0.0 : it->second;
}

std::vector<double> LoadModel::gatherGlobal(vmpi::Comm& comm,
                                            const bf::SetupBlockForest& setup) const {
    // Wire format per entry: (root, level, path, smoothed seconds).
    SendBuffer mine;
    mine << std::uint32_t(ewma_.size());
    for (const auto& [id, seconds] : ewma_) {
        id.toWire(mine);
        mine << seconds;
    }
    const auto all =
        // walb-lint: allow(blocking): report-time collective — every rank reaches it unconditionally; the run comm's recv deadline applies
        comm.allgatherv(std::span<const std::uint8_t>(mine.data(), mine.size()));

    // BlockID -> setup index (ranks report by identity, not by index).
    std::unordered_map<bf::BlockID, std::size_t, bf::BlockIDHash> indexOf;
    indexOf.reserve(setup.numBlocks());
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        indexOf[setup.blocks()[i].id] = i;

    std::vector<double> weights(setup.numBlocks(), -1.0);
    for (const auto& contribution : all) {
        RecvBuffer rb(contribution);
        std::uint32_t n = 0;
        rb >> n;
        for (std::uint32_t e = 0; e < n; ++e) {
            const bf::BlockID id = bf::BlockID::fromWire(rb);
            double seconds = 0.0;
            rb >> seconds;
            const auto it = indexOf.find(id);
            WALB_ASSERT(it != indexOf.end(), "load report for unknown block");
            weights[it->second] = seconds;
        }
    }

    // Fill unmeasured blocks from the static workload, scaled to the
    // measured cost per workload unit so the two weight sources are
    // commensurable (pure static weights when nothing is measured yet).
    double measuredSeconds = 0.0;
    std::uint64_t measuredWork = 0, unmeasured = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] >= 0.0) {
            measuredSeconds += weights[i];
            measuredWork += std::max<std::uint64_t>(1, setup.blocks()[i].workload);
        } else {
            ++unmeasured;
        }
    }
    if (unmeasured > 0) {
        const double perUnit =
            measuredWork > 0 ? measuredSeconds / double(measuredWork) : 1.0;
        for (std::size_t i = 0; i < weights.size(); ++i)
            if (weights[i] < 0.0)
                weights[i] =
                    perUnit * double(std::max<std::uint64_t>(1, setup.blocks()[i].workload));
    }
    return weights;
}

} // namespace walb::rebalance
