#include "sim/PdfCommScheme.h"

#include <string>

#include "vmpi/Tags.h"

namespace walb::sim {

namespace {

std::array<int, 3> negated(const std::array<int, 3>& d) { return {-d[0], -d[1], -d[2]}; }

vmpi::CommError makeCorruptError(int rank, int tag, const std::string& detail) {
    return vmpi::CommError(vmpi::CommError::Kind::Corrupt, rank, tag, 0.0, detail);
}

} // namespace

PdfCommScheme::PdfCommScheme(bf::BlockForest& forest, vmpi::Comm& comm,
                             bf::BlockForest::BlockDataID srcId,
                             bf::BlockForest::BlockDataID flagId, field::flag_t fluid,
                             GrowStorage grow)
    : forest_(forest), comm_(comm), srcId_(srcId), flagId_(flagId), fluid_(fluid),
      grow_(std::move(grow)), bufferSystem_(comm, vmpi::tags::kGhostExchange) {
    bufferSystem_.setReceiverInfo(std::vector<int>(forest.neighborProcesses().begin(),
                                                   forest.neighborProcesses().end()));
    // Map (sender block id, sender direction) -> receiving link, in the
    // order plan() lists the receive links.
    for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
        for (const auto& n : forest_.blocks()[b].neighbors)
            if (n.localIndex < 0) {
                const std::size_t link = remoteSources_.size();
                remoteSources_[{n.id, std::uint8_t(lbm::dirIndex26(negated(n.dir)))}] = link;
            }
}

PdfCommScheme::ExchangeMode PdfCommScheme::modeFor(lbm::StepPattern p) {
    constexpr ExchangeMode kByPattern[] = {ExchangeMode::TwoGrid, ExchangeMode::AaReverse,
                                           ExchangeMode::AaForward};
    return kByPattern[std::size_t(p)];
}

void PdfCommScheme::copyLocalGhosts() {
    const lbm::LocalCopyPlan& local = plan(mode_).local;
#ifdef _OPENMP
#pragma omp parallel
#endif
    local.run();
}

void PdfCommScheme::packAndPost() {
    const ModePlan& p = plan(mode_);
    for (int rank : forest_.neighborProcesses()) bufferSystem_.sendBuffer(rank);
    for (const Link& l : p.sends) {
        SendBuffer& buf = bufferSystem_.sendBuffer(l.process);
        forest_.blocks()[l.block].id.toWire(buf);
        buf << l.dir << l.slots;
        std::uint8_t* out = buf.grow(std::size_t(l.slots) * sizeof(real_t));
        const real_t* src = field(l.block).data();
        for (std::size_t r = l.runBegin; r < l.runEnd; ++r)
            lbm::detail::packRun(src, out, p.runs[r]);
    }
    bytesLastExchange_ = bufferSystem_.totalSendBytes();
    bufferSystem_.beginExchange();
}

std::size_t PdfCommScheme::progress() {
    return bufferSystem_.progress([&](int rank, RecvBuffer& buf) { unpackMessage(rank, buf); });
}

void PdfCommScheme::finishExchange() {
    bufferSystem_.finishExchange([&](int rank, RecvBuffer& buf) { unpackMessage(rank, buf); });
}

void PdfCommScheme::communicate() {
    copyLocalGhosts();
    packAndPost();
    finishExchange();
}

std::size_t PdfCommScheme::shippedSlots(ExchangeMode mode) {
    std::size_t n = 0;
    for (const Link& l : plan(mode).sends) n += l.slots;
    return n;
}

void PdfCommScheme::exchangeReceiveMasks() {
    const auto& blocks = forest_.blocks();
    const std::vector<int> peers(forest_.neighborProcesses().begin(),
                                 forest_.neighborProcesses().end());
    std::map<bf::BlockID, std::size_t> localBlock;
    ownMasks_.assign(blocks.size(), {});
    peerMasks_.assign(blocks.size(), {});
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        localBlock[blocks[b].id] = b;
        const auto& flags = forest_.getData<field::FlagField>(b, flagId_);
        for (const auto& n : blocks[b].neighbors)
            ownMasks_[b].push_back(lbm::ReceiveMask::fromCells(
                flags, n.dir, [&](const Cell& c) { return (flags.get(c) & fluid_) != 0; }));
        peerMasks_[b].resize(blocks[b].neighbors.size());
    }
    const auto neighborIndex = [&](std::size_t b, const std::array<int, 3>& dir) {
        const auto& ns = blocks[b].neighbors;
        for (std::size_t i = 0; i < ns.size(); ++i)
            if (ns[i].dir == dir) return i;
        return ns.size();
    };

    vmpi::BufferSystem round(comm_, vmpi::tags::kExchangePlan);
    round.setReceiverInfo(peers);
    for (int rank : peers) round.sendBuffer(rank);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i) {
            const auto& n = blocks[b].neighbors[i];
            if (n.localIndex >= 0) {
                const auto nb = std::size_t(n.localIndex);
                peerMasks_[b][i] = ownMasks_[nb][neighborIndex(nb, negated(n.dir))];
                continue;
            }
            // Addressed like a ghost message from n: n's id and its
            // direction toward b.
            SendBuffer& buf = round.sendBuffer(int(n.process));
            n.id.toWire(buf);
            buf << std::uint8_t(lbm::dirIndex26(negated(n.dir)));
            ownMasks_[b][i].toWire(buf);
        }
    round.beginExchange();
    round.finishExchange([&](int rank, RecvBuffer& buf) {
        while (!buf.atEnd()) {
            const bf::BlockID id = bf::BlockID::fromWire(buf);
            std::uint8_t dir = 0;
            buf >> dir;
            const auto it = localBlock.find(id);
            const std::size_t i =
                (dir < 26 && it != localBlock.end())
                    ? neighborIndex(it->second, lbm::neighborhood26[dir])
                    : std::size_t(-1);
            if (i == std::size_t(-1) || i >= blocks[it->second].neighbors.size() ||
                int(blocks[it->second].neighbors[i].process) != rank)
                throw makeCorruptError(rank, vmpi::tags::kExchangePlan,
                                       "receive mask for a link this rank does not have");
            peerMasks_[it->second][i] = lbm::ReceiveMask::fromWire(
                field(it->second), negated(lbm::neighborhood26[dir]), buf);
        }
    });
    for (std::size_t b = 0; b < blocks.size(); ++b)
        for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i)
            if (!peerMasks_[b][i].valid())
                throw makeCorruptError(int(blocks[b].neighbors[i].process),
                                       vmpi::tags::kExchangePlan,
                                       "no receive mask for a neighbor link");
    masksExchanged_ = true;
    storeSentSlots();
}

void PdfCommScheme::storeSentSlots() {
    const auto& blocks = forest_.blocks();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const lbm::PdfField& f = field(b);
        std::vector<Cell> missing;
        for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i) {
            // b sends toward n, which receives from direction -n.dir.
            const std::array<int, 3> d = negated(blocks[b].neighbors[i].dir);
            const Cell shift = lbm::exchangeShift(f, d);
            for (const ExchangeMode mode : {ExchangeMode::TwoGrid, ExchangeMode::AaReverse})
                lbm::forEachExchangeSlot<M>(
                    mode, f, d, peerMasks_[b][i], [&](const Cell& g, cell_idx_t, std::int32_t) {
                        if (const Cell c = g + shift; !f.isStored(c.x, c.y, c.z))
                            missing.push_back(c);
                    });
        }
        if (!missing.empty()) grow_(b, f.rowTable()->including(missing));
    }
}

PdfCommScheme::ModePlan& PdfCommScheme::plan(ExchangeMode mode) {
    ModePlan& p = plans_[std::size_t(mode)];
    if (p.built) return p;
    if (!masksExchanged_) exchangeReceiveMasks();
    p.built = true;
    const auto& blocks = forest_.blocks();
    p.recvSlots.assign(blocks.size(), {});
    std::vector<lbm::StridedRun> copyRuns;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        lbm::PdfField& f = field(b);
        for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i) {
            const auto& n = blocks[b].neighbors[i];
            // b sends toward n, which receives from direction -n.dir.
            if (n.localIndex >= 0) {
                lbm::PdfField& to = field(std::size_t(n.localIndex));
                copyRuns.clear();
                p.recvSlots[std::size_t(n.localIndex)][lbm::dirIndex26(negated(n.dir))] =
                    std::uint32_t(lbm::planExchangeRuns<M>(mode, f, to, negated(n.dir),
                                                           peerMasks_[b][i],
                                                           lbm::RunEnds::Copy, copyRuns));
                p.local.add(f, to, copyRuns);
                continue;
            }
            Link send{b, int(n.process), std::uint8_t(lbm::dirIndex26(n.dir)), 0,
                      p.runs.size(), 0};
            send.slots = std::uint32_t(lbm::planExchangeRuns<M>(
                mode, f, f, negated(n.dir), peerMasks_[b][i], lbm::RunEnds::Pack, p.runs));
            send.runEnd = p.runs.size();
            if (send.slots > 0) p.sends.push_back(send);
            Link recv{b, int(n.process), 0, 0, p.runs.size(), 0};
            recv.slots = std::uint32_t(lbm::planExchangeRuns<M>(
                mode, f, f, n.dir, ownMasks_[b][i], lbm::RunEnds::Unpack, p.runs));
            recv.runEnd = p.runs.size();
            p.recvs.push_back(recv);
            p.recvSlots[b][lbm::dirIndex26(n.dir)] = recv.slots;
        }
    }
    return p;
}

void PdfCommScheme::unpackMessage(int rank, RecvBuffer& buf) {
    const ModePlan& p = plan(mode_);
    while (!buf.atEnd()) {
        const bf::BlockID senderId = bf::BlockID::fromWire(buf);
        std::uint8_t senderDir = 0;
        std::uint32_t slots = 0;
        buf >> senderDir >> slots;
        if (senderDir >= 26)
            throw makeCorruptError(rank, vmpi::tags::kGhostExchange,
                                   "ghost message names invalid direction " +
                                       std::to_string(int(senderDir)));
        const auto it = remoteSources_.find({senderId, senderDir});
        if (it == remoteSources_.end())
            throw makeCorruptError(rank, vmpi::tags::kGhostExchange,
                                   "ghost message for a block this rank "
                                   "does not border (corrupt block id?)");
        const Link& l = p.recvs[it->second];
        if (slots != l.slots)
            throw makeCorruptError(rank, vmpi::tags::kGhostExchange,
                                   "ghost payload of " + std::to_string(slots) +
                                       " slots from direction " + std::to_string(int(senderDir)) +
                                       "; the exchange plan expects " + std::to_string(l.slots));
        const std::uint8_t* in = buf.cursor();
        buf.skip(std::size_t(slots) * sizeof(real_t)); // throws BufferError when short
        real_t* dst = field(l.block).data();
        for (std::size_t r = l.runBegin; r < l.runEnd; ++r)
            lbm::detail::unpackRun(in, dst, p.runs[r]);
    }
}

} // namespace walb::sim
