#include "sim/Checkpoint.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>

#include "core/BinaryIO.h"
#include "core/Crc32.h"
#include "core/Debug.h"
#include "core/Logging.h"
#include "sim/DistributedSimulation.h"

namespace walb::sim {

namespace {

void setError(std::string* error, const std::string& msg) {
    if (error) *error = msg;
}

/// Index of the local block with this identity, or -1.
std::int32_t findLocalBlock(const bf::BlockForest& forest, const bf::BlockID& id) {
    const auto& blocks = forest.blocks();
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (blocks[i].id == id) return std::int32_t(i);
    return -1;
}

/// Human-readable block identity for diagnostics: "root:level:path".
std::string describeBlockId(const bf::BlockID& id) {
    return std::to_string(id.rootIndex()) + ":" + std::to_string(id.level()) + ":" +
           std::to_string(id.path());
}

std::string hexCrc(std::uint32_t crc) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", crc);
    return buf;
}

bool parseHeader(RecvBuffer& file, CheckpointHeader& h, std::string* error) {
    std::uint32_t magic = 0;
    file >> magic;
    if (magic != kCheckpointMagic) {
        setError(error, "not a walb checkpoint (bad magic)");
        return false;
    }
    file >> h.version;
    if (h.version != kCheckpointVersion) {
        setError(error, "unsupported checkpoint version " + std::to_string(h.version) +
                            " (expected " + std::to_string(kCheckpointVersion) + ")");
        return false;
    }
    file >> h.worldSize >> h.cellsX >> h.cellsY >> h.cellsZ >> h.step >>
        h.numRankContributions;
    return true;
}

/// One parsed block record. For a block of this rank, `local` names it and
/// the payload pointers point at its CRC-verified bytes inside the buffer
/// the record was parsed from.
struct BlockRecord {
    std::int32_t local = -1;
    const std::uint8_t* pdf = nullptr;
    const std::uint8_t* flags = nullptr;
    std::size_t pdfBytes = 0, flagBytes = 0;
};

/// Consumes one record from `rb` without touching the simulation: +1 for a
/// local block whose sizes and CRC check out (`rec` filled), 0 for a block
/// owned elsewhere (skipped), -1 on a size or CRC mismatch (`error` set).
/// Throws BufferError when the record runs past the end of `rb`.
int parseBlockRecord(DistributedSimulation& sim, RecvBuffer& rb, BlockRecord& rec,
                     std::string* error) {
    const bf::BlockID id = bf::BlockID::fromWire(rb);
    std::uint64_t pdfBytes = 0, flagBytes = 0;
    std::uint32_t storedCrc = 0;
    rb >> pdfBytes >> flagBytes >> storedCrc;
    if (pdfBytes > rb.remaining() || flagBytes > rb.remaining() - pdfBytes)
        throw BufferError(std::size_t(pdfBytes + flagBytes), rb.remaining());
    const std::int32_t local = findLocalBlock(sim.forest(), id);
    if (local < 0) {
        rb.skip(std::size_t(pdfBytes + flagBytes));
        return 0;
    }
    const std::size_t localPdfBytes =
        sim.pdfField(std::size_t(local)).allocCells() * sizeof(real_t);
    const std::size_t localFlagBytes =
        sim.flagField(std::size_t(local)).allocCells() * sizeof(field::flag_t);
    if (pdfBytes != localPdfBytes || flagBytes != localFlagBytes) {
        setError(error, "block record size mismatch on block " + describeBlockId(id) +
                            ": pdf=" + std::to_string(pdfBytes) + "/" +
                            std::to_string(localPdfBytes) +
                            " flags=" + std::to_string(flagBytes) + "/" +
                            std::to_string(localFlagBytes) + " bytes (record/local)");
        return -1;
    }
    std::uint32_t crc = crc32(rb.cursor(), std::size_t(pdfBytes));
    crc = crc32(rb.cursor() + pdfBytes, std::size_t(flagBytes), crc);
    if (crc != storedCrc) {
        setError(error, "checkpoint CRC mismatch on block " + describeBlockId(id) +
                            ": expected " + hexCrc(storedCrc) + " (stored), actual " +
                            hexCrc(crc) + " (computed) — payload corrupted");
        return -1;
    }
    rec = {local, rb.cursor(), rb.cursor() + pdfBytes, std::size_t(pdfBytes),
           std::size_t(flagBytes)};
    rb.skip(std::size_t(pdfBytes + flagBytes));
    return 1;
}

/// Copies a verified record into its block. The AA tiers deserialize into
/// the canonical staging field and scatter it into parity slots; the
/// two-grid tiers restore in place.
void restoreBlockRecord(DistributedSimulation& sim, const BlockRecord& rec) {
    const std::size_t local = std::size_t(rec.local);
    lbm::PdfField& pdf = sim.usesAaPattern() ? sim.canonicalScratch() : sim.pdfField(local);
    std::memcpy(pdf.data(), rec.pdf, rec.pdfBytes);
    std::memcpy(sim.flagField(local).data(), rec.flags, rec.flagBytes);
    // Flags first, then the canonical scatter: the scatter walks the
    // block's fluid cells, so it must see the restored flag field. The
    // caller has already restored the step counter, so the parity of the
    // scatter matches the checkpoint.
    if (sim.usesAaPattern()) sim.applyCanonicalPdf(local, pdf);
}

/// Borrowing view of the next length-prefixed byte vector in `file` (the
/// u64 length + bytes layout of SendBuffer's vector operator<<).
RecvBuffer nextContribution(RecvBuffer& file) {
    std::uint64_t n = 0;
    file >> n;
    if (n > file.remaining()) throw BufferError(std::size_t(n), file.remaining());
    RecvBuffer contribution(std::span<const std::uint8_t>(file.cursor(), std::size_t(n)));
    file.skip(std::size_t(n));
    return contribution;
}

/// Bytes in front of a record's payload: BlockID, pdf and flag sizes, CRC.
constexpr std::size_t kRecordHeaderBytes =
    bf::BlockID::kWireBytes + 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t);

} // namespace

std::size_t blockRecordBytes(DistributedSimulation& sim, std::size_t block) {
    return kRecordHeaderBytes + sim.pdfField(block).allocCells() * sizeof(real_t) +
           sim.flagField(block).allocCells() * sizeof(field::flag_t);
}

void appendBlockRecord(DistributedSimulation& sim, std::size_t block,
                       SendBuffer& buf) {
    const bf::BlockForest& forest = sim.forest();
    // Canonical view: the live src field for the two-grid tiers, the
    // parity-normalized scratch for the AA tiers. Either way the record is
    // one full-size allocation, so the wire format does not depend on the
    // kernel tier and a restart may use a different tier than the save.
    const lbm::PdfField& pdf = sim.canonicalPdfField(block);
    const field::FlagField& flags = sim.flagField(block);
    const std::size_t pdfBytes = pdf.allocCells() * sizeof(real_t);
    const std::size_t flagBytes = flags.allocCells() * sizeof(field::flag_t);
    std::uint32_t crc = crc32(pdf.data(), pdfBytes);
    crc = crc32(flags.data(), flagBytes, crc);
    forest.blocks()[block].id.toWire(buf);
    buf << std::uint64_t(pdfBytes) << std::uint64_t(flagBytes) << crc;
    buf.putBytes(pdf.data(), pdfBytes);
    buf.putBytes(flags.data(), flagBytes);
}

int applyBlockRecord(DistributedSimulation& sim, RecvBuffer& rb,
                     std::string* error) {
    BlockRecord rec;
    const int parsed = parseBlockRecord(sim, rb, rec, error);
    if (parsed > 0) restoreBlockRecord(sim, rec);
    return parsed;
}

bool checkpointSave(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t step, std::size_t* bytesWritten, std::string* error) {
    vmpi::Comm& comm = sim.comm();
    const bf::BlockForest& forest = sim.forest();

    // One-writer strategy: gather every rank's contribution on rank 0. The
    // contribution (block assignment plus CRC-protected records) is sized
    // exactly before it is filled, so it is one allocation, and it is freed
    // as soon as the gather has copied it.
    std::vector<std::vector<std::uint8_t>> all;
    {
        std::size_t mineBytes = 2 * sizeof(std::uint32_t);
        for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b)
            mineBytes += blockRecordBytes(sim, b);
        SendBuffer mine;
        mine.reserve(mineBytes);
        mine << std::uint32_t(comm.rank());
        mine << std::uint32_t(forest.numLocalBlocks());
        for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b)
            appendBlockRecord(sim, b, mine);
        WALB_ASSERT(mine.size() == mineBytes);
        // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
        all = comm.gatherv(std::span<const std::uint8_t>(mine.data(), mine.size()), 0);
    }
    bool ok = true;
    std::uint64_t fileBytes = 0;
    if (comm.rank() == 0) {
        // Header, then each contribution as u64 length + bytes (the layout
        // of SendBuffer's vector operator<<), streamed straight from the
        // gathered buffers into the file: no second full-size copy.
        // Every header field but the magic is a CheckpointHeader member, so
        // this bound holds as the header grows: one allocation.
        SendBuffer header;
        header.reserve(sizeof(kCheckpointMagic) + sizeof(CheckpointHeader));
        header << kCheckpointMagic << kCheckpointVersion << std::uint32_t(comm.size());
        header << std::uint32_t(forest.cellsX()) << std::uint32_t(forest.cellsY())
               << std::uint32_t(forest.cellsZ());
        header << step << std::uint32_t(all.size());
        FileWriter out(path);
        out.write(header.data(), header.size());
        fileBytes = header.size();
        for (const auto& contribution : all) {
            std::uint8_t length[8];
            detail::putLE(length, contribution.size(), 8);
            out.write(length, sizeof(length));
            out.write(contribution.data(), contribution.size());
            fileBytes += sizeof(length) + contribution.size();
        }
        all.clear();
        ok = out.commit();
    }

    // Broadcast the outcome so every rank reports the same result.
    std::vector<std::uint8_t> status;
    if (comm.rank() == 0) {
        SendBuffer sb;
        sb << ok << fileBytes;
        status = sb.release();
    }
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    comm.broadcast(status, 0);
    RecvBuffer rb(std::move(status));
    bool fileOk = false;
    std::uint64_t totalBytes = 0;
    rb >> fileOk >> totalBytes;
    if (bytesWritten) *bytesWritten = std::size_t(totalBytes);
    if (!fileOk) setError(error, "failed to write checkpoint file '" + path + "'");
    return fileOk;
}

bool checkpointLoad(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t* stepOut, std::string* error) {
    vmpi::Comm& comm = sim.comm();
    const bf::BlockForest& forest = sim.forest();

    // Single read on rank 0, broadcast to the world (paper's one-reader
    // strategy). An unreadable file yields an empty broadcast on all ranks.
    std::vector<std::uint8_t> bytes;
    if (comm.rank() == 0) {
        if (!readFile(path, bytes)) bytes.clear();
    }
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    comm.broadcast(bytes, 0);
    if (bytes.empty()) {
        setError(error, "cannot read checkpoint file '" + path + "'");
        return false;
    }

    try {
        RecvBuffer file(std::move(bytes));
        CheckpointHeader header;
        if (!parseHeader(file, header, error)) return false;
        if (header.cellsX != std::uint32_t(forest.cellsX()) ||
            header.cellsY != std::uint32_t(forest.cellsY()) ||
            header.cellsZ != std::uint32_t(forest.cellsZ())) {
            setError(error, "checkpoint geometry mismatch: file has " +
                                std::to_string(header.cellsX) + "x" +
                                std::to_string(header.cellsY) + "x" +
                                std::to_string(header.cellsZ) + " cells per block");
            return false;
        }

        // Pass 1: walk the whole file in place and verify this rank's
        // records. Nothing is applied yet, so a truncated or corrupted file
        // leaves the live state (step counter included) untouched.
        std::vector<BlockRecord> records;
        for (std::uint32_t c = 0; c < header.numRankContributions; ++c) {
            RecvBuffer rb = nextContribution(file);
            std::uint32_t srcRank = 0, numBlocks = 0;
            rb >> srcRank >> numBlocks;
            (void)srcRank; // blocks are matched by ID, not by writing rank,
                           // so restarts tolerate a different assignment
            for (std::uint32_t b = 0; b < numBlocks; ++b) {
                BlockRecord rec;
                const int parsed = parseBlockRecord(sim, rb, rec, error);
                if (parsed < 0) return false;
                if (parsed > 0) records.push_back(rec);
            }
        }
        if (records.size() != forest.numLocalBlocks()) {
            setError(error, "checkpoint covers only " + std::to_string(records.size()) +
                                " of " + std::to_string(forest.numLocalBlocks()) +
                                " local blocks");
            return false;
        }

        // Pass 2: restore the step counter *before* applying any record —
        // the AA-tier scatter lays PDFs out by the parity of the step being
        // resumed — then copy each verified payload into its block.
        sim.setCurrentStep(header.step);
        for (const BlockRecord& rec : records) restoreBlockRecord(sim, rec);
        if (stepOut) *stepOut = header.step;
        return true;
    } catch (const BufferError& e) {
        setError(error, std::string("truncated/corrupt checkpoint: ") + e.what());
        return false;
    }
}

bool checkpointPeek(const std::string& path, CheckpointHeader& out, std::string* error) {
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes)) {
        setError(error, "cannot read checkpoint file '" + path + "'");
        return false;
    }
    try {
        RecvBuffer file(std::move(bytes));
        return parseHeader(file, out, error);
    } catch (const BufferError& e) {
        setError(error, std::string("truncated checkpoint header: ") + e.what());
        return false;
    }
}

// walb-lint: begin(deterministic)
std::uint64_t checkpointDigest(DistributedSimulation& sim) {
    std::uint64_t local = 0;
    for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b) {
        const lbm::PdfField& pdf = sim.canonicalPdfField(b);
        // Interior cells only: ghost slots are transient exchange scratch
        // (refilled from neighbor interiors every step), so hashing them
        // would make the digest depend on exchange history rather than on
        // the physical state. Interior-only hashing is what lets a block
        // migration — which moves interiors and re-fills ghosts — be
        // digest-invariant. The AA tiers hash the parity-normalized
        // canonical view for the same reason: raw AA storage depends on the
        // parity and on which neighbor backs each edge slot, the canonical
        // view does not. fzyx layout: each interior x-row is contiguous.
        std::uint32_t crc = 0;
        for (cell_idx_t f = 0; f < cell_idx_t(pdf.fSize()); ++f)
            for (cell_idx_t z = 0; z < pdf.zSize(); ++z)
                for (cell_idx_t y = 0; y < pdf.ySize(); ++y)
                    crc = crc32(pdf.dataAt(0, y, z, f),
                                std::size_t(pdf.xSize()) * sizeof(real_t), crc);
        local += crc;
    }
    // walb-lint: allow(blocking): digest reduction, reached by all ranks
    return vmpi::allreduceSum(sim.comm(), local);
}
// walb-lint: end(deterministic)

std::optional<std::string> flagValue(int argc, char** argv, int i, const std::string& flag) {
    const std::string arg = argv[i];
    std::optional<std::string> v;
    if (arg == flag) {
        if (i + 1 >= argc) throw OptionError(flag + ": missing value");
        v = argv[i + 1];
    } else if (arg.rfind(flag + "=", 0) == 0) {
        v = arg.substr(flag.size() + 1);
    }
    if (v && v->empty()) throw OptionError(flag + ": missing value");
    return v;
}

CheckpointOptions CheckpointOptions::fromArgs(int argc, char** argv) {
    const auto count = parseFlagValue<std::uint64_t>;
    CheckpointOptions opt;
    for (int i = 1; i < argc; ++i) {
        if (auto v = flagValue(argc, argv, i, "--checkpoint-every"))
            opt.every = count("--checkpoint-every", *v);
        else if ((v = flagValue(argc, argv, i, "--checkpoint-path")))
            opt.path = *v;
        else if ((v = flagValue(argc, argv, i, "--restart-from")))
            opt.restartFrom = *v;
        else if ((v = flagValue(argc, argv, i, "--stop-after")))
            opt.stopAfter = count("--stop-after", *v);
        else if ((v = flagValue(argc, argv, i, "--steps")))
            opt.steps = count("--steps", *v);
    }
    return opt;
}

} // namespace walb::sim
