#include "sim/Checkpoint.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "core/BinaryIO.h"
#include "core/Crc32.h"
#include "core/Debug.h"
#include "core/Logging.h"
#include "sim/DistributedSimulation.h"

namespace walb::sim {

namespace {

using M = lbm::D3Q19;

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

// ---- file header -----------------------------------------------------------

/// Header fields from the magic through numRankContributions; the header
/// CRC covers exactly these bytes.
constexpr std::size_t kHeaderFieldBytes = 7 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

SendBuffer encodeHeader(const CheckpointHeader& h) {
    SendBuffer header;
    header.reserve(kHeaderFieldBytes + sizeof(std::uint32_t));
    header << kCheckpointMagic << h.version << h.worldSize << h.cellsX << h.cellsY << h.cellsZ
           << h.step << h.numRankContributions;
    header << crc32(header.data(), header.size());
    return header;
}

/// Parses and verifies the header. Throws CheckpointError on a bad magic,
/// version or header CRC, BufferError when the file is shorter than it.
CheckpointHeader parseHeader(RecvBuffer& file) {
    const std::uint8_t* start = file.cursor();
    std::uint32_t magic = 0;
    file >> magic;
    if (magic != kCheckpointMagic) throw CheckpointError("not a walb checkpoint (bad magic)");
    CheckpointHeader h;
    file >> h.version;
    if (h.version != kCheckpointVersion)
        throw CheckpointError(
            "unsupported checkpoint version " + std::to_string(h.version) + " (expected " +
            std::to_string(kCheckpointVersion) + ")" +
            (h.version == 2 ? ": version 2 stored full-allocation block records, which this "
                              "build no longer reads"
                            : ""));
    std::uint32_t storedCrc = 0;
    file >> h.worldSize >> h.cellsX >> h.cellsY >> h.cellsZ >> h.step >>
        h.numRankContributions >> storedCrc;
    const std::uint32_t crc = crc32(start, kHeaderFieldBytes);
    if (crc != storedCrc)
        throw CheckpointError("checkpoint header CRC mismatch: expected " + hexCrc(storedCrc) +
                              " (stored), actual " + hexCrc(crc) + " (computed)");
    return h;
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

// ---- block records ---------------------------------------------------------

/// Bytes in front of a record's payload: BlockID, payload size, CRC.
constexpr std::size_t kRecordHeaderBytes =
    bf::BlockID::kWireBytes + sizeof(std::uint64_t) + sizeof(std::uint32_t);
/// The payload's leading counts: fluidCells, linkSlots, flagRuns.
constexpr std::size_t kCountBytes = 3 * sizeof(std::uint32_t);
/// One run of the flag code: the flag byte and the number of cells.
constexpr std::size_t kFlagRunBytes = sizeof(field::flag_t) + sizeof(std::uint32_t);

/// Number of runs of equal bytes in the flag allocation.
std::size_t countFlagRuns(const field::FlagField& flags) {
    const field::flag_t* f = flags.data();
    const std::size_t n = flags.allocCells();
    std::size_t runs = n > 0 ? 1 : 0;
    for (std::size_t i = 1; i < n; ++i) runs += f[i] != f[i - 1] ? 1 : 0;
    return runs;
}

std::size_t payloadBytes(std::size_t fluidCells, std::size_t linkSlots, std::size_t flagRuns) {
    return kCountBytes + flagRuns * kFlagRunBytes +
           (M::Q * fluidCells + 2 * linkSlots) * sizeof(real_t);
}

/// Sequential writer into a pre-sized record.
struct ByteWriter {
    std::uint8_t* p;
    void u32(std::size_t v) {
        WALB_ASSERT(v <= std::numeric_limits<std::uint32_t>::max(), "record count " << v);
        detail::putLE(p, v, 4);
        p += 4;
    }
    void bytes(const void* src, std::size_t n) {
        std::memcpy(p, src, n);
        p += n;
    }
};

std::uint32_t readU32(const std::uint8_t* p) { return std::uint32_t(detail::getLE(p, 4)); }

/// Copies every fluid run of every direction between a PDF field and a
/// packed array: the gather of appendBlockRecord and the scatter of
/// restoreBlockRecord.
template <typename Pdf, typename Fn>
void forEachFluidRow(Pdf& pdf, const lbm::FluidRunList& fluid, Fn&& fn) {
    std::size_t offset = 0;
    for (cell_idx_t f = 0; f < cell_idx_t(M::Q); ++f)
        for (const lbm::FluidRun& r : fluid.runs) {
            const std::size_t n = std::size_t(r.xEnd - r.xBegin + 1);
            fn(pdf.dataAt(r.xBegin, r.y, r.z, f), offset, n);
            offset += n;
        }
}

#ifndef NDEBUG
/// Debug builds: every interior slot of a two-grid block outside the
/// stored set holds the initializer's value in src and dst (dst fluid
/// cells are exempt — the next sweep rewrites them before any read).
void assertStoredSetIsComplete(DistributedSimulation& sim, std::size_t block,
                               const BlockStoredSet& set) {
    const lbm::PdfField& src = sim.pdfField(block);
    const lbm::PdfField& dst = sim.pdfDstField(block);
    std::vector<bool> stored(src.allocCells(), false);
    for (const std::size_t i : set.linkSlots) stored[i] = true;
    for (const lbm::FluidRun& r : set.fluid.runs)
        for (cell_idx_t f = 0; f < cell_idx_t(M::Q); ++f)
            for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x)
                stored[src.index(x, r.y, r.z, f)] = true;
    const auto init = DistributedSimulation::initialPdfs();
    src.interior().forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (cell_idx_t f = 0; f < cell_idx_t(M::Q); ++f) {
            const std::size_t i = src.index(x, y, z, f);
            if (stored[i]) continue;
            const auto want = std::bit_cast<std::uint64_t>(init[std::size_t(f)]);
            WALB_DASSERT(std::bit_cast<std::uint64_t>(src.data()[i]) == want &&
                             std::bit_cast<std::uint64_t>(dst.data()[i]) == want,
                         "slot (" << x << "," << y << "," << z << "," << f << ") of block "
                                  << block << " changed after init but is not stored");
        }
    });
}
#endif

} // namespace

BlockStoredSet blockStoredSet(const field::FlagField& flags, const lbm::BoundaryFlags& masks,
                              const lbm::PdfField& pdf) {
    WALB_ASSERT(pdf.layout() == field::Layout::fzyx && pdf.fSize() == M::Q,
                "block records gather contiguous D3Q19 rows of an fzyx PDF field");
    BlockStoredSet set;
    set.fluid = lbm::buildFluidRuns(flags, masks.fluid);
    const CellInterval interior = flags.interior();
    std::vector<Cell> hull;
    interior.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags.get(x, y, z) & masks.boundaryMask()) hull.push_back({x, y, z});
    });
    // The link rule of lbm::BoundaryHandling, restricted to interior
    // boundary cells; direction-major, so the indices come out ascending.
    for (uint_t a = 1; a < M::Q; ++a)
        for (const Cell& c : hull) {
            const Cell nb{c.x + M::c[a][0], c.y + M::c[a][1], c.z + M::c[a][2]};
            if (interior.contains(nb) && (flags.get(nb) & masks.fluid))
                set.linkSlots.push_back(pdf.index(c.x, c.y, c.z, cell_idx_c(a)));
        }
    return set;
}

std::size_t blockRecordBytes(DistributedSimulation& sim, std::size_t block) {
    const field::FlagField& flags = sim.flagField(block);
    const BlockStoredSet set = blockStoredSet(flags, sim.masks(), sim.pdfField(block));
    const std::size_t links = sim.usesAaPattern() ? 0 : set.linkSlots.size();
    return kRecordHeaderBytes + payloadBytes(set.fluid.fluidCells, links, countFlagRuns(flags));
}

void appendBlockRecord(DistributedSimulation& sim, std::size_t block, SendBuffer& buf) {
    const field::FlagField& flags = sim.flagField(block);
    const bool aa = sim.usesAaPattern();
    // Canonical view: the live src field for the two-grid tiers, the
    // parity-normalized scratch for the AA tiers.
    const lbm::PdfField& pdf = sim.canonicalPdfField(block);
    const BlockStoredSet set = blockStoredSet(flags, sim.masks(), pdf);
#ifndef NDEBUG
    if (!aa) assertStoredSetIsComplete(sim, block, set);
#endif
    const std::size_t links = aa ? 0 : set.linkSlots.size();
    const std::size_t flagRuns = countFlagRuns(flags);
    const std::size_t payload = payloadBytes(set.fluid.fluidCells, links, flagRuns);

    SendBuffer head;
    head.reserve(kRecordHeaderBytes);
    sim.forest().blocks()[block].id.toWire(head);
    head << std::uint64_t(payload);
    std::uint8_t* record = buf.grow(kRecordHeaderBytes + payload);
    ByteWriter out{record};
    out.bytes(head.data(), head.size());
    out.p += sizeof(std::uint32_t); // the CRC, filled in last
    out.u32(set.fluid.fluidCells);
    out.u32(links);
    out.u32(flagRuns);
    const field::flag_t* f = flags.data();
    const std::size_t n = flags.allocCells();
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && f[j] == f[i]) ++j;
        out.bytes(&f[i], sizeof(field::flag_t));
        out.u32(j - i);
        i = j;
    }
    forEachFluidRow(pdf, set.fluid, [&](const real_t* row, std::size_t, std::size_t cells) {
        out.bytes(row, cells * sizeof(real_t));
    });
    if (links > 0)
        for (const lbm::PdfField* field : {&sim.pdfField(block), &sim.pdfDstField(block)})
            for (const std::size_t i : set.linkSlots) out.bytes(&field->data()[i], sizeof(real_t));
    WALB_ASSERT(out.p == record + kRecordHeaderBytes + payload);
    // One CRC over the identity, the size and the payload.
    std::uint32_t crc = crc32(record, head.size());
    crc = crc32(record + kRecordHeaderBytes, payload, crc);
    detail::putLE(record + head.size(), crc, 4);
}

std::span<const std::uint8_t> nextBlockRecord(RecvBuffer& rb, bf::BlockID& id) {
    const std::uint8_t* start = rb.cursor();
    id = bf::BlockID::fromWire(rb);
    std::uint64_t payload = 0;
    std::uint32_t crc = 0;
    rb >> payload >> crc;
    if (payload > rb.remaining()) throw BufferError(std::size_t(payload), rb.remaining());
    rb.skip(std::size_t(payload));
    return {start, rb.cursor()};
}

std::optional<VerifiedBlockRecord> verifyBlockRecord(DistributedSimulation& sim,
                                                     RecvBuffer& rb) {
    bf::BlockID id;
    const std::span<const std::uint8_t> record = nextBlockRecord(rb, id);
    const std::int32_t local = findLocalBlock(sim.forest(), id);
    if (local < 0) return std::nullopt;

    const std::uint8_t* payload = record.data() + kRecordHeaderBytes;
    const std::size_t size = record.size() - kRecordHeaderBytes;
    const std::size_t crcAt = kRecordHeaderBytes - sizeof(std::uint32_t);
    const std::uint32_t storedCrc = readU32(record.data() + crcAt);
    std::uint32_t crc = crc32(record.data(), crcAt);
    crc = crc32(payload, size, crc);
    if (crc != storedCrc)
        throw CheckpointError("checkpoint CRC mismatch on block " + describeBlockId(id) +
                              ": expected " + hexCrc(storedCrc) + " (stored), actual " +
                              hexCrc(crc) + " (computed) — payload corrupted");
    const auto fail = [&](const std::string& what) {
        throw CheckpointError("block record of block " + describeBlockId(id) + " " + what);
    };

    // Counts and the flag code, each bounded by the bytes that are there
    // and by the local block's geometry before it drives any loop.
    if (size < kCountBytes) fail("is shorter than its counts");
    const std::uint32_t fluidCells = readU32(payload);
    const std::uint32_t linkSlots = readU32(payload + 4);
    const std::uint32_t flagRuns = readU32(payload + 8);
    if (flagRuns > (size - kCountBytes) / kFlagRunBytes)
        fail("claims " + std::to_string(flagRuns) + " flag runs in " + std::to_string(size) +
             " bytes");
    const field::FlagField& live = sim.flagField(std::size_t(local));
    field::FlagField flags(live.xSize(), live.ySize(), live.zSize(), live.ghostLayers());
    const std::size_t cells = flags.allocCells();
    const std::uint8_t* code = payload + kCountBytes;
    std::size_t filled = 0;
    for (std::uint32_t r = 0; r < flagRuns; ++r, code += kFlagRunBytes) {
        const std::uint32_t n = readU32(code + 1);
        if (n > cells - filled)
            fail("flag runs overflow the " + std::to_string(cells) + "-cell allocation");
        std::memset(flags.data() + filled, code[0], n);
        filled += n;
    }
    if (filled != cells)
        fail("flag runs cover " + std::to_string(filled) + " of " + std::to_string(cells) +
             " cells");

    BlockStoredSet stored = blockStoredSet(flags, sim.masks(), sim.pdfField(std::size_t(local)));
    if (fluidCells != stored.fluid.fluidCells)
        fail("holds " + std::to_string(fluidCells) + " fluid cells, its flags " +
             std::to_string(stored.fluid.fluidCells));
    if (linkSlots != 0 && linkSlots != stored.linkSlots.size())
        fail("holds " + std::to_string(linkSlots) + " link slots, its flags " +
             std::to_string(stored.linkSlots.size()));
    if (size != payloadBytes(fluidCells, linkSlots, flagRuns))
        fail("payload is " + std::to_string(size) + " bytes, its counts imply " +
             std::to_string(payloadBytes(fluidCells, linkSlots, flagRuns)));
    const std::uint8_t* fluidPdfs = code;
    const std::uint8_t* linkPdfs =
        linkSlots > 0 ? fluidPdfs + M::Q * std::size_t(fluidCells) * sizeof(real_t) : nullptr;
    return VerifiedBlockRecord{std::size_t(local), std::move(flags), std::move(stored), fluidPdfs,
                               linkPdfs};
}

void restoreBlockRecord(DistributedSimulation& sim, const VerifiedBlockRecord& rec) {
    field::FlagField& flags = sim.flagField(rec.block);
    std::memcpy(flags.data(), rec.flags.data(), flags.allocCells() * sizeof(field::flag_t));
    const bool aa = sim.usesAaPattern();
    lbm::PdfField& pdf = aa ? sim.canonicalScratch() : sim.pdfField(rec.block);
    forEachFluidRow(pdf, rec.stored.fluid, [&](real_t* row, std::size_t offset, std::size_t n) {
        std::memcpy(row, rec.fluidPdfs + offset * sizeof(real_t), n * sizeof(real_t));
    });
    // Flags first, then the canonical scatter: it walks the block's fluid
    // cells, so it must see the restored flags. The caller has already
    // restored the step counter, so the scatter's parity matches the save.
    if (aa) {
        sim.applyCanonicalPdf(rec.block, pdf);
        return;
    }
    const std::vector<std::size_t>& slots = rec.stored.linkSlots;
    const auto init = DistributedSimulation::initialPdfs();
    lbm::PdfField* fields[2] = {&sim.pdfField(rec.block), &sim.pdfDstField(rec.block)};
    for (std::size_t k = 0; k < 2; ++k) {
        real_t* data = fields[k]->data();
        if (rec.linkPdfs) {
            const std::uint8_t* in = rec.linkPdfs + k * slots.size() * sizeof(real_t);
            for (std::size_t i = 0; i < slots.size(); ++i)
                std::memcpy(&data[slots[i]], in + i * sizeof(real_t), sizeof(real_t));
        } else {
            // A record without link slots (written by an AA tier): the hull
            // slots get the initializer's value, as in a fresh block.
            const auto fStride = std::size_t(fields[k]->fStride());
            for (const std::size_t i : slots) data[i] = init[i / fStride];
        }
    }
}

int applyBlockRecord(DistributedSimulation& sim, RecvBuffer& rb, std::string* error) {
    try {
        const auto rec = verifyBlockRecord(sim, rb);
        if (!rec) return 0;
        restoreBlockRecord(sim, *rec);
        return 1;
    } catch (const CheckpointError& e) {
        setError(error, e.what());
        return -1;
    }
}

// ---- the file ----------------------------------------------------------------

bool checkpointSave(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t step, std::size_t* bytesWritten, std::string* error) {
    vmpi::Comm& comm = sim.comm();
    const bf::BlockForest& forest = sim.forest();

    // One-writer strategy: gather every rank's contribution on rank 0. The
    // contribution (block count plus CRC-protected records) is sized
    // exactly before it is filled, so it is one allocation, and it is freed
    // as soon as the gather has copied it.
    std::vector<std::vector<std::uint8_t>> all;
    {
        std::size_t mineBytes = sizeof(std::uint32_t);
        for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b)
            mineBytes += blockRecordBytes(sim, b);
        SendBuffer mine;
        mine.reserve(mineBytes);
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
        CheckpointHeader h;
        h.version = kCheckpointVersion;
        h.worldSize = std::uint32_t(comm.size());
        h.cellsX = std::uint32_t(forest.cellsX());
        h.cellsY = std::uint32_t(forest.cellsY());
        h.cellsZ = std::uint32_t(forest.cellsZ());
        h.step = step;
        h.numRankContributions = std::uint32_t(all.size());
        const SendBuffer header = encodeHeader(h);
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

namespace {

/// Rank 0's half of the scatter load: reads and indexes the file, then
/// builds one message per rank — `u8 ok, string error` on a file-level
/// failure, else `u8 ok, u64 step, u32 numRecords` and the raw records of
/// the blocks that rank listed in `idsByRank`.
std::vector<SendBuffer> scatterMessages(const std::string& path, const bf::BlockForest& forest,
                                        const std::vector<std::vector<std::uint8_t>>& idsByRank) {
    std::vector<SendBuffer> out(idsByRank.size());
    const auto failAll = [&](const std::string& error) {
        for (SendBuffer& m : out) {
            m.clear();
            m << std::uint8_t(0) << error;
        }
        return std::move(out);
    };
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes) || bytes.empty())
        return failAll("cannot read checkpoint file '" + path + "'");
    try {
        RecvBuffer file{std::span<const std::uint8_t>(bytes)};
        const CheckpointHeader header = parseHeader(file);
        if (header.cellsX != std::uint32_t(forest.cellsX()) ||
            header.cellsY != std::uint32_t(forest.cellsY()) ||
            header.cellsZ != std::uint32_t(forest.cellsZ()))
            return failAll("checkpoint geometry mismatch: file has " +
                           std::to_string(header.cellsX) + "x" + std::to_string(header.cellsY) +
                           "x" + std::to_string(header.cellsZ) + " cells per block");
        // Index every record by BlockID; payloads are verified by the rank
        // that owns the block.
        std::unordered_map<bf::BlockID, std::span<const std::uint8_t>, bf::BlockIDHash> index;
        for (std::uint32_t c = 0; c < header.numRankContributions; ++c) {
            RecvBuffer rb = nextContribution(file);
            std::uint32_t numBlocks = 0;
            rb >> numBlocks;
            for (std::uint32_t b = 0; b < numBlocks; ++b) {
                bf::BlockID id;
                const auto record = nextBlockRecord(rb, id);
                if (!index.emplace(id, record).second)
                    return failAll("corrupt checkpoint: two records for block " +
                                   describeBlockId(id));
            }
            if (!rb.atEnd())
                return failAll("corrupt checkpoint: contribution " + std::to_string(c) +
                               " has " + std::to_string(rb.remaining()) +
                               " bytes after its last record");
        }
        if (!file.atEnd())
            return failAll("corrupt checkpoint: " + std::to_string(file.remaining()) +
                           " bytes after the last contribution");
        for (std::size_t r = 0; r < idsByRank.size(); ++r) {
            RecvBuffer ids{std::span<const std::uint8_t>(idsByRank[r])};
            std::vector<std::span<const std::uint8_t>> records;
            while (!ids.atEnd()) {
                const auto it = index.find(bf::BlockID::fromWire(ids));
                if (it != index.end()) records.push_back(it->second);
            }
            std::size_t size = 1 + sizeof(std::uint64_t) + sizeof(std::uint32_t);
            for (const auto& rec : records) size += rec.size();
            out[r].reserve(size);
            out[r] << std::uint8_t(1) << header.step << std::uint32_t(records.size());
            for (const auto& rec : records) out[r].putBytes(rec.data(), rec.size());
        }
        return out;
    } catch (const CheckpointError& e) {
        return failAll(e.what());
    } catch (const BufferError& e) {
        return failAll(std::string("truncated/corrupt checkpoint: ") + e.what());
    }
}

} // namespace

bool checkpointLoad(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t* stepOut, std::string* error) {
    vmpi::Comm& comm = sim.comm();
    const bf::BlockForest& forest = sim.forest();

    // Rank 0 learns which blocks each rank owns (a few bytes per block)...
    SendBuffer ids;
    ids.reserve(forest.numLocalBlocks() * bf::BlockID::kWireBytes);
    for (const auto& block : forest.blocks()) block.id.toWire(ids);
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    const auto idsByRank = comm.gatherv(std::span<const std::uint8_t>(ids.data(), ids.size()), 0);

    // ...reads the file once and sends every rank its own records only
    // (the paper's one-reader strategy at O(own blocks) memory per rank).
    std::vector<std::uint8_t> mine;
    if (comm.rank() == 0) {
        std::vector<SendBuffer> messages = scatterMessages(path, forest, idsByRank);
        for (int r = 1; r < comm.size(); ++r)
            comm.send(r, vmpi::tags::kCheckpointScatter, messages[std::size_t(r)].release());
        mine = messages[0].release();
    } else {
        // walb-lint: allow(blocking): rank 0 sends every rank its message unconditionally; the run comm's recv deadline applies
        mine = comm.recv(0, vmpi::tags::kCheckpointScatter);
    }

    // Verify every record of this rank before anything is applied.
    std::string why;
    std::uint64_t step = 0;
    std::vector<VerifiedBlockRecord> records;
    try {
        RecvBuffer rb{std::span<const std::uint8_t>(mine)};
        std::uint8_t ok = 0;
        rb >> ok;
        if (!ok) {
            rb >> why;
        } else {
            std::uint32_t numRecords = 0;
            rb >> step >> numRecords;
            for (std::uint32_t k = 0; k < numRecords; ++k)
                if (auto rec = verifyBlockRecord(sim, rb)) records.push_back(std::move(*rec));
            if (records.size() != forest.numLocalBlocks())
                why = "checkpoint covers only " + std::to_string(records.size()) + " of " +
                      std::to_string(forest.numLocalBlocks()) + " local blocks";
        }
    } catch (const CheckpointError& e) {
        why = e.what();
    } catch (const BufferError& e) {
        why = std::string("truncated/corrupt checkpoint: ") + e.what();
    }

    // All or nothing: a rank applies only when every rank verified.
    std::uint64_t failedRanks = why.empty() ? 0 : 1;
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    comm.allreduce(std::span<std::uint64_t>(&failedRanks, 1), vmpi::ReduceOp::Sum);
    if (failedRanks > 0) {
        setError(error, why.empty() ? "checkpoint rejected: records of " +
                                          std::to_string(failedRanks) +
                                          " other rank(s) failed verification"
                                    : why);
        return false;
    }

    // Restore the step counter *before* applying any record — the AA-tier
    // scatter lays PDFs out by the parity of the step being resumed.
    sim.setCurrentStep(step);
    for (const VerifiedBlockRecord& rec : records) restoreBlockRecord(sim, rec);
    if (stepOut) *stepOut = step;
    return true;
}

bool checkpointPeek(const std::string& path, CheckpointHeader& out, std::string* error) {
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes)) {
        setError(error, "cannot read checkpoint file '" + path + "'");
        return false;
    }
    try {
        RecvBuffer file(std::move(bytes));
        out = parseHeader(file);
        return true;
    } catch (const CheckpointError& e) {
        setError(error, e.what());
        return false;
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
