#pragma once
/// \file Checkpoint.h
/// Checkpoint/restart of a DistributedSimulation — the fault-tolerance leg
/// the production frameworks treat as table stakes (waLBerla's
/// checkpoint-based resilience, OpenLB's save/load of the lattice state).
///
/// Format (version 2, file extension .wckp by convention), written through
/// core/BinaryIO's endian-independent buffers:
///
///   u32 magic 'WCKP'   u32 version   u32 worldSize
///   u32 cellsPerBlock{X,Y,Z}         u64 step      u32 numRankContributions
///   repeat numRankContributions times:  byte-vector (length-prefixed)
///
/// Each rank contribution holds the writing rank, its block assignment and
/// per block a versioned record:
///
///   u32 rank   u32 numBlocks
///   per block: BlockID{u32 root, u8 level, u64 path}
///              u64 pdfBytes   u64 flagBytes   u32 crc32(pdf ++ flags)
///              raw PDF field bytes (full allocation incl. ghost layers)
///              raw flag field bytes
///
/// The per-block CRC32 is verified *before* a payload is applied, so a
/// corrupted file never clobbers a live simulation state. Restoring the
/// full allocation (ghost layers included) makes a restart bit-exact: a run
/// of N steps with a save/load cycle in the middle produces byte-identical
/// densities to the uninterrupted run.
///
/// The AA kernel tiers write the *canonical* (parity-normalized) PDF view
/// into the same full-size record — interior fluid cells carry the physical
/// post-collision values, everything else is zero — and the restore path
/// scatters it back under the parity of the restored step. The wire format
/// is therefore identical across tiers.
///
/// Writing follows the paper's one-writer file strategy (§2.2): rank 0
/// gathers all contributions and streams them into `<path>.tmp`, which is
/// renamed over `path` only when every write succeeded — a failed or
/// interrupted save leaves the previous checkpoint intact. Loading reads the
/// file once on rank 0 and broadcasts; every rank then parses it in place,
/// verifies all of its records and only then applies them, so a truncated
/// or corrupted file leaves the live state untouched. Blocks are matched by
/// BlockID, not by rank, so a restart may use a different load balancing
/// than the save.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/Buffer.h"

namespace walb::sim {

class DistributedSimulation;

inline constexpr std::uint32_t kCheckpointMagic = 0x57434b50; // "WCKP"
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Parsed fixed-size prefix of a checkpoint file.
struct CheckpointHeader {
    std::uint32_t version = 0;
    std::uint32_t worldSize = 0;
    std::uint32_t cellsX = 0, cellsY = 0, cellsZ = 0;
    std::uint64_t step = 0;
    std::uint32_t numRankContributions = 0;
};

/// Collective: every rank contributes its blocks; rank 0 writes the file.
/// All ranks return the same success flag (the write outcome is broadcast).
/// `bytesWritten` (if non-null) receives the file size on every rank.
bool checkpointSave(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t step, std::size_t* bytesWritten = nullptr,
                    std::string* error = nullptr);

/// Collective: rank 0 reads the file with one read operation and broadcasts;
/// every rank restores its own blocks (CRC-verified) and the simulation's
/// step counter. Returns false — with a diagnosis in `error` — on a missing
/// file, bad magic/version, geometry mismatch, CRC failure, or truncation.
bool checkpointLoad(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t* stepOut = nullptr, std::string* error = nullptr);

/// Local (no communicator): reads just the header for inspection.
bool checkpointPeek(const std::string& path, CheckpointHeader& out,
                    std::string* error = nullptr);

/// Appends one local block's record in the v2 per-block wire format
/// (BlockID, payload sizes, CRC32 over pdf ++ flags, full-allocation PDF +
/// flag bytes) to `buf`. Shared by the disk checkpoint writer and the
/// in-memory buddy checkpoint of walb::recover — one format, one CRC
/// discipline.
void appendBlockRecord(DistributedSimulation& sim, std::size_t block,
                       SendBuffer& buf);

/// Exact number of bytes appendBlockRecord appends for `block`, so callers
/// can size a buffer once instead of letting it regrow.
std::size_t blockRecordBytes(DistributedSimulation& sim, std::size_t block);

/// Consumes one block record from `rb`. When the named block is local, the
/// CRC is verified *before* the payload touches the live fields and the
/// block is restored; a record for a block owned elsewhere is skipped.
/// Returns +1 applied, 0 skipped, -1 failure — on failure `error` names the
/// offending BlockID and the expected vs. actual CRC. May throw BufferError
/// on a truncated record (callers wrap the whole stream parse).
int applyBlockRecord(DistributedSimulation& sim, RecvBuffer& rb,
                     std::string* error = nullptr);

/// Collective: order-independent fingerprint of the physical PDF state
/// (sum over blocks of each block's interior-cell CRC32, allreduced).
/// Interior cells are the complete physical state — ghost slots are
/// exchange scratch refilled from neighbor interiors every step — so two
/// runs with equal digests have bit-exact equal fields everywhere that is
/// ever read, and the digest is invariant across a rebalance migration
/// (which moves interiors and re-fills ghosts). AA tiers are hashed through
/// the canonical parity-normalized view, so the digest is also invariant
/// under the AA storage parity; note it hashes zeros at non-fluid cells
/// there, so AA and two-grid digests of the same state differ by design.
std::uint64_t checkpointDigest(DistributedSimulation& sim);

// ---- driver wiring ---------------------------------------------------------

/// Malformed checkpoint flag (non-numeric or negative count, missing value);
/// the message names the flag.
class OptionError : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// Command-line surface shared by the fig6/fig7 drivers (and the ctest
/// kill-and-restart smoke):
///   --checkpoint-every N    save every N steps (and at the end of the run)
///   --checkpoint-path P     checkpoint file (default walb_checkpoint.wckp)
///   --restart-from P        load P before stepping, resume at its step
///   --stop-after N          stop after step N (simulates a killed process)
///   --steps N               override the driver's default step count
struct CheckpointOptions {
    std::uint64_t every = 0;
    std::string path = "walb_checkpoint.wckp";
    std::string restartFrom;
    std::uint64_t stopAfter = 0;
    std::uint64_t steps = 0;

    /// True when any checkpoint/restart flag was given.
    bool any() const {
        return every > 0 || !restartFrom.empty() || stopAfter > 0 || steps > 0;
    }

    /// Throws OptionError on a malformed value.
    static CheckpointOptions fromArgs(int argc, char** argv);
};

} // namespace walb::sim
