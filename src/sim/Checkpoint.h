#pragma once
/// \file Checkpoint.h
/// Checkpoint/restart of a DistributedSimulation — the fault-tolerance leg
/// the production frameworks treat as table stakes (waLBerla's
/// checkpoint-based resilience, OpenLB's save/load of the lattice state).
///
/// Format (version 3, file extension .wckp by convention), written through
/// core/BinaryIO's endian-independent buffers:
///
///   u32 magic 'WCKP'   u32 version   u32 worldSize
///   u32 cellsPerBlock{X,Y,Z}         u64 step      u32 numRankContributions
///   u32 crc32(magic .. numRankContributions)
///   repeat numRankContributions times:  byte-vector (length-prefixed)
///
/// Each rank contribution holds its block count and one record per block,
/// in the block-record format shared with the in-memory buddy copy
/// (walb::recover) and live migration (walb::rebalance):
///
///   u32 numBlocks
///   per block: BlockID{u32 root, u8 level, u64 path}
///              u64 payloadBytes   u32 crc32(BlockID ++ payloadBytes ++ payload)
///              payload:
///                u32 fluidCells   u32 linkSlots   u32 flagRuns
///                flagRuns x {u8 flags, u32 cells}   (whole flag allocation,
///                                                    ghost layers included)
///                Q x fluidCells reals  (direction-major; each direction
///                                       gathered along the interior fluid
///                                       runs in z, y, x order)
///                linkSlots reals of src, then linkSlots reals of dst
///
/// The record stores only the slots that can differ from what the
/// constructor's initializer wrote (the *stored set*, see blockStoredSet):
/// the PDFs of the interior fluid cells, and — two-grid tiers — the slots
/// the boundary links write at interior hull cells, in both PDF fields.
/// dst is needed because the field the digest hashes after the next swap
/// holds the previous step's boundary values. Every other interior slot is
/// never written after construction, so the restore leaves it at the
/// initializer's value; the two-grid dst at fluid cells is rewritten by
/// the next sweep before anything reads it; ghost slots are exchange
/// scratch refilled before they are read. A restart is therefore
/// digest-exact from its first step on.
///
/// The AA kernel tiers store the *canonical* (parity-normalized) view at
/// the fluid cells, which is zero everywhere else by definition, and no
/// link slots (linkSlots = 0); the restore scatters it back under the
/// parity of the restored step. A two-grid reader of such a record resets
/// the hull slots to the initializer's value, an AA reader ignores stored
/// link slots, so a restart may use a different tier than the save.
///
/// The record CRC is verified *before* a payload is applied, so a
/// corrupted file never clobbers a live simulation state; so is the flag
/// run-length code, and every count is checked against the geometry and
/// flags of the local block before it sizes anything. A version-2 file
/// (full-allocation records) is rejected with an error naming version 2.
///
/// Writing follows the paper's one-writer file strategy (§2.2): rank 0
/// gathers all contributions and streams them into `<path>.tmp`, which is
/// renamed over `path` only when every write succeeded — a failed or
/// interrupted save leaves the previous checkpoint intact. Loading keeps
/// the one-reader strategy at O(own blocks) memory per rank: rank 0 reads
/// the file once, learns every rank's BlockIDs from a small gather and
/// sends each rank only its own records. Every rank verifies all of its
/// records, the ranks agree on the outcome, and only then does any rank
/// apply anything, so a truncated or corrupted file leaves the live state
/// of every rank untouched. Blocks are matched by BlockID, not by rank, so
/// a restart may use a different load balancing than the save.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "blockforest/BlockID.h"
#include "core/Buffer.h"
#include "field/FlagField.h"
#include "lbm/Boundary.h"
#include "lbm/Sparse.h"

namespace walb::sim {

class DistributedSimulation;

inline constexpr std::uint32_t kCheckpointMagic = 0x57434b50; // "WCKP"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// A checkpoint file or block record that fails verification: unsupported
/// version, header or record CRC mismatch, or counts that contradict the
/// local block. The message names the version, or the block and (for a
/// CRC failure) the stored and the computed CRC. Truncation surfaces as
/// BufferError instead.
class CheckpointError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

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

/// Collective: rank 0 reads the file with one read operation and sends
/// every rank its own records; every rank verifies them (CRC, flags,
/// sizes), the ranks agree, and then each restores its blocks and the
/// simulation's step counter. Returns false on every rank — with a
/// diagnosis in `error` — on a missing file, bad magic/version, header or
/// record CRC failure, geometry mismatch, missing block, or truncation.
bool checkpointLoad(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t* stepOut = nullptr, std::string* error = nullptr);

/// Local (no communicator): reads just the header for inspection.
bool checkpointPeek(const std::string& path, CheckpointHeader& out,
                    std::string* error = nullptr);

// ---- the block-record codec ------------------------------------------------

/// The slots of one block that can differ from the initializer's values,
/// derived from its flags alone: the interior fluid runs (all Q slots of
/// each fluid cell) and, in ascending index order, the PDF-field indices of
/// the slots a boundary link writes at an interior hull cell — (xb, a) for
/// every interior boundary cell xb whose neighbor xb + e_a is an interior
/// fluid cell. The link indices are the same in the src and dst fields.
struct BlockStoredSet {
    lbm::FluidRunList fluid;
    std::vector<std::size_t> linkSlots;
};

BlockStoredSet blockStoredSet(const field::FlagField& flags, const lbm::BoundaryFlags& masks,
                              const lbm::PdfField& pdf);

/// Appends one local block's record (see the file comment) to `buf`.
/// Shared by the disk checkpoint writer, the in-memory buddy checkpoint of
/// walb::recover and the migrator of walb::rebalance — one format, one CRC
/// discipline. Debug builds assert that every interior slot outside the
/// stored set still holds the initializer's value.
void appendBlockRecord(DistributedSimulation& sim, std::size_t block,
                       SendBuffer& buf);

/// Exact number of bytes appendBlockRecord appends for `block`, so callers
/// can size a buffer once instead of letting it regrow.
std::size_t blockRecordBytes(DistributedSimulation& sim, std::size_t block);

/// Advances `rb` past the next record without verifying its payload and
/// returns the record's bytes (BlockID through payload); `id` receives its
/// BlockID. Throws BufferError when the record runs past the end of `rb`.
std::span<const std::uint8_t> nextBlockRecord(RecvBuffer& rb, bf::BlockID& id);

/// A record of a local block whose CRC, flag code and sizes have been
/// verified, decoded as far as possible without touching the simulation.
/// The PDF values are borrowed from the buffer the record was read from,
/// which must outlive this object.
struct VerifiedBlockRecord {
    std::size_t block = 0;   ///< local block index
    field::FlagField flags;  ///< the decoded flag allocation
    BlockStoredSet stored;   ///< derived from `flags`
    const std::uint8_t* fluidPdfs = nullptr;
    const std::uint8_t* linkPdfs = nullptr; ///< null: the record stores no link slots
};

/// Consumes one record from `rb` without touching the simulation. Returns
/// nullopt for a block owned elsewhere (skipped unverified). Throws
/// CheckpointError on a CRC, flag-code or size mismatch — before anything
/// is decoded into a live field — and BufferError on truncation.
std::optional<VerifiedBlockRecord> verifyBlockRecord(DistributedSimulation& sim,
                                                     RecvBuffer& rb);

/// Writes a verified record into its block: the flags, the stored slots,
/// and the initializer's value into every hull link slot the record does
/// not store. The AA tiers scatter the canonical view under the current
/// parity, so the caller restores the step counter first.
void restoreBlockRecord(DistributedSimulation& sim, const VerifiedBlockRecord& rec);

/// verifyBlockRecord + restoreBlockRecord. Returns +1 applied, 0 skipped
/// (block owned elsewhere), -1 failure — on failure `error` holds the
/// CheckpointError message. May throw BufferError on a truncated record
/// (callers wrap the whole stream parse).
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

/// Malformed command-line flag (non-numeric, negative or out-of-range
/// value, missing value); the message names the flag. The drivers exit 2
/// on it.
class OptionError : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// The value of `flag` at argv[i] ("--flag V" or "--flag=V"), nullopt when
/// argv[i] is another argument. Throws OptionError when the value is
/// missing or empty.
std::optional<std::string> flagValue(int argc, char** argv, int i, const std::string& flag);

/// Parses all of `v` as a T with std::from_chars (no sign on unsigned
/// types, no blanks, no trailing characters, no overflow, finite floats);
/// throws OptionError naming `flag` otherwise.
template <typename T>
T parseFlagValue(const std::string& flag, const std::string& v) {
    T n{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    bool ok = ec == std::errc() && end == v.data() + v.size();
    std::string expected = "a finite number";
    if constexpr (std::is_integral_v<T>)
        expected = "an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]";
    else
        ok = ok && std::isfinite(n);
    if (!ok) throw OptionError(flag + ": expected " + expected + ", got '" + v + "'");
    return n;
}

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
