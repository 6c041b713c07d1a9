#pragma once
/// \file Agreement.h
/// ULFM-style failure agreement: survivors reach an *identical* verdict on
/// which ranks are dead, using nothing but point-to-point messages.
///
/// Why point-to-point only: ThreadComm's collectives synchronize through a
/// std::barrier sized for the full world — a dead rank would hang them
/// forever. The agreement protocol therefore never blocks on any single
/// peer: it polls with tryRecv() under wall-clock windows, so a dead rank
/// costs one window, not the run.
///
/// Protocol (gossiped dead-set convergence, one message kind):
///
///   Each participant repeatedly broadcasts its current state
///   {attempt, round, deadSet, stable, done} to every rank it still
///   believes alive, then polls one window W for peers' states:
///     * receiving a peer's state unions its dead set into mine (monotone
///       growth — the iteration can only converge);
///     * a peer that stays silent for a whole window is added to my dead
///       set (round 1 doubles as the roll call: a rank the caller merely
///       suspects proves itself alive simply by participating);
///     * seeing MY OWN rank in a received dead set means the fleet has
///       already excommunicated me — I throw CommError{RankKilled} and get
///       out of the survivors' way;
///     * when my set did not change over a full round and every live peer
///       reported the same set with its stable flag raised, the verdict is
///       agreed: I send a final sticky DONE (so peers still iterating do
///       not mistake my silence for death) and return.
///
///   If the rounds fail to converge (cap exceeded), the whole attempt is
///   retried with a doubled window, seeded with everything learned so far;
///   after `maxAttempts` attempts an AgreementError is thrown — the caller
///   treats the world as unrecoverable.
///
/// The window W must exceed the worst-case *entry skew*: peers enter
/// recovery one escalated deadline apart along a stalled communication
/// chain, so W ≳ worldSize × (escalation latency + step time) keeps a slow
/// entrant from being declared dead. The protocol runs on the caller's comm
/// stack — through ReliableComm its messages enjoy the same transient-fault
/// healing as everything else.

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "vmpi/Comm.h"

namespace walb::vmpi {

/// The survivors could not reach a verdict (rounds or attempts exhausted,
/// or this rank ended up alone without evidence anyone else lives).
class AgreementError : public std::runtime_error {
public:
    explicit AgreementError(const std::string& what) : std::runtime_error(what) {}
};

struct AgreementOptions {
    /// Poll window per round; must exceed the worst-case entry skew.
    std::chrono::milliseconds window{1500};
    /// Whole-protocol retries; each retry doubles the window.
    int maxAttempts = 2;
    /// Sleep between tryRecv polls inside a window.
    std::chrono::microseconds pollInterval{200};
    /// Round cap per attempt (the gossip normally converges in 3 rounds).
    int maxRounds = 12;
};

struct AgreementResult {
    std::vector<std::uint8_t> dead; ///< per world rank: 1 = agreed dead
    int rounds = 0;                 ///< rounds the final attempt took
    int attempts = 0;               ///< attempts consumed (1 = first try)
    double seconds = 0.0;           ///< wall time spent agreeing
};

/// Runs the failure-agreement protocol over `comm` (world rank space).
///
/// `knownDead` are ranks already agreed dead in earlier epochs — they are
/// not polled and stay dead in the verdict. Every other rank answers the
/// round-1 roll call or is declared dead; a rank the caller merely
/// suspects clears itself by participating. `epoch` isolates the message
/// tag per recovery epoch so stale agreement traffic of a previous
/// recovery can never leak into this one.
///
/// All participants return the exact same `dead` vector; a rank that learns
/// it has been excommunicated throws CommError{RankKilled, self} instead.
/// Degenerate cases: a 1-rank world returns immediately with `knownDead`.
AgreementResult agreeOnDeadRanks(Comm& comm,
                                 const std::vector<std::uint8_t>& knownDead,
                                 const AgreementOptions& opt = {}, int epoch = 0);

/// Agree and shrink, the first two steps of every recovery, over any comm:
/// the recovery pipeline (recover::RecoveryManager) runs it over its
/// world, the serve scheduler over a job's gang SubComm. Runs
/// agreeOnDeadRanks() after a CommError that named `suspect` (a rank of
/// `comm`, -1 for none) and
/// returns the verdict; the ranks it leaves alive are the shrunken
/// membership. `knownDead` (empty, or one entry per rank) stay dead;
/// `epoch` isolates the agreement's tag.
///
/// With two live ranks the trigger is the verdict: the lone survivor has
/// no third party to poll, and the agreement rightly refuses to bury the
/// rest of the world on silence alone, so the suspect is agreed dead on
/// the spot (fail-stop model: a spurious deadline costs a recovery, never
/// the answer). Throws CommError{RankKilled, comm.rank()} when the
/// agreement excommunicated this rank and AgreementError when it reached
/// no verdict.
AgreementResult agreeAndShrink(Comm& comm, int suspect, std::vector<std::uint8_t> knownDead,
                               const AgreementOptions& opt, int epoch);

} // namespace walb::vmpi
