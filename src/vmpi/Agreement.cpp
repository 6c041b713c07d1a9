#include "vmpi/Agreement.h"

#include <algorithm>
#include <thread>

#include "core/Buffer.h"
#include "core/Debug.h"
#include "vmpi/Tags.h"

namespace walb::vmpi {

namespace {

/// One agreement message: a rank's entire view of the protocol.
struct AgreeState {
    std::uint32_t attempt = 0;
    std::uint32_t round = 0;
    std::uint8_t stable = 0; ///< sender's set did not change last round
    std::uint8_t done = 0;   ///< sender reached its verdict and left (sticky)
    std::vector<std::uint8_t> dead;
};

/// Per-epoch tag so a retry of the whole recovery never reads stale gossip.
int agreeTag(int epoch) { return tags::kAgreeBase - epoch; }

void encode(const AgreeState& s, SendBuffer& sb) {
    sb << s.attempt << s.round << s.stable << s.done << s.dead;
}

AgreeState decode(std::vector<std::uint8_t> bytes) {
    RecvBuffer rb(std::move(bytes));
    AgreeState s;
    rb >> s.attempt >> s.round >> s.stable >> s.done >> s.dead;
    return s;
}

} // namespace

AgreementResult agreeOnDeadRanks(Comm& comm,
                                 const std::vector<std::uint8_t>& knownDead,
                                 const AgreementOptions& opt, int epoch) {
    const int n = comm.size();
    const int me = comm.rank();
    WALB_ASSERT(int(knownDead.size()) == n || knownDead.empty(),
                "knownDead must be empty or world-sized");

    const auto wallStart = std::chrono::steady_clock::now();
    auto wallSeconds = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wallStart)
            .count();
    };

    AgreementResult result;
    result.dead.assign(std::size_t(n), 0);
    if (!knownDead.empty()) result.dead = knownDead;

    if (n <= 1 || std::count(result.dead.begin(), result.dead.end(), 0) <= 1) {
        // Nobody to talk to: the verdict is whatever was already known.
        result.attempts = 1;
        result.seconds = wallSeconds();
        return result;
    }

    const int tag = agreeTag(epoch);

    // Participants: everyone not already agreed dead in an earlier epoch.
    std::vector<int> participants;
    for (int r = 0; r < n; ++r)
        if (!result.dead[std::size_t(r)]) participants.push_back(r);

    auto window = opt.window;
    for (int attempt = 1; attempt <= opt.maxAttempts; ++attempt, window *= 2) {
        std::vector<std::uint8_t> myDead = result.dead;
        // Per-peer sticky protocol memory for this attempt.
        std::vector<std::uint8_t> peerSpoke(std::size_t(n), 0);
        std::vector<std::uint8_t> peerDone(std::size_t(n), 0);
        std::vector<std::uint8_t> peerStable(std::size_t(n), 0);
        std::vector<std::vector<std::uint8_t>> peerDead(static_cast<std::size_t>(n));

        bool changedLastRound = true;
        for (int round = 1; round <= opt.maxRounds; ++round) {
            result.rounds = round;
            const bool iAmStable = !changedLastRound && round > 1;

            AgreeState mine;
            mine.attempt = std::uint32_t(attempt);
            mine.round = std::uint32_t(round);
            mine.stable = iAmStable ? 1 : 0;
            mine.done = 0;
            mine.dead = myDead;
            SendBuffer sb;
            encode(mine, sb);
            const std::vector<std::uint8_t> wire = sb.release();
            for (int r : participants)
                if (r != me && !myDead[std::size_t(r)])
                    comm.send(r, tag, std::vector<std::uint8_t>(wire));

            // Poll one window, draining gossip from every participant.
            std::vector<std::uint8_t> freshThisRound(std::size_t(n), 0);
            changedLastRound = false;
            const auto deadline = std::chrono::steady_clock::now() + window;
            for (;;) {
                bool progressed = false;
                std::vector<std::uint8_t> raw;
                for (int r : participants) {
                    if (r == me) continue;
                    while (comm.tryRecv(r, tag, raw)) {
                        progressed = true;
                        AgreeState s = decode(std::move(raw));
                        raw.clear();
                        if (int(s.dead.size()) != n) continue; // malformed: ignore
                        if (s.dead[std::size_t(me)])
                            throw CommError(
                                CommError::Kind::RankKilled, me, tag,
                                wallSeconds(),
                                "declared dead by the failure agreement of rank " +
                                    std::to_string(r));
                        peerSpoke[std::size_t(r)] = 1;
                        freshThisRound[std::size_t(r)] = 1;
                        peerStable[std::size_t(r)] = s.stable;
                        if (s.done) peerDone[std::size_t(r)] = 1;
                        peerDead[std::size_t(r)] = s.dead;
                        for (int q = 0; q < n; ++q) {
                            if (s.dead[std::size_t(q)] && !myDead[std::size_t(q)]) {
                                myDead[std::size_t(q)] = 1;
                                changedLastRound = true;
                            }
                        }
                    }
                }
                bool allHeard = true;
                for (int r : participants) {
                    if (r == me || myDead[std::size_t(r)]) continue;
                    if (!freshThisRound[std::size_t(r)] && !peerDone[std::size_t(r)]) {
                        allHeard = false;
                        break;
                    }
                }
                if (allHeard) break;
                if (std::chrono::steady_clock::now() >= deadline) break;
                if (!progressed) std::this_thread::sleep_for(opt.pollInterval);
            }

            // Timeout judgment: a live-believed peer that stayed silent for
            // the whole window is dead to me now.
            for (int r : participants) {
                if (r == me || myDead[std::size_t(r)]) continue;
                if (!freshThisRound[std::size_t(r)] && !peerDone[std::size_t(r)]) {
                    myDead[std::size_t(r)] = 1;
                    changedLastRound = true;
                }
            }

            if (changedLastRound) continue;

            // Verdict check: I am stable; is everyone else stable on the
            // exact same set?
            bool agreed = iAmStable;
            for (int r : participants) {
                if (!agreed) break;
                if (r == me || myDead[std::size_t(r)]) continue;
                const bool peerOk =
                    (peerStable[std::size_t(r)] || peerDone[std::size_t(r)]) &&
                    peerDead[std::size_t(r)] == myDead;
                if (!peerOk) agreed = false;
            }
            if (!agreed) continue;

            // Sanity: a verdict that buries everyone but me, reached without
            // a single incoming message, means *my* link is the dead one.
            bool heardAnyone = false;
            for (int r = 0; r < n; ++r)
                if (peerSpoke[std::size_t(r)]) heardAnyone = true;
            const auto deadCount =
                std::count(myDead.begin(), myDead.end(), std::uint8_t(1));
            if (!heardAnyone && deadCount == n - 1)
                throw AgreementError(
                    "failure agreement: rank " + std::to_string(me) +
                    " heard nobody and would declare the whole world dead — "
                    "treating this rank's own connectivity as the failure");

            // Agreed. Leave a sticky DONE so slower peers do not read my
            // silence as death while they finish converging.
            AgreeState fin;
            fin.attempt = std::uint32_t(attempt);
            fin.round = std::uint32_t(round + 1);
            fin.stable = 1;
            fin.done = 1;
            fin.dead = myDead;
            SendBuffer fsb;
            encode(fin, fsb);
            const std::vector<std::uint8_t> fwire = fsb.release();
            for (int r : participants)
                if (r != me && !myDead[std::size_t(r)])
                    comm.send(r, tag, std::vector<std::uint8_t>(fwire));

            result.dead = myDead;
            result.attempts = attempt;
            result.seconds = wallSeconds();
            return result;
        }
        // Rounds exhausted without agreement: carry what was learned into
        // the next, slower attempt.
        result.dead = myDead;
    }

    throw AgreementError("failure agreement did not converge after " +
                         std::to_string(opt.maxAttempts) + " attempts (" +
                         std::to_string(wallSeconds()) + "s)");
}

AgreementResult agreeAndShrink(Comm& comm, int suspect, std::vector<std::uint8_t> knownDead,
                               const AgreementOptions& opt, int epoch) {
    const int n = comm.size();
    if (knownDead.empty()) knownDead.assign(std::size_t(n), 0);
    const auto live = std::count(knownDead.begin(), knownDead.end(), std::uint8_t(0));
    if (live == 2 && suspect >= 0 && suspect < n && suspect != comm.rank() &&
        !knownDead[std::size_t(suspect)])
        knownDead[std::size_t(suspect)] = 1; // the trigger is the roll call
    return agreeOnDeadRanks(comm, knownDead, opt, epoch);
}

} // namespace walb::vmpi
