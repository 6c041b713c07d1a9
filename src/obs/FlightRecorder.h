#pragma once
/// \file FlightRecorder.h
/// Continuous per-step performance telemetry (`walb::obs` v2): every time
/// step the simulation driver records one StepSample — per-phase seconds,
/// bytes/messages moved, the step's MLUP/s and the rank's current imbalance
/// estimate — into a bounded per-rank ring buffer. The recorder costs a
/// struct store per step (the phase clocks already run for the TimingPool),
/// so it stays on in production runs; when a failure surfaces (CommError,
/// HealthMonitor abort, killed rank) each rank dumps its recent history to
/// a binary `.wfr` file, so every crash and every rebalance decision comes
/// with the time series that led up to it. `tools/walb_perfdiag` reads the
/// dumps back, prints per-phase breakdowns and reconstructs cross-rank
/// straggler timelines.
///
/// The `.wfr` format is little-endian (core/Buffer.h serialization), CRC32
/// protected, versioned:
///   magic "WFR1" | u32 version | u32 rank | u32 worldSize |
///   u64 firstStep-of-run hint (0) | u64 sampleCount | sampleCount records |
///   u32 crc32 of everything before it
/// Version 2 appends u8 kernelTier and u8 aaParity to each record, so the
/// dumps identify the sweep's optimization tier and — on the in-place
/// AA-pattern tiers — the storage parity each step ran under.

#include <cstdint>
#include <string>
#include <vector>

namespace walb::obs {

/// One time step of one rank, as seen by the driver's phase clocks.
/// Fixed-size so the ring buffer is a flat array and the file format is a
/// plain record stream.
struct StepSample {
    std::uint64_t step = 0;       ///< global time-step index
    double collideSeconds = 0;    ///< fluid sweep, all subsets (core + shell)
    double shellSeconds = 0;      ///< shell share of the sweep (overlap mode)
    double boundarySeconds = 0;   ///< boundary-condition handling
    double packSeconds = 0;       ///< pack + post sends (local ghost copies excluded)
    double exchangeSeconds = 0;   ///< blocking drain / unpack of halo messages
    double totalSeconds = 0;      ///< whole step on this rank
    double mlups = 0;             ///< this rank's rate for this step
    double imbalance = 1.0;       ///< rank EWMA / fleet median (1 = on fleet)
    std::uint64_t bytesMoved = 0; ///< ghost-exchange bytes sent + received
    std::uint64_t messages = 0;   ///< ghost-exchange messages sent + received
    std::uint8_t kernelTier = 0;  ///< numeric walb::KernelTier of the sweep
    std::uint8_t aaParity = 0;    ///< AA storage parity at the step's start
                                  ///< (0 even, 1 odd; always 0 on two-grid tiers)
};

/// Bounded per-rank ring of the most recent StepSamples. Not thread-safe —
/// owned by the rank's driver, same model as MetricsRegistry/TimingPool.
class FlightRecorder {
public:
    explicit FlightRecorder(std::size_t capacity = 4096);

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    /// Samples ever recorded (>= size() once the ring wrapped).
    std::uint64_t totalRecorded() const { return totalRecorded_; }

    void record(const StepSample& s);
    void clear();

    /// Samples in recording order, oldest first.
    std::vector<StepSample> samples() const;
    /// Most recent sample; nullptr when empty.
    const StepSample* latest() const;

    /// Sum of collideSeconds over retained samples with step >= fromStep.
    /// `complete`, when given, reports whether the ring still holds every
    /// sample since fromStep (false once eviction ate into the window).
    double collideSecondsSince(std::uint64_t fromStep, bool* complete = nullptr) const;
    /// Mean totalSeconds of the `lastN` most recent samples (all when fewer).
    double meanStepSeconds(std::size_t lastN = 0) const;

    /// Writes the retained history as a `.wfr` file. Not collective — each
    /// rank writes its own file. Returns false with a diagnosis on IO error.
    bool dump(const std::string& path, int rank, int worldSize,
              std::string* error = nullptr) const;

    /// A parsed `.wfr` file.
    struct Dump {
        std::uint32_t version = 0;
        std::uint32_t rank = 0;
        std::uint32_t worldSize = 0;
        std::vector<StepSample> samples;
    };

    /// Reads and CRC-verifies a `.wfr` file written by dump(). Returns false
    /// with a diagnosis on a missing, truncated or corrupted file.
    static bool read(const std::string& path, Dump& out, std::string* error = nullptr);
    /// read() on bytes already in memory; `name` prefixes the diagnosis.
    static bool decode(std::vector<std::uint8_t> bytes, Dump& out,
                       std::string* error = nullptr, const std::string& name = ".wfr data");

    static constexpr std::uint32_t kFormatVersion = 2;

private:
    std::size_t capacity_;
    bool enabled_ = true;
    std::vector<StepSample> ring_;
    std::size_t head_ = 0; ///< next write slot
    std::size_t size_ = 0;
    std::uint64_t totalRecorded_ = 0;
};

} // namespace walb::obs
