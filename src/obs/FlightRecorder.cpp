#include "obs/FlightRecorder.h"

#include <fstream>

#include "core/Buffer.h"
#include "core/Crc32.h"
#include "core/Debug.h"

namespace walb::obs {

namespace {

constexpr char kMagic[4] = {'W', 'F', 'R', '1'};

void serializeSample(SendBuffer& sb, const StepSample& s) {
    sb << s.step << s.collideSeconds << s.shellSeconds << s.boundarySeconds
       << s.packSeconds << s.exchangeSeconds << s.totalSeconds << s.mlups << s.imbalance
       << s.bytesMoved << s.messages << s.kernelTier << s.aaParity;
}

void deserializeSample(RecvBuffer& rb, StepSample& s) {
    rb >> s.step >> s.collideSeconds >> s.shellSeconds >> s.boundarySeconds >>
        s.packSeconds >> s.exchangeSeconds >> s.totalSeconds >> s.mlups >> s.imbalance >>
        s.bytesMoved >> s.messages >> s.kernelTier >> s.aaParity;
}

} // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
    WALB_ASSERT(capacity_ > 0, "flight recorder needs a positive capacity");
    ring_.resize(capacity_);
}

void FlightRecorder::record(const StepSample& s) {
    if (!enabled_) return;
    ring_[head_] = s;
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
    ++totalRecorded_;
}

void FlightRecorder::clear() {
    head_ = 0;
    size_ = 0;
    totalRecorded_ = 0;
}

std::vector<StepSample> FlightRecorder::samples() const {
    std::vector<StepSample> out;
    out.reserve(size_);
    const std::size_t start = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i) out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

const StepSample* FlightRecorder::latest() const {
    if (size_ == 0) return nullptr;
    return &ring_[(head_ + capacity_ - 1) % capacity_];
}

double FlightRecorder::collideSecondsSince(std::uint64_t fromStep, bool* complete) const {
    double sum = 0;
    std::uint64_t oldestStep = std::uint64_t(-1);
    const std::size_t start = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i) {
        const StepSample& s = ring_[(start + i) % capacity_];
        if (i == 0) oldestStep = s.step;
        if (s.step >= fromStep) sum += s.collideSeconds;
    }
    if (complete) {
        // Complete when nothing was recorded yet, or the retained window
        // still reaches back to (or before) fromStep.
        *complete = totalRecorded_ == 0 ||
                    (totalRecorded_ == size_ || oldestStep <= fromStep);
    }
    return sum;
}

double FlightRecorder::meanStepSeconds(std::size_t lastN) const {
    if (size_ == 0) return 0.0;
    const std::size_t n = (lastN == 0 || lastN > size_) ? size_ : lastN;
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += ring_[(head_ + capacity_ - 1 - i) % capacity_].totalSeconds;
    return sum / double(n);
}

bool FlightRecorder::dump(const std::string& path, int rank, int worldSize,
                          std::string* error) const {
    SendBuffer sb;
    sb << kMagic[0] << kMagic[1] << kMagic[2] << kMagic[3];
    sb << kFormatVersion << std::uint32_t(rank) << std::uint32_t(worldSize);
    const auto all = samples();
    sb << std::uint64_t(all.empty() ? 0 : all.front().step) << std::uint64_t(all.size());
    for (const StepSample& s : all) serializeSample(sb, s);
    const std::uint32_t crc = crc32(sb.data(), sb.size());
    sb << crc;

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        if (error) *error = "cannot open '" + path + "' for writing";
        return false;
    }
    os.write(reinterpret_cast<const char*>(sb.data()), std::streamsize(sb.size()));
    os.flush();
    if (!os) {
        if (error) *error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

bool FlightRecorder::read(const std::string& path, Dump& out, std::string* error) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error) *error = "cannot open '" + path + "'";
        return false;
    }
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                    std::istreambuf_iterator<char>());
    return decode(std::move(bytes), out, error, "'" + path + "'");
}

bool FlightRecorder::decode(std::vector<std::uint8_t> bytes, Dump& out, std::string* error,
                            const std::string& name) {
    const auto fail = [&](const std::string& why) {
        if (error) *error = name + " " + why;
        return false;
    };
    if (bytes.size() < 4 + 4) return fail("is too short to be a .wfr file");
    // CRC over everything but the 4-byte trailer.
    const std::size_t payload = bytes.size() - 4;
    const std::uint32_t storedCrc =
        std::uint32_t(bytes[payload]) | std::uint32_t(bytes[payload + 1]) << 8 |
        std::uint32_t(bytes[payload + 2]) << 16 | std::uint32_t(bytes[payload + 3]) << 24;
    if (crc32(bytes.data(), payload) != storedCrc)
        return fail("failed its CRC check (truncated or corrupted)");
    static const std::size_t sampleBytes = [] {
        SendBuffer sb;
        serializeSample(sb, StepSample{});
        return sb.size();
    }();
    try {
        RecvBuffer rb(std::move(bytes));
        char magic[4];
        rb >> magic[0] >> magic[1] >> magic[2] >> magic[3];
        if (magic[0] != kMagic[0] || magic[1] != kMagic[1] || magic[2] != kMagic[2] ||
            magic[3] != kMagic[3])
            return fail("lacks the WFR1 magic");
        std::uint64_t firstStep = 0, count = 0;
        rb >> out.version >> out.rank >> out.worldSize >> firstStep >> count;
        (void)firstStep;
        if (out.version != kFormatVersion)
            return fail("has unsupported .wfr version " + std::to_string(out.version));
        // The count comes from the file: it must match the bytes between
        // the header and the CRC trailer before anything is allocated.
        const std::size_t body = rb.remaining() >= 4 ? rb.remaining() - 4 : 0;
        if (rb.remaining() < 4 || body % sampleBytes != 0 || count != body / sampleBytes)
            return fail("declares " + std::to_string(count) + " samples in " +
                        std::to_string(body) + " bytes");
        out.samples.clear();
        out.samples.reserve(std::size_t(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            StepSample s;
            deserializeSample(rb, s);
            out.samples.push_back(s);
        }
    } catch (const BufferError& e) {
        return fail(std::string("is malformed: ") + e.what());
    }
    return true;
}

} // namespace walb::obs
