/// Figure 3 — single-node performance of the LBM kernel optimization tiers.
///
/// Paper: MLUPS over cores on (a) one SuperMUC socket (SSE/AVX, 1-8 cores)
/// and (b) one JUQUEEN node (QPX, 4-way SMT, 1-16 cores), for SRT and TRT
/// in three variants: Generic, D3Q19-specialized, SIMD.
///
/// Reproduction: the kernels are *measured* on the local machine (all
/// variants, kernel time only); the per-machine core sweeps come from the
/// calibrated ECM machine models (this host has one core — see DESIGN.md
/// substitution 2). Shape to verify: Generic < D3Q19 < SIMD, only SIMD
/// saturating the roofline, and TRT ~ SRT at the memory-bound full chip.
///
/// On top of the paper's three tiers this driver measures the in-place
/// AA-pattern tier (lbm/KernelAa.h): one PDF grid instead of two, 304 B/LUP
/// instead of 456, so its roofline sits 1.5x above the two-grid one. The
/// `--metrics-json <path>` exporter writes the AA-vs-two-grid comparison as
/// a BENCH_aa.json-style artifact (measured MLUP/s per tier, the AA/SIMD
/// ratio and how much of the ideal 1.5x traffic advantage it realizes) for
/// the `fig3_aa_smoke` ctest gate. The two tiers of that ratio are measured
/// interleaved, so a slow spell of the host lands on both instead of on
/// one, and each keeps its best round over several fresh sets of fields:
/// the two-grid rate also depends on where its two fields land in memory.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>

#include "obs/Json.h"
#include "obs/Report.h"
#include "perf/Ecm.h"
#include "perf/LocalBench.h"
#include "simd/Simd.h"

using namespace walb;
using namespace walb::perf;

namespace {

void printMachineSweep(const MachineSpec& machine) {
    std::printf("\n[%s] modeled MLUPS vs cores (TRT ~ SRT when memory bound)\n",
                machine.name.c_str());
    std::printf("%6s %10s %10s %10s %10s %10s %10s\n", "cores", "Generic", "D3Q19",
                "SIMD", "AA", "roofline", "AA-roof");
    const EcmModel generic(machine, KernelTier::Generic);
    const EcmModel d3q19(machine, KernelTier::D3Q19);
    const EcmModel simd(machine, KernelTier::Simd);
    const EcmModel aa(machine, KernelTier::AaSimd);
    for (unsigned c = 1; c <= machine.coresPerChip; ++c) {
        std::printf("%6u %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n", c,
                    generic.predictMLUPS(c), d3q19.predictMLUPS(c), simd.predictMLUPS(c),
                    aa.predictMLUPS(c), rooflineMLUPS(machine.usableBandwidthGiBs),
                    rooflineMLUPS(machine.usableBandwidthGiBs, kAaBytesPerLUP));
    }
    std::printf("  -> SIMD saturates the memory interface at %u cores (AA at %u); "
                "the scalar tiers stay core-bound below the roofline.\n",
                simd.saturationCores(), aa.saturationCores());
}

struct TierResult {
    double srt = 0;
    double trt = 0;
};

// On a 4-vCPU VM, fresh allocations of the two-grid fields measured in
// the same window read 84-125 MLUP/s while the AA rate held within 10%,
// and one set of fields with 9 interleaved rounds left the AA/SIMD TRT
// ratio anywhere in 1.40-4.79 (17 runs); the best over 6 sets of 5 rounds
// read 1.45-1.82 (16 runs).
constexpr int kPairFieldSets = 6;
constexpr int kPairRounds = 5;

/// Best SRT and TRT rate of each tier of `pair` over kPairFieldSets fresh
/// sets of fields, each measured in kPairRounds interleaved rounds.
std::array<TierResult, 2> measurePair(const std::array<KernelTier, 2>& pair) {
    std::array<TierResult, 2> best;
    for (int set = 0; set < kPairFieldSets; ++set)
        for (bool trt : {false, true}) {
            const auto r = measureKernelsInterleaved(pair, trt, 64, 8, kPairRounds);
            for (std::size_t i = 0; i < pair.size(); ++i) {
                double& rate = trt ? best[i].trt : best[i].srt;
                rate = std::max(rate, r[i].mlups);
            }
        }
    return best;
}

} // namespace

int main(int argc, char** argv) {
    std::printf("=== Figure 3: LBM kernel comparison (Generic / D3Q19 / SIMD / AA) ===\n");
    const std::string metricsPath = obs::metricsJsonPathFromArgs(argc, argv);

    std::printf("\nlocal single-core measurements (%s backend, 64^3 dense domain, "
                "kernel time only):\n",
                simd::backendName<simd::BestD>());
    std::printf("%-10s %8s %8s %12s\n", "kernel", "SRT", "TRT", "bytes/LUP");
    const auto print = [](KernelTier tier, const TierResult& r) {
        const double bytes = isAaTier(tier) ? kAaBytesPerLUP : kBytesPerLUP;
        std::printf("%-10s %7.1f %8.1f  MLUPS %6.0f\n", kernelTierName(tier), r.srt, r.trt,
                    bytes);
    };
    const auto measure = [](KernelTier tier) {
        return TierResult{measureKernelMLUPS(tier, false).mlups,
                          measureKernelMLUPS(tier, true).mlups};
    };
    const TierResult generic = measure(KernelTier::Generic);
    print(KernelTier::Generic, generic);
    const TierResult d3q19 = measure(KernelTier::D3Q19);
    print(KernelTier::D3Q19, d3q19);
    // The scalar AA tier is not part of the figure.
    const auto [simdTier, aaTier] = measurePair({KernelTier::Simd, KernelTier::AaSimd});
    print(KernelTier::Simd, simdTier);
    print(KernelTier::AaSimd, aaTier);
    std::printf("SIMD/Generic speedup (TRT): %.2fx (paper: SIMD +20%% over scalar D3Q19 "
                "on SNB; 2.5x over serial on BG/Q)\n",
                simdTier.trt / generic.trt);

    // The AA headline: same arithmetic as the SIMD tier, 2/3 of the memory
    // traffic, half the resident PDF footprint. traffic_efficiency reports
    // the realized fraction of the ideal 456/304 = 1.5x speedup (1.0 = the
    // kernel is perfectly bandwidth-limited in both variants; < 1 when the
    // update is partly core-bound, > 1 only through measurement noise).
    const double aaOverSimdTrt = aaTier.trt / simdTier.trt;
    const double aaOverSimdSrt = aaTier.srt / simdTier.srt;
    const double idealRatio = kBytesPerLUP / kAaBytesPerLUP;
    std::printf("\nAA in-place vs two-grid SIMD (TRT): %.2fx measured, %.2fx ideal "
                "traffic ratio -> %.0f%% realized\n",
                aaOverSimdTrt, idealRatio, 100.0 * aaOverSimdTrt / idealRatio);

    printMachineSweep(superMUCSocket());
    printMachineSweep(juqueenNode());

    std::printf("\npaper anchors: SuperMUC socket roofline 87.8 MLUPS, JUQUEEN node "
                "76.2 MLUPS;\nTRT matches SRT at the full chip because both are "
                "bandwidth bound.\n");

    if (!metricsPath.empty()) {
        const EcmModel smSimd(superMUCSocket(), KernelTier::Simd);
        const EcmModel smAa(superMUCSocket(), KernelTier::AaSimd);
        {
            std::ofstream os(metricsPath, std::ios::binary);
            if (!os) {
                std::fprintf(stderr, "error: cannot write '%s'\n", metricsPath.c_str());
                return 1;
            }
            obs::json::Writer w(os);
            w.beginObject();
            w.kv("benchmark", "fig3_aa_kernels");
            w.kv("simd_backend", simd::backendName<simd::BestD>());
            w.kv("bytes_per_lup_two_grid", kBytesPerLUP);
            w.kv("bytes_per_lup_aa", kAaBytesPerLUP);
            w.kv("generic_trt_mlups", generic.trt);
            w.kv("d3q19_trt_mlups", d3q19.trt);
            w.kv("simd_srt_mlups", simdTier.srt);
            w.kv("simd_trt_mlups", simdTier.trt);
            w.kv("aa_srt_mlups", aaTier.srt);
            w.kv("aa_trt_mlups", aaTier.trt);
            w.kv("aa_over_simd_srt", aaOverSimdSrt);
            w.kv("aa_over_simd_trt", aaOverSimdTrt);
            w.kv("ideal_traffic_ratio", idealRatio);
            w.kv("aa_traffic_efficiency_trt", aaOverSimdTrt / idealRatio);
            // Modeled full-chip saturation rates (calibrated SuperMUC socket)
            // — structural anchors, machine-independent by construction.
            w.kv("supermuc_simd_saturation_mlups", smSimd.saturationMLUPS());
            w.kv("supermuc_aa_saturation_mlups", smAa.saturationMLUPS());
            w.endObject();
            os << "\n";
        }
        if (!obs::validateMetricsJson(
                metricsPath, {"aa_trt_mlups", "simd_trt_mlups", "aa_over_simd_trt",
                              "aa_traffic_efficiency_trt", "bytes_per_lup_aa"}))
            return 1;
        std::printf("\nmetrics written to %s\n", metricsPath.c_str());
    }
    return 0;
}
