/**
 * @file
 * Trace inspector: generate or load a CVP-1 trace, characterise it, and
 * show how both converter personalities see its instructions.
 *
 * Usage:
 *   trace_inspector                      # inspect a built-in workload
 *   trace_inspector <preset> [length]    # preset: int|fp|crypto|server|mem
 *   trace_inspector -f <file.cvp[.gz]>   # inspect a trace file
 *
 * Also demonstrates the file round-trip: the generated trace is written
 * to a temporary .gz file and re-read through the streaming reader.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "convert/cvp2champsim.hh"
#include "synth/generator.hh"
#include "trace/trace_stats.hh"

int
main(int argc, char **argv)
{
    using namespace trb;

    CvpTrace trace;
    std::string label;
    auto fail = [](const Status &st) {
        std::fprintf(stderr, "trace_inspector: %s\n", st.toString().c_str());
        return 2;
    };

    if (argc >= 3 && std::strcmp(argv[1], "-f") == 0) {
        label = argv[2];
        Expected<CvpTrace> read = tryReadCvpTrace(argv[2]);
        if (!read.ok())
            return fail(read.status());
        trace = std::move(read).value();
    } else {
        std::string preset = argc >= 2 ? argv[1] : "server";
        std::uint64_t length =
            argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 50000;
        WorkloadParams params;
        if (preset == "int")
            params = computeIntParams(1);
        else if (preset == "fp")
            params = computeFpParams(1);
        else if (preset == "crypto")
            params = cryptoParams(1);
        else if (preset == "server")
            params = serverParams(1);
        else if (preset == "mem")
            params = memoryBoundParams(1);
        else {
            std::fprintf(stderr,
                         "unknown preset '%s' (int|fp|crypto|server|mem)\n",
                         preset.c_str());
            return 1;
        }
        label = preset;
        trace = TraceGenerator(params).generate(length);

        // Round-trip through a gz file, exercising the I/O layer.
        auto path = std::filesystem::temp_directory_path() /
                    "trb_inspect.cvp.gz";
        if (Status st = tryWriteCvpTrace(path.string(), trace); !st.ok())
            return fail(st);
        Expected<CvpTrace> back = tryReadCvpTrace(path.string());
        std::filesystem::remove(path);
        if (!back.ok())
            return fail(back.status());
        std::printf("round-trip through %s: %zu records, %s\n\n",
                    path.string().c_str(), back.value().size(),
                    back.value().size() == trace.size() ? "ok"
                                                        : "MISMATCH");
    }

    std::printf("=== CVP-1 characterisation of '%s' ===\n%s\n",
                label.c_str(), characterizeCvp(trace).report().c_str());

    for (ImprovementSet imps : {ImprovementSet{kImpNone}, ImprovementSet{kAllImps}}) {
        Cvp2ChampSim conv(imps);
        ChampSimTrace out = conv.convert(trace);
        DeductionRules rules = (imps & kImpBranchRegs)
                                   ? DeductionRules::Patched
                                   : DeductionRules::Original;
        std::printf("=== ChampSim view under %s ===\n%s\n",
                    improvementSetName(imps).c_str(),
                    characterizeChampSim(out, rules).report().c_str());
    }
    return 0;
}
