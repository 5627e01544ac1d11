/**
 * @file
 * Pipeline viewer: run a real simulation with the event tracer attached
 * and print a gem5-O3PipeView-style text lane view of the instruction
 * lifecycle (fetch/dispatch/issue/complete/retire stamps, squashes) for
 * a PC range.  Every SimStats counter of the run goes to the metrics
 * registry as sim.* (see docs/observability.md).
 *
 * Usage:
 *   ./build/examples/pipeline_viewer [lo_pc hi_pc [max_instrs]]
 *
 * PC bounds are hex (e.g. 0x400000); default shows the first 60 traced
 * instructions of any PC.  Knobs:
 *   TRB_TRACE_LEN   instructions to simulate (default 20000)
 *   TRB_TRACE_BUF   tracer ring capacity (default 65536)
 *   TRB_PIPE_JSON   also write a Chrome trace_event file (load in
 *                   chrome://tracing or Perfetto)
 *   TRB_OBS_JSON    dump the metrics registry as JSON
 *   TRB_OBS_SPANS   write the span timeline's Chrome trace (pid 0)
 *
 * Every file is written before the first line of stdout, so piping the
 * lane view into `head` cannot cut a file short.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/pipeline_trace.hh"
#include "pipeline/o3core.hh"
#include "sim/simulator.hh"
#include "synth/generator.hh"

int
main(int argc, char **argv)
{
    using namespace trb;

    Addr lo = 0, hi = ~Addr{0};
    std::size_t max_instrs = 60;
    if (argc >= 3) {
        lo = std::strtoull(argv[1], nullptr, 16);
        hi = std::strtoull(argv[2], nullptr, 16);
        max_instrs = 0;
    }
    if (argc >= 4)
        max_instrs = std::strtoull(argv[3], nullptr, 10);

    // A call-heavy server workload gives the lane view mispredictions
    // and cache misses worth looking at.
    WorkloadParams params = serverParams(/*seed=*/7);
    TraceGenerator generator(params);
    CvpTrace cvp = generator.generate(traceLengthFromEnv(20000));
    Cvp2ChampSim conv(kAllImps);
    ChampSimTrace trace = conv.convert(cvp);

    obs::PipelineTracer tracer;
    O3Core core(modernConfig());
    core.setTracer(&tracer);
    SimStats stats = core.run(trace);

    // Every file before any stdout: a reader that closes stdout early
    // (| head) must not stop the viewer before its files are written.
    if (const char *path = env::raw("TRB_PIPE_JSON");
        path && *path) {
        std::ofstream out(path);
        if (out) {
            tracer.writeChromeTrace(out);
            trb_inform("wrote Chrome trace to ", path,
                       " (open in chrome://tracing)");
        } else {
            trb_warn("cannot open ", path, " for the Chrome trace");
        }
    }
    stats.exportTo(obs::MetricsRegistry::global(), "sim");
    obs::finish();

    std::printf("simulated %llu instructions in %llu cycles "
                "(IPC %.3f, branch MPKI %.2f); tracer holds the last "
                "%zu of %llu records\n\n",
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.cycles), stats.ipc(),
                stats.branchMpki(), tracer.size(),
                static_cast<unsigned long long>(tracer.recorded()));

    std::fputs(obs::renderLaneView(tracer.events(), lo, hi, max_instrs)
                   .c_str(),
               stdout);
    return 0;
}
