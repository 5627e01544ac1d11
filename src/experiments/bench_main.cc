#include "experiments/bench_main.hh"

#include <chrono>
#include <cstdio>

#include "obs/bench_record.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "resil/failure.hh"

namespace trb
{

int
runBench(const std::string &name, const std::string &title,
         const std::function<void()> &body)
{
    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<obs::Sampler> sampler = obs::Sampler::startFromEnv();

    if (!title.empty())
        std::printf("%s\n\n", title.c_str());
    {
        obs::SpanScope span("bench", name);
        body();
    }

    // Stop sampling before the manifest so its final line sees the
    // complete registry, and before finish() so the dumps are stable.
    if (sampler)
        sampler->stop();
    obs::finish();

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    obs::writeBenchRecord(name, wall);
    return resil::harnessExitCode();
}

} // namespace trb
