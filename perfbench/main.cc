/**
 * @file
 * One benchmark workload in its own process:
 *
 *   perfbench_workload --workload <name> --seed <n>
 *                      [--scale <f>] [--spans <file>]
 *
 * Prints one JSON line: per-op simulated results and checks, the
 * simulated counts, and the host time of each call. --spans turns
 * tracing on and writes the spans there at the end. perfbench/run.py
 * runs this repeatedly and turns the lines into metrics.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "util/logging.hh"
#include "util/str.hh"
#include "workloads.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    std::string workload;
    std::optional<uint64_t> seed;
    std::string spans_path;
    perfbench::Sizing sizing;
    sizing.jobs = std::clamp(std::thread::hardware_concurrency(), 1u,
                             sizing.shards);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fatal("%s needs a value", arg.c_str());
        const std::string value = argv[++i];
        uint64_t n = 0;
        double f = 0.0;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed" && parseU64(value, n)) {
            seed = n;
        } else if (arg == "--scale" && parseDouble(value, f) &&
                   f > 0.0) {
            sizing.scale = f;
        } else if (arg == "--spans") {
            spans_path = value;
        } else {
            fatal("bad option '%s %s'", arg.c_str(), value.c_str());
        }
    }
    if (!seed)
        fatal("--seed is required");

    std::optional<perfbench::Tracer> tracer;
    if (!spans_path.empty())
        tracer.emplace();
    const perfbench::WorkloadOutput out = perfbench::runWorkload(
        workload, *seed, sizing, tracer ? &*tracer : nullptr);

    std::optional<perfbench::LayerTimes> layers;
    if (tracer) {
        const std::vector<perfbench::Span> spans = tracer->spans();
        std::ofstream file(spans_path, std::ios::trunc);
        if (!file)
            fatal("cannot write '%s'", spans_path.c_str());
        perfbench::writeSpans(file, spans);
        layers = perfbench::layerTimes(spans, workload == "churn-soak");
    }
    perfbench::writeOutputJson(std::cout, out,
                               layers ? &*layers : nullptr);
    std::cout << std::endl;
    return 0;
}
