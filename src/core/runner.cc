#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/logging.hh"
#include "util/str.hh"
#include "workload/streaming.hh"

namespace hypersio::core
{

namespace
{

/** One "running <label> (...)" progress line, emitted as a unit. */
void
progressLine(std::ostream &os, const ExperimentPoint &point)
{
    os << "  running " << point.label << " ("
       << workload::benchmarkName(point.bench) << ", "
       << point.tenants << " tenants, " << point.interleave.name()
       << ")..." << std::endl;
}

} // namespace

ExperimentRunner::ExperimentRunner(double scale, uint64_t seed,
                                   unsigned jobs,
                                   bool capture_stats_json)
    : _scale(scale), _seed(seed), _jobs(jobs ? jobs : 1),
      _captureStatsJson(capture_stats_json)
{
    if (scale <= 0.0)
        fatal("experiment scale must be positive");
}

unsigned
defaultBenchJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ExperimentRow
ExperimentRunner::run(const ExperimentPoint &point)
{
    SystemConfig config = point.config;
    config.seed = _seed;
    System system(config);
    ExperimentRow row;
    row.point = point;
    // The two runs that need the trace in memory (class comment).
    if (point.bypassTranslation ||
        config.device.devtlb.policy == cache::ReplPolicyKind::Oracle) {
        const trace::HyperTrace trace = trace::constructTrace(
            workload::generateLogs(point.bench, point.tenants, _seed,
                                   _scale),
            point.interleave);
        row.results = system.run(trace, point.bypassTranslation);
    } else {
        workload::SpliceStream stream(point.bench, point.tenants,
                                      _seed, point.interleave, _scale);
        StreamRunOptions opts;
        opts.evictDetached = false; // run()-equivalent growth mode
        row.results = system.runStream(stream, opts);
    }
    if (_captureStatsJson) {
        std::ostringstream os;
        system.dumpStatsJson(os, 0);
        row.statsJson = os.str();
    }
    return row;
}

std::vector<ExperimentRow>
ExperimentRunner::runAll(const std::vector<ExperimentPoint> &points,
                         std::ostream *progress)
{
    const size_t workers = std::min<size_t>(_jobs, points.size());

    if (workers <= 1) {
        std::vector<ExperimentRow> rows;
        rows.reserve(points.size());
        for (const auto &point : points) {
            if (progress)
                progressLine(*progress, point);
            rows.push_back(run(point));
        }
        return rows;
    }

    // Worker pool: each thread claims the next unstarted point.
    // rows[i] is written by exactly one worker, so results land in
    // input order without any reordering pass.
    std::vector<ExperimentRow> rows(points.size());
    std::atomic<size_t> next{0};
    std::mutex progress_mutex;
    auto work = [&]() {
        for (;;) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                return;
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progressLine(*progress, points[i]);
            }
            rows[i] = run(points[i]);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t)
        pool.emplace_back(work);
    for (auto &thread : pool)
        thread.join();
    return rows;
}

std::vector<unsigned>
paperTenantSweep(unsigned max_tenants)
{
    std::vector<unsigned> sweep;
    for (unsigned t = 4; t <= max_tenants; t *= 2)
        sweep.push_back(t);
    return sweep;
}

void
printBandwidthTable(
    std::ostream &os, const std::string &title,
    const std::vector<unsigned> &tenants,
    const std::vector<std::pair<std::string, std::vector<double>>>
        &series)
{
    os << "\n" << title << "\n";
    os << std::left << std::setw(10) << "tenants";
    for (const auto &[label, values] : series)
        os << std::right << std::setw(14) << label;
    os << "\n";
    for (size_t i = 0; i < tenants.size(); ++i) {
        os << std::left << std::setw(10) << tenants[i];
        for (const auto &[label, values] : series) {
            if (i < values.size())
                os << std::right << std::setw(14) << std::fixed
                   << std::setprecision(1) << values[i];
            else
                os << std::right << std::setw(14) << "-";
        }
        os << "\n";
    }
    os.unsetf(std::ios::fixed);
}

void
writeCsv(const std::string &path,
         const std::vector<unsigned> &tenants,
         const std::vector<std::pair<std::string,
                                     std::vector<double>>> &series)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << "tenants";
    for (const auto &[label, values] : series)
        out << ',' << label;
    out << '\n';
    for (size_t i = 0; i < tenants.size(); ++i) {
        out << tenants[i];
        for (const auto &[label, values] : series) {
            out << ',';
            if (i < values.size())
                out << values[i];
        }
        out << '\n';
    }
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

namespace
{

constexpr const char *UsageText =
    "options:\n"
    "  --quick         small traces, up to 256 tenants "
    "(default)\n"
    "  --full          paper-sized traces, up to 1024 "
    "tenants\n"
    "  --scale <f>     trace scale factor (0 < f <= 1)\n"
    "  --tenants <n>   max tenant count in sweeps\n"
    "  --seed <n>      workload seed\n"
    "  --jobs, -j <n>  worker threads for sweeps "
    "(default: all cores; 1 = serial)\n"
    "  --json <file>   write a machine-readable JSON "
    "report (config,\n"
    "                  per-point stats, wall clock; see "
    "EXPERIMENTS.md)\n"
    "  --verbose       per-point progress output";

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--quick") {
            opts.scale = 0.05;
            opts.maxTenants = 256;
        } else if (arg == "--full") {
            opts.scale = 1.0;
            opts.maxTenants = 1024;
        } else if (arg == "--scale") {
            double value = 0.0;
            if (!parseDouble(next_value("--scale"), value) ||
                value <= 0.0)
                fatal("--scale needs a positive number");
            opts.scale = value;
        } else if (arg == "--tenants") {
            uint64_t value = 0;
            if (!parseU64(next_value("--tenants"), value) ||
                value == 0)
                fatal("--tenants needs a positive integer");
            opts.maxTenants = static_cast<unsigned>(value);
        } else if (arg == "--seed") {
            uint64_t value = 0;
            if (!parseU64(next_value("--seed"), value))
                fatal("--seed needs an integer");
            opts.seed = value;
        } else if (arg == "--jobs" || arg == "-j") {
            uint64_t value = 0;
            if (!parseU64(next_value("--jobs"), value) ||
                value == 0)
                fatal("--jobs needs a positive integer");
            opts.jobs = static_cast<unsigned>(value);
        } else if (arg == "--json" || arg == "--stats-json") {
            opts.jsonPath = next_value(arg.c_str());
            if (opts.jsonPath.empty())
                fatal("%s needs a file path", arg.c_str());
        } else if (arg == "--verbose" || arg == "-v") {
            opts.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            std::puts(UsageText);
            std::exit(0);
        } else {
            // Usage goes to stderr so a typo'd flag never corrupts
            // piped experiment output.
            std::fputs(UsageText, stderr);
            std::fputc('\n', stderr);
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    return opts;
}

} // namespace hypersio::core
