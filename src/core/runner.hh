/**
 * @file
 * Experiment harness: runs configuration sweeps and prints
 * paper-style result tables. All bench binaries are thin wrappers
 * around this API.
 *
 * Each ExperimentPoint streams its hyper-tenant trace through a
 * workload::SpliceStream, so a point holds O(tenants) generator
 * state instead of O(packets) of trace, and nothing outlives the
 * point. Sweeps can fan out across a worker pool (`jobs` > 1): every
 * point is an independent System run over its own stream, so points
 * execute on N threads while results stay in input order and are
 * bit-identical to a serial run.
 */

#ifndef HYPERSIO_CORE_RUNNER_HH
#define HYPERSIO_CORE_RUNNER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/bench_options.hh"
#include "core/system.hh"
#include "trace/constructor.hh"
#include "workload/benchmarks.hh"

namespace hypersio::core
{

/** A named point in a sweep: configuration + workload. */
struct ExperimentPoint
{
    std::string label;
    SystemConfig config;
    workload::Benchmark bench = workload::Benchmark::Iperf3;
    unsigned tenants = 4;
    trace::Interleaving interleave;
    bool bypassTranslation = false;
};

/** One row of experiment output. */
struct ExperimentRow
{
    ExperimentPoint point;
    RunResults results;
    /**
     * Compact JSON dump of the run's full stat tree; empty unless
     * the runner was built with capture_stats_json (the `--json`
     * reports embed it per point).
     */
    std::string statsJson;
};

/**
 * Runs experiment points. Each run() builds its own System and its
 * own packet source, so the runner holds no per-point state and
 * run() is safe to call from several threads.
 *
 * A point streams its trace unless its run needs the trace in
 * memory: Belady (Oracle) DevTLB replacement reads the whole future
 * up front, and native (bypassTranslation) points run through
 * System::run. Those points materialize the trace and free it when
 * the point ends.
 */
class ExperimentRunner
{
  public:
    /**
     * @param scale trace scale factor (1.0 = paper-sized logs);
     *        quick runs use a small fraction
     * @param jobs worker threads used by runAll(); 0 and 1 = serial
     * @param capture_stats_json fill ExperimentRow::statsJson
     */
    explicit ExperimentRunner(double scale = 0.05,
                              uint64_t seed = 42,
                              unsigned jobs = 1,
                              bool capture_stats_json = false);

    /** Runs one point. */
    ExperimentRow run(const ExperimentPoint &point);

    /**
     * Runs all points, dispatching them to the worker threads.
     * Results are returned in input order regardless of completion
     * order; progress lines (one per point) are emitted atomically.
     * With one job this is exactly the serial loop.
     */
    std::vector<ExperimentRow>
    runAll(const std::vector<ExperimentPoint> &points,
           std::ostream *progress = nullptr);

  private:
    double _scale;
    uint64_t _seed;
    unsigned _jobs;
    bool _captureStatsJson;
};

/** The tenant counts the paper sweeps in Figs. 9-12 (4..1024). */
std::vector<unsigned> paperTenantSweep(unsigned max_tenants = 1024);

/**
 * Prints a bandwidth table: one row per tenant count, one column per
 * series. `series` maps label → (tenants → Gb/s).
 */
void printBandwidthTable(
    std::ostream &os, const std::string &title,
    const std::vector<unsigned> &tenants,
    const std::vector<
        std::pair<std::string, std::vector<double>>> &series);

/**
 * Writes the same data as CSV (header: tenants,<label>,...), ready
 * for gnuplot/matplotlib to regenerate the paper's figures.
 */
void writeCsv(const std::string &path,
              const std::vector<unsigned> &tenants,
              const std::vector<
                  std::pair<std::string, std::vector<double>>>
                  &series);

} // namespace hypersio::core

#endif // HYPERSIO_CORE_RUNNER_HH
