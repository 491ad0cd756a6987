/**
 * @file
 * Shared experiment-harness helpers for the bench binaries and
 * examples: environment-driven sizing (quick vs full runs), the
 * --jobs/--list/--filter/--tables CLI knobs, the experiment registry,
 * and the process-wide SweepEngine every bench shares.
 */

#ifndef CKESIM_METRICS_EXPERIMENT_HPP
#define CKESIM_METRICS_EXPERIMENT_HPP

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kernels/workload.hpp"
#include "metrics/runner.hpp"
#include "metrics/table.hpp"
#include "sim/config.hpp"

namespace ckesim {

/**
 * Is CKESIM_FULL set? Full mode runs all 78 suite pairs with longer
 * windows; quick mode runs the 17 representative pairs. Both use the
 * same machine (benchConfig()).
 */
bool fullMode();

/** Bench GPU configuration: the 16-SM Table 1 machine in both modes. */
GpuConfig benchConfig();

/** Measurement cycles per simulation (env CKESIM_CYCLES overrides). */
Cycle benchCycles();

/** Pair list (all 78 suite pairs full / representative 17 quick). */
std::vector<Workload> benchPairs();

// ---- CLI knobs shared by all bench binaries ----------------------------

/** Options recognized (and stripped from argv) by every bench. */
struct BenchOptions
{
    /** Simulation jobs; 0 = CKESIM_JOBS env, else hardware
     *  concurrency. */
    int jobs = 0;
    /** --list: print registered experiment names and exit. */
    bool list = false;
    /** --tables: run experiments directly (no benchmark harness),
     *  printing only the paper tables — stable output for diffing. */
    bool tables_only = false;
    /** --filter substr: run only experiments whose name contains it. */
    std::string filter;
    /** --resume path: journal completed jobs to @p path and serve any
     *  already-journaled results instead of re-simulating, so a killed
     *  sweep picks up where it died. */
    std::string resume;
    bool matches(const std::string &name) const;
};

/**
 * Extract --jobs N / --list / --filter S / --tables / --resume P
 * from argv (both "--flag value" and "--flag=value" forms),
 * compacting argv so the remaining flags can go to the benchmark
 * library untouched.
 */
BenchOptions parseBenchArgs(int &argc, char **argv);

/** Jobs requested via CKESIM_JOBS (0 = unset). */
int jobsFromEnv();

// ---- experiment registry ----------------------------------------------

/** Counters an experiment exports (mirrored into benchmark state). */
struct BenchReport
{
    std::map<std::string, double> counters;
};

using ExperimentFn = std::function<void(BenchReport &)>;

/** Named experiments a bench binary registers at startup. */
class ExperimentRegistry
{
  public:
    struct Entry
    {
        std::string name;
        ExperimentFn fn;
    };

    static ExperimentRegistry &instance();

    void add(std::string name, ExperimentFn fn);
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

// ---- shared engine -----------------------------------------------------

/**
 * Pin the job count of the process-wide bench engine; must be called
 * before the first benchEngine() use to take effect.
 */
void setBenchJobs(int jobs);

/**
 * The engine shared by every experiment in this process: one memo
 * cache, so isolated baselines computed for one figure are reused by
 * the next.
 */
SweepEngine &benchEngine();

/**
 * Open (or create) the write-ahead results journal at @p path and
 * attach it to benchEngine(): completed jobs are durably recorded and
 * a re-run resumes instead of recomputing. Returns the number of
 * results recovered from an earlier (possibly killed) run.
 */
std::size_t attachBenchJournal(const std::string &path);

/** One-line execution/memo summary of benchEngine() to @p out. */
void printSweepStats(std::FILE *out);

/** Copy benchEngine() stats into report counters (cache_hits, ...). */
void exportSweepStats(BenchReport &report);

} // namespace ckesim

#endif // CKESIM_METRICS_EXPERIMENT_HPP
