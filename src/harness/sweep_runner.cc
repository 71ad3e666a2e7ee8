#include "harness/sweep_runner.hh"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/presets.hh"
#include "noc/topology.hh"

namespace inpg {

namespace {

/** INPG_SWEEP_THREADS as a positive integer; 0 when unset. */
int
envSweepThreads()
{
    const char *env = std::getenv("INPG_SWEEP_THREADS");
    if (!env)
        return 0;
    const std::string text = env;
    int n = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), n);
    if (ec != std::errc() || end != text.data() + text.size() || n < 1)
        fatal("INPG_SWEEP_THREADS='%s' is not a positive integer", env);
    return n;
}

} // namespace

int
sweepThreadCount(std::size_t jobs, int requested)
{
    int n = requested > 0 ? requested : envSweepThreads();
    if (n <= 0)
        n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0)
        n = 1;
    if (static_cast<std::size_t>(n) > jobs)
        n = jobs > 0 ? static_cast<int>(jobs) : 1;
    return n;
}

std::vector<RunResult>
runSweep(const std::vector<RunConfig> &configs, const SweepOptions &opts)
{
    std::vector<RunResult> results(configs.size());
    if (configs.empty())
        return results;

    auto appendLedger = [&] {
        if (!opts.ledger)
            return;
        for (std::size_t i = 0; i < configs.size(); ++i)
            opts.ledger->append(makeRunRecord(configs[i], results[i]));
    };

    const int nthreads = sweepThreadCount(configs.size(), opts.threads);
    if (nthreads == 1) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            results[i] = runBenchmark(configs[i]);
        appendLedger();
        return results;
    }

    // An exception must not escape a worker (that would terminate the
    // process): each job's is kept, and once one fails no new jobs are
    // claimed. Jobs are claimed in index order, so every lower index
    // has already been claimed and runs to completion -- the lowest
    // failing index is the one the serial loop would have thrown.
    std::vector<std::exception_ptr> errors(configs.size());
    std::atomic<bool> failed{false};
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        while (!failed.load()) {
            const std::size_t i = next.fetch_add(1);
            if (i >= configs.size())
                return;
            try {
                results[i] = runBenchmark(configs[i]);
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    appendLedger();
    return results;
}

std::vector<RunConfig>
buildPlacementSweep(const RunConfig &base,
                    const std::vector<std::string> &fabrics,
                    const std::vector<int> &big_router_counts)
{
    std::vector<RunConfig> out;
    out.reserve(fabrics.size() * big_router_counts.size());
    for (const std::string &fabric : fabrics) {
        std::string text = toLower(trim(fabric));
        if (const char *spec = lookupTopologyPreset(text))
            text = spec;
        const TopologySpec spec = TopologySpec::parse(text);
        for (int count : big_router_counts) {
            RunConfig rc = base;
            spec.applyTo(rc.system.noc);
            rc.system.inpg.numBigRouters = count;
            out.push_back(std::move(rc));
        }
    }
    return out;
}

} // namespace inpg
