#include "common/trace.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex> // lint:allow(threading-outside-parallel)
#include <set>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace inpg {

namespace {

/**
 * Process-wide state, seeded from INPG_TRACE on first use (a function
 * static, so the environment is read once even when several threads
 * get there together). The sweep runner traces from several worker
 * threads at once, so every access holds `mtx`; sinks run under it --
 * that is what keeps concurrent lines from tearing -- so a sink must
 * not call back into Trace.
 */
struct TraceState {
    TraceState()
    {
        const char *env = std::getenv("INPG_TRACE");
        if (!env)
            return;
        const std::string spec = trim(env);
        // Backwards compatible: INPG_TRACE=1 means everything.
        if (spec == "1" || toLower(spec) == "all") {
            all = true;
            return;
        }
        for (const auto &ch : split(spec, ','))
            if (!trim(ch).empty())
                channels.insert(toLower(trim(ch)));
    }

    std::mutex mtx; // lint:allow(threading-outside-parallel)
    bool all = false;
    std::set<std::string> channels;
    Trace::Sink sink;
};

TraceState &
state()
{
    static TraceState s;
    return s;
}

using Lock = std::lock_guard<std::mutex>; // lint:allow(threading-outside-parallel)

} // namespace

void
Trace::enable(const std::string &channel)
{
    TraceState &s = state();
    Lock lock(s.mtx);
    if (toLower(channel) == "all")
        s.all = true;
    else
        s.channels.insert(toLower(channel));
}

void
Trace::disable(const std::string &channel)
{
    TraceState &s = state();
    Lock lock(s.mtx);
    if (toLower(channel) == "all") {
        s.all = false;
        s.channels.clear();
    } else {
        s.channels.erase(toLower(channel));
    }
}

bool
Trace::enabled(const std::string &channel)
{
    TraceState &s = state();
    Lock lock(s.mtx);
    return s.all || s.channels.count(toLower(channel)) > 0;
}

bool
Trace::anyEnabled()
{
    TraceState &s = state();
    Lock lock(s.mtx);
    return s.all || !s.channels.empty();
}

Trace::Sink
Trace::setSink(Sink sink)
{
    TraceState &s = state();
    Lock lock(s.mtx);
    Sink previous = std::move(s.sink);
    s.sink = std::move(sink);
    return previous;
}

void
Trace::emit(const std::string &channel, Cycle now,
            const std::string &message)
{
    // Format outside the lock; deliver under it so concurrent workers
    // never interleave within one line (or within one sink call).
    std::string line = format("[%llu] %s: %s",
                              static_cast<unsigned long long>(now),
                              channel.c_str(), message.c_str());
    TraceState &s = state();
    Lock lock(s.mtx);
    if (s.sink)
        s.sink(line);
    else
        std::fprintf(stderr, "%s\n", line.c_str());
}

} // namespace inpg
