/**
 * @file
 * Per-channel text tracing (gem5's DPRINTF in spirit).
 *
 * The channels are "l1", "dir" and "br". Tracing is off unless enabled
 * programmatically (Trace::enable) or via the INPG_TRACE environment
 * variable, which holds a comma-separated channel list or "all":
 *
 *     INPG_TRACE=dir,br ./build/examples/quickstart
 *
 * Components do not call this facility: their lines ("L1 3 RECV ...",
 * "DIR 5 PROC ...", "BR 9 STOP ...") come from the text-trace consumer
 * of the telemetry event stream (telemetry/telemetry.hh). A System
 * attaches that consumer when any channel is enabled at the time it is
 * built, and each line is still gated by its own channel when emitted;
 * with no channel enabled, tracing costs the components nothing.
 *
 * Lines go to stderr by default; tests capture them by installing a
 * sink. All state and emission are serialized process-wide (the sweep
 * runner traces from several workers at once), so lines never tear.
 * Sinks run under the internal lock and must not call back into Trace.
 */

#ifndef INPG_COMMON_TRACE_HH
#define INPG_COMMON_TRACE_HH

#include <functional>
#include <string>

#include "common/types.hh"

namespace inpg {

/** Global trace facility (process-wide, like the log level). */
class Trace
{
  public:
    /** Sink receiving complete trace lines (without newline). */
    using Sink = std::function<void(const std::string &line)>;

    /** Enable a channel ("all" enables everything). */
    static void enable(const std::string &channel);

    /** Disable a channel ("all" clears everything). */
    static void disable(const std::string &channel);

    /** True when the channel (or "all") is enabled. */
    static bool enabled(const std::string &channel);

    /** True when any channel is enabled. */
    static bool anyEnabled();

    /**
     * Install a sink; nullptr restores the default (stderr).
     * Returns the previous sink.
     */
    static Sink setSink(Sink sink);

    /** Emit one line: "[cycle] channel: message". */
    static void emit(const std::string &channel, Cycle now,
                     const std::string &message);
};

} // namespace inpg

#endif // INPG_COMMON_TRACE_HH
