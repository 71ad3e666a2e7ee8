/**
 * @file
 * Top-level system configuration: the paper's Table 1 in one struct,
 * plus the mechanism and lock primitive selectors.
 */

#ifndef INPG_HARNESS_SYSTEM_CONFIG_HH
#define INPG_HARNESS_SYSTEM_CONFIG_HH

#include <string>

#include "coh/coh_config.hh"
#include "common/config.hh"
#include "harness/mechanism.hh"
#include "inpg/inpg_config.hh"
#include "noc/noc_config.hh"
#include "sync/sync_config.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

/** Everything needed to build one simulated system. */
struct SystemConfig {
    NocConfig noc;   ///< mesh, VCs, router pipeline
    CohConfig coh;   ///< caches, directory, memory latencies
    InpgConfig inpg; ///< big-router deployment and table sizing
    SyncConfig sync; ///< spin/sleep behaviour, OCOR parameters

    Mechanism mechanism = Mechanism::Original;
    LockKind lockKind = LockKind::Qsl;

    TelemetryConfig telemetry; ///< instrumentation; all off by default

    std::uint64_t seed = 1;

    /**
     * Normalize derived fields: the coherence layer's node count, the
     * NoC switch policy + sync OCOR flag from the mechanism, and the
     * big-router count when iNPG is off. Fatal on a VC geometry the
     * router cannot hold (at most 32 VCs per port, each at least one
     * flit deep).
     */
    void finalize();

    /** Apply "key=value" overrides (topology, mechanism, lock, ...). */
    void applyOverrides(const Config &cfg);

    /** Table 1-style multi-line description. */
    std::string describe() const;

    int numCores() const { return noc.numNodes(); }
};

/** Parse a mechanism name ("original", "ocor", "inpg", "inpg+ocor"). */
Mechanism parseMechanism(const std::string &name);

/** Parse a lock kind ("tas", "ttl", "abql", "mcs", "qsl"). */
LockKind parseLockKind(const std::string &name);

} // namespace inpg

#endif // INPG_HARNESS_SYSTEM_CONFIG_HH
