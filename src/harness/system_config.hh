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

/**
 * Host-side implementation flavor: one switch for every fast/reference
 * data-structure toggle (timing-wheel vs heap event queue, flat-hash
 * vs tree containers, precomputed vs per-flit routes, mask-driven vs
 * full-scan allocation). Both flavors are bit-identical in simulated
 * results; Reference exists for determinism A/B tests and debugging.
 */
enum class ImplMode {
    Fast,
    Reference,
};

/** Everything needed to build one simulated system. */
struct SystemConfig {
    NocConfig noc;   ///< mesh, VCs, router pipeline
    CohConfig coh;   ///< caches, directory, memory latencies
    InpgConfig inpg; ///< big-router deployment and table sizing
    SyncConfig sync; ///< spin/sleep behaviour, OCOR parameters

    Mechanism mechanism = Mechanism::Original;
    LockKind lockKind = LockKind::Qsl;

    /**
     * Implementation flavor; finalize() fans it out to the individual
     * toggles (and System selects the event-queue mode from it). The
     * INPG_IMPL environment variable ("fast"/"reference") overrides.
     * Fast is the default and leaves hand-set toggles untouched, so
     * A/B tests can still drive the per-structure flags directly.
     */
    ImplMode impl = ImplMode::Fast;

    TelemetryConfig telemetry; ///< instrumentation; all off by default

    std::uint64_t seed = 1;

    /**
     * Normalize derived fields: the coherence layer's node count, the
     * NoC switch policy + sync OCOR flag from the mechanism, and the
     * big-router count when iNPG is off.
     */
    void finalize();

    /** Apply "key=value" overrides (mesh, mechanism, lock, ...). */
    void applyOverrides(const Config &cfg);

    /** Table 1-style multi-line description. */
    std::string describe() const;

    int numCores() const { return noc.numNodes(); }

    /**
     * @deprecated Set `impl` instead. Shim over the pre-`impl` era of
     * scattered toggles (NocConfig::precomputeRoutes/fastAllocScan,
     * CohConfig::flatContainers); the fields themselves also remain
     * writable for the determinism A/B tests.
     */
    [[deprecated("set SystemConfig::impl instead")]]
    void
    setFastStructures(bool fast)
    {
        impl = fast ? ImplMode::Fast : ImplMode::Reference;
        noc.precomputeRoutes = fast;
        noc.fastAllocScan = fast;
        noc.soaVcState = fast;
        coh.flatContainers = fast;
    }
};

/** Parse an implementation flavor name ("fast" / "reference"). */
ImplMode parseImplMode(const std::string &name);

/** Parse a mechanism name ("original", "ocor", "inpg", "inpg+ocor"). */
Mechanism parseMechanism(const std::string &name);

/** Parse a lock kind ("tas", "ttl", "abql", "mcs", "qsl"). */
LockKind parseLockKind(const std::string &name);

} // namespace inpg

#endif // INPG_HARNESS_SYSTEM_CONFIG_HH
