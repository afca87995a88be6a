/**
 * @file
 * The traced run: replays a workload's seeded script in-process,
 * calling each module's public entry points directly and recording
 * a span around every call, then drives an in-process rdp::Server
 * over loopback for the serving-layer numbers.
 */

#ifndef TENANTBENCH_TRACED_HH
#define TENANTBENCH_TRACED_HH

#include <string>
#include <utility>
#include <vector>

#include "wire.hh"

namespace tb {

struct TracedOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    std::string corpusDir;
    std::string spansFile;  ///< JSONL span dump ("" = none)
    std::string goldenFile; ///< tenantbench/golden.json ("" = none)
};

/** The traced run: per-layer metrics. */
RunResult runTraced(const TracedOptions &options);

} // namespace tb

#endif // TENANTBENCH_TRACED_HH
