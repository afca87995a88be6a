/**
 * @file
 * tenantbench: one benchmark run of the Zoomie debug server.
 *
 *   tenantbench --workload W --seed N --seconds S --trace 0|1
 *               --server PATH --corpus DIR [--spans FILE]
 *               [--golden FILE]
 *
 * --trace 0 drives a child zoomie_server over loopback TCP and
 * prints the end-to-end metrics; --trace 1 replays the same script
 * in-process with spans around every layer call and prints the
 * per-layer metrics. The last stdout line is the result object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * Lines before it (prefixed '#') are the human-readable report.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "rdp/json.hh"
#include "traced.hh"
#include "wire.hh"

namespace {

using zoomie::rdp::Json;

/** Full-precision number: every digit as measured. */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tenantbench --workload debug_fabric|"
                 "soak_sw --seed N --seconds S --trace 0|1 "
                 "--server PATH --corpus DIR [--spans FILE] "
                 "[--golden FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, server, corpus, spans, golden;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(v);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--server")
            server = v;
        else if (flag == "--corpus")
            corpus = v;
        else if (flag == "--spans")
            spans = v;
        else if (flag == "--golden")
            golden = v;
        else
            return usage();
    }
    bool known = false;
    for (const std::string &name : tb::workloadNames())
        known = known || name == workload;
    if (!known || corpus.empty() || (trace == 0 && server.empty()) ||
        seconds <= 0)
        return usage();

    tb::RunResult r;
    if (trace == 0) {
        tb::WireOptions o;
        o.workload = workload;
        o.seed = seed;
        o.seconds = seconds;
        o.server = server;
        o.corpusDir = corpus;
        o.goldenFile = golden;
        r = tb::runWire(o);
    } else {
        tb::TracedOptions o;
        o.workload = workload;
        o.seed = seed;
        o.seconds = seconds;
        o.corpusDir = corpus;
        o.spansFile = spans;
        o.goldenFile = golden;
        r = tb::runTraced(o);
    }
    std::string metrics;
    for (const tb::Metric &m : r.metrics) {
        metrics += (metrics.empty() ? "" : ", ") + Json(m.name).encode() +
                   ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + Json(m.unit).encode() + "}";
    }
    for (const std::string &p : r.problems)
        std::printf("# problem: %s\n", p.c_str());
    if (r.attempted == 0) {
        std::fprintf(stderr, "tenantbench: nothing was attempted\n");
        return 1;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.correct && r.failed == 0 ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed, metrics.c_str());
    return 0;
}
