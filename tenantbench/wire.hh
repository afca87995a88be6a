/**
 * @file
 * The wire side of the benchmark: a JSONL client that executes
 * script steps over a line channel (loopback TCP to a child
 * zoomie_server, or an in-process rdp::Server), judges every reply
 * and records latencies, rates and per-round reply digests.
 */

#ifndef TENANTBENCH_WIRE_HH
#define TENANTBENCH_WIRE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "script.hh"

namespace tb {

/** A bidirectional line channel. */
class Channel
{
  public:
    virtual ~Channel() = default;
    virtual bool send(const std::string &line) = 0;
    /** false on EOF, error or @p timeout_ms without a line. */
    virtual bool recv(std::string &line, int timeout_ms) = 0;
};

/** A loopback TCP channel to @p port; nullptr on failure. */
std::unique_ptr<Channel> connectLoopback(uint16_t port);

/** What one connection observed. */
struct ConnStats
{
    std::array<std::vector<double>, kNumCls> latencyMs;
    /** The same samples split by Step::stratum. */
    std::array<std::map<std::string, std::vector<double>>, kNumCls>
        strata;
    /** Per backend (fabric, sim, jit): MUT cycles and wall time of
     *  every run request, short runs included. */
    std::array<uint64_t, 3> runCycles{};
    std::array<double, 3> runMs{};
    uint64_t traceSamples = 0;
    double traceMs = 0;
    std::vector<double> queueWaitMs;  ///< reply queue_wait_us of runs
    std::vector<double> decodeUs;     ///< Json::parse of each reply
    std::vector<double> encodeUs;     ///< Json::encode of each request
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t rounds = 0;
    uint64_t genesisChecks = 0;
    std::vector<uint64_t> roundDigests;  ///< scrubbed replies per round
    std::vector<std::string> problems;   ///< first few failures

    void merge(const ConnStats &other);
    void problem(std::string text);
};

/** Executes steps on one channel, tracking session and cycle. */
class ConnRunner
{
  public:
    ConnRunner(Channel &channel, ConnStats &stats)
        : _ch(channel), _stats(stats)
    {
    }

    /** Run one round; false once the channel is unusable. */
    bool runRound(const std::vector<Step> &steps);

    /** Run steps outside any round (finish, warm-up). */
    bool runSteps(const std::vector<Step> &steps);

    /** Send @p req (no placeholders) and return the reply line. */
    bool call(const zoomie::rdp::Json &req, std::string &reply);

    bool alive() const { return _alive; }

    /** Reply timeout; a stuck server counts as a failure. */
    static constexpr int kTimeoutMs = 60'000;

  private:
    bool runAll(const std::vector<Step> &steps, uint64_t &digest);
    bool exec(const Step &step, uint64_t &digest);

    Channel &_ch;
    ConnStats &_stats;
    bool _alive = true;
    uint64_t _nextId = 1;
    bool _haveSession = false;
    uint64_t _session = 0;
    uint64_t _lastCycle = 0;
    std::string _watch0;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The outcome of one run, traced or not. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;
};

struct WireOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    std::string server;     ///< zoomie_server binary
    std::string corpusDir;  ///< tests/verilog_corpus
    std::string goldenFile; ///< tenantbench/golden.json ("" = none)
};

/** The untraced run: end-to-end metrics. */
RunResult runWire(const WireOptions &options);

/** Drop host-timing and per-process keys before hashing (the
 *  difftest scrub list, plus session and correlation ids). */
zoomie::rdp::Json scrub(const zoomie::rdp::Json &v);

/** Percentile (nearest rank) of @p v, 0 when empty. */
double percentile(std::vector<double> v, double q);

/** The @p q percentile of each stratum, averaged with the strata's
 *  sample shares as weights; NaN when there are no samples. */
double blendedPercentile(
    const std::map<std::string, std::vector<double>> &strata, double q);

/** The checked-in expected values of (@p workload, @p seed) in
 *  @p file, or a null Json when the file has none for that pair. */
zoomie::rdp::Json loadGolden(const std::string &file,
                             const std::string &workload, uint64_t seed);

/** 0x-prefixed 16-digit hex of @p v. */
std::string hex64(uint64_t v);

/** Median (mean of the middle pair for an even count), 0 when
 *  empty. */
double median(std::vector<double> v);

/** Replay the first @p rounds rounds of every connection against an
 *  in-process rdp::Server; digests land in @p out (one per conn). */
bool referenceDigests(Workload &workload,
                      const std::vector<uint64_t> &rounds,
                      std::vector<ConnStats> &out);

} // namespace tb

#endif // TENANTBENCH_WIRE_HH
