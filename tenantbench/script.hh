/**
 * @file
 * The seeded tenant scripts every benchmark mode replays.
 *
 * A workload is a fixed number of client connections. Each
 * connection produces an endless, deterministic sequence of rounds
 * (round i depends only on the seed, the connection and i); a round
 * is a short list of wire requests that leaves the connection in a
 * state where it may stop. The wire load generator, the in-process
 * reference replay and the traced direct replay all consume the same
 * rounds, so the request stream is identical in every mode.
 *
 * A few request fields depend on earlier replies (the session a
 * connection opened, the MUT cycle it last saw, the first watch
 * signal of an uploaded design); Step carries those as placeholders
 * that each executor resolves the same way.
 */

#ifndef TENANTBENCH_SCRIPT_HH
#define TENANTBENCH_SCRIPT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rdp/json.hh"

namespace tb {

/** Genesis snapshot id of a default-watch serv_soc fabric session
 *  (the golden the conformance tests pin). */
extern const char *const kServSocGenesis;

/** What a request measures: one latency or rate bucket each. */
enum Cls {
    kOpen,      ///< open / open_source until the session is admitted
    kInspect,   ///< print / regs / x
    kMutate,    ///< force / forcemem / poke
    kTravel,    ///< snapshot / restore {cycle}
    kTrace,     ///< streamed v2 trace
    kRunFabric, ///< run on a fabric session
    kRunSim,    ///< run on a sim session
    kRunJit,    ///< run on a jit session
    kShortRun,  ///< 1,024-cycle run from the interactive client
    kOther,     ///< close, break, clear, resume, step, rejects
    kNumCls
};

/** One request plus how to resolve and judge it. */
struct Step
{
    zoomie::rdp::Json req;  ///< the request object, "cmd" set
    Cls cls = kOther;
    /** Expected typed error code; empty means the reply must be ok. */
    std::string expectError;
    /** restore: target cycle = max(0, last seen cycle - cycleBack). */
    int64_t cycleBack = -1;
    /** The reply's snapshot id must equal this golden (hex). */
    std::string expectSnapshot;
    /** print: use the session's first watch signal as name. */
    bool watch0 = false;
    /** Opens a session (its reply's "session" becomes current). */
    bool opens = false;
    /** Closes the current session. */
    bool closes = false;
    /** "design/backend cmd": latency percentiles are taken per
     *  stratum and blended by the strata's sample shares, so a
     *  percentile never sits on the edge between two designs'
     *  latency clusters. */
    std::string stratum;
};

/** The Verilog files uploads draw from: (file name, text). */
struct Corpus
{
    std::vector<std::pair<std::string, std::string>> accept;
    std::vector<std::pair<std::string, std::string>> reject;
};

/** splitmix64 of (a, b): derives independent seeds. */
uint64_t mix(uint64_t a, uint64_t b);

/** Load tests/verilog_corpus/{accept,reject}; false if missing. */
bool loadCorpus(const std::string &dir, Corpus &out,
                std::string &error);

/** One client connection's request stream. */
class ConnScript
{
  public:
    virtual ~ConnScript() = default;
    /** Round @p i: a pure function of the seed and @p i. */
    virtual std::vector<Step> round(uint64_t i) = 0;
    /** Rounds per block: the command mix is fixed per block, so a
     *  connection stops only at a block boundary and every run sees
     *  exactly the same shares, however fast the machine is. */
    virtual uint64_t blockRounds() const { return 1; }
    /** Steps that release what the first @p rounds rounds left
     *  held (a session kept open across rounds). */
    virtual std::vector<Step> finish(uint64_t rounds)
    {
        (void)rounds;
        return {};
    }
};

struct Workload
{
    std::string name;
    std::vector<std::unique_ptr<ConnScript>> conns;
    /** Rounds per connection the reference and traced replays
     *  execute (a fixed prefix, so their counts repeat exactly). */
    uint64_t prefixRounds = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed,
                                       const Corpus &corpus);

/** Class name used in reports ("open", "inspect", ...). */
const char *clsName(Cls cls);

} // namespace tb

#endif // TENANTBENCH_SCRIPT_HH
