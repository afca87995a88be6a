#include "script.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

namespace tb {

using zoomie::rdp::Json;

const char *const kServSocGenesis = "0xa8c7f832281a39c5";

/** splitmix64 finalizer: decorrelates (seed, conn, round) keys. */
uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

class Rng
{
  public:
    explicit Rng(uint64_t seed) : _gen(seed) {}
    /** Uniform in [lo, hi]. */
    uint64_t range(uint64_t lo, uint64_t hi)
    {
        return lo + _gen() % (hi - lo + 1);
    }
    template <typename T>
    const T &pick(const std::vector<T> &v)
    {
        return v[_gen() % v.size()];
    }
    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), _gen);
    }

  private:
    std::mt19937_64 _gen;
};

/** What the scripts may touch in one design. */
struct DesignInfo
{
    struct Reg { const char *name; uint64_t max; };
    struct Mem { const char *name; uint32_t depth; uint64_t max; };
    struct Port { const char *name; uint64_t max; };

    const char *name;  ///< stratum label
    std::vector<const char *> reads;  ///< print targets
    const char *regsPrefix;
    std::vector<Reg> forces;
    std::vector<Mem> mems;
    std::vector<Port> ports;
    std::vector<const char *> traces;  ///< trace "signals" args
};

const DesignInfo kServSoc = {
    "serv_soc",
    {"cluster0/core0/pc", "cluster0/core0/acc",
     "cluster0/core1/acc", "cluster0/core0/cnt"},
    "cluster0/core0/",
    {{"cluster0/core0/acc", 0x3fff}, {"cluster0/core1/acc", 0x3fff}},
    {{"cluster0/core0/rf", 64, 0x3ff}, {"cluster0/core1/rf", 64, 0x3ff}},
    {},
    {"cluster0/core0/pc,cluster0/core0/acc", "cluster0/core0/cnt"},
};

/** serv_soc opened with a cycle counter in watch slot 1, so value
 *  breakpoints on it stop at a known cycle. */
const std::vector<std::string> kServSocCycleWatch = {
    "cluster0/core0/pc", "cluster0/core0/mcycle"};

const DesignInfo kTinyRv = {
    "tinyrv",
    {"cpu/pc", "cpu/state", "cpu/ir"},
    "cpu/",
    {{"cpu/mepc", 0xffff}},
    {{"cpu/rf", 32, 0xffff}},
    {},
    {"cpu/pc,cpu/state", "cpu/pc"},
};

const DesignInfo kCounter = {
    "counter", {"mut/count"}, "mut/", {{"mut/count", 0xfff}}, {}, {},
    {"mut/count"},
};

/** The seeded FIFO variant (see fifoVariant()). */
const DesignInfo kFifo = {
    "fifo",
    {"mut/rd", "mut/wr", "mut/last"},
    "mut/",
    {{"mut/last", 0xf}},
    {{"mut/store", 4, 0xf}},
    {{"push", 1}, {"pop", 1}, {"din", 0xf}},
    {"mut/wr,mut/last", "mut/rd"},
};

/**
 * A parameterized FIFO whose constants come from @p k: distinct
 * k give distinct elaborated designs (so the lint and artifact
 * caches miss), equal k give byte-identical text (so they hit).
 */
std::string
fifoVariant(uint64_t k)
{
    unsigned width = 8 + unsigned(k % 9);
    unsigned depth_log2 = 2 + unsigned(k / 9 % 3);
    unsigned salt = unsigned((k / 27) % 256);
    std::ostringstream s;
    s << "// Seeded FIFO variant " << k << ".\n"
      << "module fifo #(parameter W = " << width
      << ", parameter DEPTH_LOG2 = " << depth_log2
      << ", parameter SALT = " << salt << ") (\n"
      << "    input clk, input push, input pop, input [W-1:0] din,\n"
      << "    output [W-1:0] dout, output empty\n"
      << ");\n"
      << "  reg [W-1:0] store [0:(1 << DEPTH_LOG2) - 1];\n"
      << "  reg [DEPTH_LOG2:0] rd;\n"
      << "  reg [DEPTH_LOG2:0] wr;\n"
      << "  reg [W-1:0] last;\n"
      << "  always @(posedge clk) begin\n"
      << "    if (push) begin\n"
      << "      store[wr[DEPTH_LOG2-1:0]] <= din ^ SALT;\n"
      << "      wr <= wr + 1;\n"
      << "    end\n"
      << "    if (pop) begin\n"
      << "      rd <= rd + 1;\n"
      << "      last <= store[rd[DEPTH_LOG2-1:0]];\n"
      << "    end\n"
      << "  end\n"
      << "  assign dout = last;\n"
      << "  assign empty = rd == wr;\n"
      << "endmodule\n";
    return s.str();
}

Json
cmd(const char *name)
{
    Json j = Json::object();
    j.set("cmd", name);
    return j;
}

/** Builds one session's steps against one design. */
class SessionBuilder
{
  public:
    SessionBuilder(std::vector<Step> &out, Rng &rng,
                   const DesignInfo *info, std::string backend)
        : _out(out), _rng(rng), _info(info),
          _backend(std::move(backend)),
          _label(std::string(info ? info->name : "upload") + "/" +
                 _backend)
    {
    }

    Cls runCls() const
    {
        if (_backend == "fabric")
            return kRunFabric;
        return _backend == "jit" ? kRunJit : kRunSim;
    }

    void openBuiltin(const char *design,
                     const std::vector<std::string> &watch = {})
    {
        Json req = cmd("open");
        req.set("design", design);
        req.set("backend", _backend);
        if (!watch.empty()) {
            Json list = Json::array();
            for (const std::string &w : watch)
                list.push(w);
            req.set("watch", std::move(list));
        }
        push(std::move(req), kOpen).opens = true;
    }

    /** @p role names the upload's cache role in its stratum
     *  ("miss", "hit"), so hits and misses are separate strata. */
    void openSource(const std::string &text, const char *role = "")
    {
        Json req = cmd("open_source");
        req.set("text", text);
        req.set("backend", _backend);
        Step &s = push(std::move(req), kOpen);
        s.opens = true;
        if (*role)
            s.stratum += std::string(" ") + role;
    }

    void printWatch0()
    {
        push(cmd("print"), kInspect).watch0 = true;
    }

    /** print, regs, x in rotation: the shares of each read kind
     *  (and so the latency percentiles) do not depend on the seed. */
    void inspect()
    {
        uint64_t kind = _inspects++ % (_info->mems.empty() ? 2 : 3);
        if (kind == 0) {
            Json req = cmd("print");
            req.set("name", _rng.pick(_info->reads));
            push(std::move(req), kInspect);
        } else if (kind == 1) {
            Json req = cmd("regs");
            req.set("prefix", _info->regsPrefix);
            push(std::move(req), kInspect);
        } else {
            const DesignInfo::Mem &mem = _rng.pick(_info->mems);
            Json req = cmd("x");
            req.set("name", mem.name);
            req.set("addr", _rng.range(0, mem.depth - 1));
            push(std::move(req), kInspect);
        }
    }

    /** force, forcemem, poke in rotation (or kind @p only); designs
     *  with input ports start at poke, so one write per session
     *  exercises it. */
    void mutate(int only = -1)
    {
        uint64_t kinds = 1 + !_info->mems.empty() +
                         !_info->ports.empty();
        uint64_t kind = (_mutates++ + (_info->ports.empty() ? 0 : 2)) %
                        kinds;
        if (only >= 0)
            kind = uint64_t(only);
        if (kind == 0) {
            const DesignInfo::Reg &reg = _rng.pick(_info->forces);
            Json req = cmd("force");
            req.set("name", reg.name);
            req.set("value", _rng.range(0, reg.max));
            push(std::move(req), kMutate);
        } else if (kind == 1 && !_info->mems.empty()) {
            const DesignInfo::Mem &mem = _rng.pick(_info->mems);
            Json req = cmd("forcemem");
            req.set("name", mem.name);
            // Low addresses hold live program state on the CPUs;
            // write the upper half only.
            req.set("addr", _rng.range(mem.depth / 2, mem.depth - 1));
            req.set("value", _rng.range(0, mem.max));
            push(std::move(req), kMutate);
        } else {
            const DesignInfo::Port &port = _rng.pick(_info->ports);
            Json req = cmd("poke");
            req.set("name", port.name);
            req.set("value", _rng.range(0, port.max));
            push(std::move(req), kMutate);
        }
    }

    void run(uint64_t n, Cls cls)
    {
        Json req = cmd("run");
        req.set("n", n);
        push(std::move(req), cls);
    }

    void run(uint64_t n) { run(n, runCls()); }

    /** break + run + clear + resume: the run may stop early. */
    void breakRun(unsigned slot, uint64_t value, uint64_t n)
    {
        Json brk = cmd("break");
        brk.set("slot", slot);
        brk.set("value", value);
        push(std::move(brk), kOther);
        run(n);
        push(cmd("clear"), kOther);
        push(cmd("resume"), kOther);
    }

    void step(uint64_t n)
    {
        Json req = cmd("step");
        req.set("n", n);
        push(std::move(req), kOther);
        push(cmd("resume"), kOther);
    }

    void snapshot(const char *golden = "")
    {
        push(cmd("snapshot"), kTravel).expectSnapshot = golden;
    }

    void restoreBack(uint64_t back, const char *golden = "")
    {
        Step &s = push(cmd("restore"), kTravel);
        s.cycleBack = int64_t(back);
        s.expectSnapshot = golden;
        push(cmd("resume"), kOther);
    }

    void trace(uint64_t n)
    {
        Json req = cmd("trace");
        req.set("n", n);
        req.set("signals", _rng.pick(_info->traces));
        push(std::move(req), kTrace);
    }

    void close() { push(cmd("close"), kOther).closes = true; }

  private:
    Step &push(Json req, Cls cls)
    {
        Step s;
        s.stratum = _label + " " + req.find("cmd")->asString();
        s.req = std::move(req);
        s.cls = cls;
        _out.push_back(std::move(s));
        return _out.back();
    }

    std::vector<Step> &_out;
    Rng &_rng;
    const DesignInfo *_info;
    std::string _backend;
    std::string _label;
    uint64_t _inspects = 0;
    uint64_t _mutates = 0;
};

void
rejectUpload(std::vector<Step> &out, const std::string &text)
{
    Step s;
    s.req = cmd("open_source");
    s.req.set("text", text);
    s.cls = kOther;
    s.expectError = "parse-error";
    out.push_back(std::move(s));
}

// ---- debug_fabric --------------------------------------------------------

/**
 * Tenant sessions on the fabric and a debugger at work. Each round is
 * one session; 8 rounds hold, in a fixed rotation:
 *
 * - 7 debug sessions: serv_soc and tinyrv on the fabric, two each
 *   (one serv_soc session watches a cycle counter, so its breakpoints
 *   stop), a fabric FIFO upload (the only design with input ports,
 *   for poke) and one serv_soc session each on jit and sim. Each
 *   interleaves break/run, reads, writes, step, snapshot, restore and
 *   a short streamed trace in a seeded order.
 * - 1 churn round: a corpus file is uploaded, validated with a print
 *   and closed, and a reject/ file is uploaded (an expected
 *   parse-error).
 *
 * The FIFO variant and the corpus file change every 16 rounds, so
 * each is uploaded twice and half the uploads are byte-identical
 * repeats: the first misses the lint and artifact caches, the second
 * hits.
 */
class DebugFabric : public ConnScript
{
  public:
    DebugFabric(uint64_t seed, const Corpus &corpus)
        : _seed(seed), _corpus(corpus)
    {
    }

    uint64_t blockRounds() const override { return 16; }

    std::vector<Step> round(uint64_t i) override
    {
        // A fixed design rotation, so any run length sees the same
        // mix; the seed varies the operations and their values.
        static const int kRotation[8] = {0, 2, 1, 5, 3, 7, 4, 6};
        int kind = kRotation[i % 8];
        uint64_t block = i / 16;
        const char *role = i % 16 < 8 ? "miss" : "hit";
        Rng rng(mix(_seed, i));
        uint64_t base = mix(_seed, 0xf1f0) % 1000;

        std::vector<Step> out;
        if (kind == 7) {
            // The corpus rotates, so every run uploads each file
            // about equally often whatever the seed.
            const auto &accept = _corpus.accept;
            SessionBuilder s(out, rng, nullptr, "fabric");
            s.openSource(accept[(base + block) % accept.size()].second,
                         role);
            s.printWatch0();
            s.close();
            const auto &reject = _corpus.reject;
            rejectUpload(out, reject[(base + i / 8) % reject.size()]
                                  .second);
            return out;
        }
        const DesignInfo *info = &kServSoc;
        std::string backend = "fabric";
        if (kind == 2 || kind == 3)
            info = &kTinyRv;
        else if (kind == 4)
            info = &kFifo;
        else if (kind == 5)
            backend = "jit";
        else if (kind == 6)
            backend = "sim";
        SessionBuilder s(out, rng, info, backend);
        bool cycle_watch = kind == 1;
        if (info == &kTinyRv)
            s.openBuiltin("tinyrv");
        else if (info == &kFifo)
            s.openSource(fifoVariant(base + block), role);
        else
            s.openBuiltin("serv_soc", cycle_watch
                                          ? kServSocCycleWatch
                                          : std::vector<std::string>{});
        // At cycle 0 this dedups onto the pinned genesis capture,
        // whose id is a checked-in golden for default serv_soc.
        s.snapshot(kind == 0 ? kServSocGenesis : "");

        // Run lengths scale with the backend's speed so every
        // session spends comparable time running.
        uint64_t scale = backend == "fabric" ? 1
                         : backend == "sim" ? 16 : 256;
        // Every session: six reads, four writes, a step and a
        // 4-sample trace (on the fabric every sample is a full
        // register readback). Software sessions add three longer
        // runs so their cycle rates rest on enough work, and the
        // jit session the interactive 1,024-cycle runs.
        std::vector<int> ops = {1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 6};
        if (backend != "fabric")
            ops.insert(ops.end(), {8, 8, 8});
        if (backend == "jit")
            ops.insert(ops.end(), 24, 7);
        rng.shuffle(ops);
        // Time travel stays in one order (snapshot, run, restore
        // into that run) at a seeded position, so the replay
        // distance, and so its cost, does not depend on the shuffle.
        const int travel[] = {4, 0, 5};
        ops.insert(ops.begin() + long(rng.range(0, ops.size())),
                   std::begin(travel), std::end(travel));
        for (int op : ops) {
            switch (op) {
              case 0: {
                uint64_t n = 512 * scale;
                // Slot 0 watches a PC (tinyrv: the loop hits pc 12
                // every iteration); the cycle-watch session breaks
                // on slot 1 = mcycle, below the horizon.
                uint64_t value = info == &kTinyRv ? 12
                                 : info == &kFifo ? 3
                                                  : 300;
                if (cycle_watch)
                    s.breakRun(1, rng.range(1, 60000), n);
                else
                    s.breakRun(0, value, n);
                break;
              }
              case 1: s.inspect(); break;
              case 2: s.mutate(); break;
              case 3: s.step(2); break;
              case 4: s.snapshot(); break;
              case 5: s.restoreBack(rng.range(192, 320) * scale); break;
              case 6: s.trace(4); break;
              case 7: s.run(1024, kShortRun); break;
              default: s.run(512 * scale); break;
            }
        }
        s.close();
        return out;
    }

  private:
    uint64_t _seed;
    const Corpus &_corpus;
};

// ---- soak_sw ---------------------------------------------------------------

/** A held software session issuing long runs and periodic traces. */
class SoakRunner : public ConnScript
{
  public:
    SoakRunner(uint64_t seed, std::string backend, uint64_t lo,
               uint64_t hi, uint64_t trace_n)
        : _seed(seed), _backend(std::move(backend)), _lo(lo),
          _hi(hi), _traceN(trace_n)
    {
    }

    std::vector<Step> round(uint64_t i) override
    {
        Rng rng(mix(_seed, i));
        std::vector<Step> out;
        SessionBuilder s(out, rng, &kServSoc, _backend);
        if (i == 0)
            s.openBuiltin("serv_soc");
        s.run(rng.range(_lo, _hi));
        if (i % 2 == 1)
            s.trace(_traceN);
        return out;
    }

    std::vector<Step> finish(uint64_t rounds) override
    {
        std::vector<Step> out;
        if (rounds == 0)
            return out;
        Rng rng(0);
        SessionBuilder(out, rng, &kServSoc, _backend).close();
        return out;
    }

  private:
    uint64_t _seed;
    std::string _backend;
    uint64_t _lo, _hi, _traceN;
};

/**
 * The interactive client beside the soak runners: short runs,
 * prints and steps on a jit session, reopened every 4 rounds. It
 * also writes, snapshots and restores, and one session in 40 is a
 * fabric counter with 2,048-cycle runs, so every end-to-end metric
 * has samples on this workload too.
 */
class SoakInteractive : public ConnScript
{
  public:
    explicit SoakInteractive(uint64_t seed) : _seed(seed) {}

    /** One block holds every session kind once per 40. */
    uint64_t blockRounds() const override { return 4 * 40; }

    std::vector<Step> round(uint64_t i) override
    {
        uint64_t session = i / 4;
        Rng rng(mix(_seed, i));
        std::vector<Step> out;
        const DesignInfo *info = infoFor(session);
        SessionBuilder s(out, rng, info, backendFor(session));
        if (i % 4 == 0) {
            if (session > 0) {
                Rng none(0);
                SessionBuilder(out, none, infoFor(session - 1),
                               backendFor(session - 1))
                    .close();
            }
            s.openBuiltin(info == &kCounter ? "counter" : "serv_soc");
        }
        if (info == &kCounter)
            s.run(2048);
        else
            s.run(1024, kShortRun);
        s.printWatch0();
        switch (i % 8) {
          case 1: case 5: s.mutate(); break;
          case 2: case 4: s.snapshot(); break;
          case 3: case 7: s.step(2); break;
          case 6: s.restoreBack(rng.range(256, 2048)); break;
          default: break;
        }
        return out;
    }

    std::vector<Step> finish(uint64_t rounds) override
    {
        std::vector<Step> out;
        if (rounds == 0)
            return out;
        uint64_t session = (rounds - 1) / 4;
        Rng none(0);
        SessionBuilder(out, none, infoFor(session), backendFor(session))
            .close();
        return out;
    }

  private:
    static const DesignInfo *infoFor(uint64_t session)
    {
        return session % 40 == 2 ? &kCounter : &kServSoc;
    }
    static std::string backendFor(uint64_t session)
    {
        return infoFor(session) == &kCounter ? "fabric" : "jit";
    }

    uint64_t _seed;
};

} // namespace

bool
loadCorpus(const std::string &dir, Corpus &out, std::string &error)
{
    namespace fs = std::filesystem;
    for (const char *sub : {"accept", "reject"}) {
        fs::path path = fs::path(dir) / sub;
        std::error_code ec;
        if (!fs::is_directory(path, ec)) {
            error = "no Verilog corpus at " + path.string();
            return false;
        }
        std::vector<fs::path> files;
        for (const auto &entry : fs::directory_iterator(path, ec)) {
            if (entry.path().extension() == ".v")
                files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        auto &dest = std::string(sub) == "accept" ? out.accept
                                                  : out.reject;
        for (const fs::path &file : files) {
            std::ifstream in(file);
            std::stringstream text;
            text << in.rdbuf();
            dest.emplace_back(file.filename().string(), text.str());
        }
        if (dest.empty()) {
            error = "empty Verilog corpus at " + path.string();
            return false;
        }
    }
    return true;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "debug_fabric", "soak_sw"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed,
             const Corpus &corpus)
{
    auto w = std::make_unique<Workload>();
    w->name = name;
    if (name == "debug_fabric") {
        w->conns.push_back(std::make_unique<DebugFabric>(seed, corpus));
        w->prefixRounds = 16;
    } else if (name == "soak_sw") {
        w->conns.push_back(std::make_unique<SoakRunner>(
            mix(seed, 1), "jit", 160'000, 240'000, 4096));
        w->conns.push_back(std::make_unique<SoakRunner>(
            mix(seed, 2), "sim", 16'000, 24'000, 1024));
        w->conns.push_back(
            std::make_unique<SoakInteractive>(mix(seed, 3)));
        w->prefixRounds = 16;
    } else {
        return nullptr;
    }
    return w;
}

const char *
clsName(Cls cls)
{
    static const char *names[kNumCls] = {
        "open", "inspect", "mutate", "travel", "trace",
        "run_fabric", "run_sim", "run_jit", "short_run", "other"};
    return names[cls];
}

} // namespace tb
