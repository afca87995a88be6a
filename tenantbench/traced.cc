#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bitstream/builder.hh"
#include "common/bits.hh"
#include "core/backend.hh"
#include "core/instrument.hh"
#include "core/snapshot.hh"
#include "designs/serv_soc.hh"
#include "designs/tinyrv.hh"
#include "lint/cache.hh"
#include "lint/lint.hh"
#include "rdp/dispatcher.hh"
#include "rdp/net.hh"
#include "rdp/server.hh"
#include "rtl/builder.hh"
#include "sim/trace.hh"
#include "sim/vcd.hh"
#include "toolchain/artifact_store.hh"
#include "toolchain/flows.hh"
#include "verilog/verilog.hh"

namespace tb {

using zoomie::rdp::Json;
namespace core = zoomie::core;
namespace rtl = zoomie::rtl;
using Clock = std::chrono::steady_clock;

namespace {

// ---- spans ----------------------------------------------------------------

struct Span
{
    const char *name;
    double start = 0, end = 0;  ///< µs since the pass began
    int parent = -1;
    uint64_t request = 0;
    bool fabric = false;  ///< jtag/fpga-bound (readback, writeback,
                          ///< GCAPTURE, bitstream load, fabric run)
};

class Tracer
{
  public:
    bool on = false;
    std::vector<Span> spans;
    int current = -1;
    uint64_t request = 0;
    Clock::time_point t0 = Clock::now();

    double now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
            .count();
    }
};

/** RAII span; free when tracing is off. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, bool fabric = false) : _t(t)
    {
        if (!t.on)
            return;
        _idx = int(t.spans.size());
        Span s;
        s.name = name;
        s.parent = t.current;
        s.request = t.request;
        s.fabric = fabric;
        s.start = t.now();
        t.spans.push_back(s);
        _saved = t.current;
        t.current = _idx;
    }
    ~Scope()
    {
        if (_idx < 0)
            return;
        _t.spans[_idx].end = _t.now();
        _t.current = _saved;
    }

  private:
    Tracer &_t;
    int _idx = -1;
    int _saved = -1;
};

/** Work counts gathered at the same boundaries as the spans. */
struct Counts
{
    uint64_t lintHits = 0, lintMisses = 0;
    uint64_t artifactHits = 0, artifactMisses = 0;
    double modeledCompileS = 0;
    double jtagModeledS = 0;
    uint64_t loadWords = 0, captureWordsRead = 0;
    uint64_t readWords = 0, writeWords = 0;
    uint64_t replayed = 0;
    uint64_t runCycles[3] = {};  ///< fabric, sim, jit
    uint64_t attempted = 0, failed = 0, genesisChecks = 0;
    /** FNV-1a-64 over every value the replay observed: register and
     *  memory reads, snapshot ids, travel cycles, trace checksums. */
    uint64_t valuesDigest = zoomie::kFnv1aBasis;
    std::vector<std::string> problems;

    void fold(uint64_t v)
    {
        valuesDigest = zoomie::fnv1a64(
            reinterpret_cast<const char *>(&v), sizeof v, valuesDigest);
    }

    void problem(std::string text)
    {
        ++failed;
        if (problems.size() < 8)
            problems.push_back(std::move(text));
    }
};

// ---- a fabric backend assembled from its parts ---------------------------

/**
 * The same forwarding FabricBackend does over a Platform, but over a
 * device, JTAG host and debugger this file brought up one stage at a
 * time, so each stage gets its own span.
 */
class StagedFabric : public core::Backend
{
  public:
    StagedFabric(zoomie::fpga::Device &device, core::Debugger &dbg,
                 const core::InstrumentResult &meta)
        : _dev(device), _dbg(dbg), _meta(meta)
    {
    }

    std::string kind() const override { return "fabric"; }
    const core::InstrumentResult &instrumented() const override
    {
        return _meta;
    }
    void run(uint64_t n) override { _dev.runGlobal(n); }
    uint64_t mutCycles() const override
    {
        return _dev.cycles(_meta.gatedClock);
    }
    void setMutCycles(uint64_t n) override
    {
        _dev.setCycles(_meta.gatedClock, n);
    }
    void poke(const std::string &port, uint64_t value) override
    {
        _dev.pokeInput(port, value);
    }
    uint64_t peek(const std::string &port) override
    {
        return _dev.peekOutput(port);
    }
    std::vector<std::string> inputPorts() const override
    {
        return _dev.inputPorts();
    }
    uint64_t peekInput(const std::string &port) const override
    {
        return _dev.peekInput(port);
    }
    void pause() override { _dbg.pause(); }
    void resume() override { _dbg.resume(); }
    void stepCycles(uint64_t n) override { _dbg.stepCycles(n); }
    bool isPaused() override { return _dbg.isPaused(); }
    core::StopInfo stopInfo() override { return _dbg.stopInfo(); }
    size_t watchSlotCount() const override
    {
        return _meta.watchSignals.size();
    }
    void setValueBreakpoint(unsigned slot, uint64_t ref_val,
                            bool in_and, bool in_or) override
    {
        _dbg.setValueBreakpoint(slot, ref_val, in_and, in_or);
    }
    void setWatchpoint(unsigned slot, bool enabled) override
    {
        _dbg.setWatchpoint(slot, enabled);
    }
    void clearValueBreakpoints() override
    {
        _dbg.clearValueBreakpoints();
    }
    void armTriggers(bool and_group, bool or_group) override
    {
        _dbg.armTriggers(and_group, or_group);
    }
    void enableAssertion(unsigned index, bool enabled) override
    {
        _dbg.enableAssertion(index, enabled);
    }
    uint64_t assertionsFired() override
    {
        return _dbg.assertionsFired();
    }
    bool hasRegister(const std::string &name) const override
    {
        return _dbg.hasRegister(name);
    }
    bool hasMemory(const std::string &name) const override
    {
        return _dbg.hasMemory(name);
    }
    uint32_t memoryDepth(const std::string &name) const override
    {
        const auto *mem = _dbg.locations().findMem(name);
        return mem ? mem->depth : 0;
    }
    uint64_t readRegister(const std::string &name) override
    {
        return _dbg.readRegister(name);
    }
    void forceRegister(const std::string &name, uint64_t value) override
    {
        _dbg.forceRegister(name, value);
    }
    void forceRegisters(
        const std::vector<std::pair<std::string, uint64_t>> &writes)
        override
    {
        _dbg.forceRegisters(writes);
    }
    uint64_t readMemWord(const std::string &name,
                         uint32_t addr) override
    {
        return _dbg.readMemWord(name, addr);
    }
    void forceMemWord(const std::string &name, uint32_t addr,
                      uint64_t value) override
    {
        _dbg.forceMemWord(name, addr, value);
    }
    std::map<std::string, uint64_t> readAllRegisters(
        const std::string &prefix) override
    {
        return _dbg.readAllRegisters(prefix);
    }
    std::vector<std::vector<uint32_t>> readbackImage() override
    {
        return _dbg.readbackImage();
    }
    void writeFrames(
        const std::vector<zoomie::toolchain::FrameSpan> &spans) override
    {
        _dbg.writeFrames(spans);
    }
    uint32_t numSlrs() const override { return _dev.spec().numSlrs; }
    uint32_t framesPerSlr() const override
    {
        return _dev.spec().framesPerSlr();
    }

  private:
    zoomie::fpga::Device &_dev;
    core::Debugger &_dbg;
    const core::InstrumentResult &_meta;
};

// ---- one directly driven session -------------------------------------------

struct DirectSession
{
    std::string kind;  ///< fabric / sim / jit
    rtl::Design user;
    std::vector<std::string> watch;
    core::InstrumentResult meta;
    zoomie::toolchain::CompileResult compiled;
    std::unique_ptr<zoomie::fpga::Device> device;
    std::unique_ptr<zoomie::jtag::JtagHost> host;
    std::unique_ptr<core::Debugger> dbg;
    std::unique_ptr<core::Backend> backend;
    std::unique_ptr<core::SnapshotStore> snaps;

    bool fabric() const { return kind == "fabric"; }
    uint64_t words() const
    {
        return host ? host->wordsSent() + host->wordsRead() : 0;
    }
};

/** The server's built-in designs, as rdp/session.cc builds them. */
rtl::Design
builtinDesign(const std::string &name, core::PlatformOptions &opts,
              std::vector<std::string> &watch)
{
    namespace designs = zoomie::designs;
    if (name == "tinyrv") {
        using namespace designs::rv;
        if (watch.empty())
            watch = {"cpu/pc", "cpu/mcause", "cpu/state"};
        opts.instrument.mutPrefix = "cpu/";
        zoomie::fpga::DeviceSpec spec = zoomie::fpga::makeTestDevice();
        spec.clbCols = 32;
        spec.clbRows = 64;
        spec.bramCols = 4;
        opts.spec = spec;
        return designs::buildTinyRv({addi(1, 0, 0), addi(2, 0, 1),
                                     add(1, 1, 2), addi(2, 2, 1),
                                     sw(1, 0, 0x200), jal(0, -12)});
    }
    if (name == "serv_soc") {
        if (watch.empty())
            watch = {"cluster0/core0/pc"};
        designs::ServSocConfig soc;
        soc.cores = 2;
        soc.coresPerCluster = 2;
        soc.clusterBrams = 1;
        soc.l2Brams = 0;
        opts.instrument.mutPrefix = "cluster0/";
        return designs::buildServSoc(soc);
    }
    if (watch.empty())
        watch = {"mut/count"};
    opts.instrument.mutPrefix = "mut/";
    rtl::Builder b("app");
    b.pushScope("mut");
    auto count = b.reg("count", 16, 0);
    b.connect(count, b.addLit(count.q, 1));
    b.popScope();
    b.output("value", b.handleFor(count.q.id));
    return b.finish();
}

/** Executes script steps by calling each layer directly. */
class DirectRunner
{
  public:
    DirectRunner(Tracer &t, Counts &c, zoomie::lint::AnalysisCache &lint,
                 zoomie::toolchain::ArtifactStore &artifacts)
        : _t(t), _c(c), _lint(lint), _artifacts(artifacts)
    {
    }

    ~DirectRunner() { close(); }

    void runSteps(const std::vector<Step> &steps)
    {
        for (const Step &step : steps) {
            ++_c.attempted;
            ++_t.request;
            const std::string &cmd = step.req.find("cmd")->asString();
            Scope req(_t, "request");
            try {
                bool ok = exec(step, cmd);
                if (ok != step.expectError.empty())
                    _c.problem(cmd + ": outcome differs from the "
                                     "script's expectation");
            } catch (const std::exception &e) {
                _c.problem(cmd + ": " + e.what());
            }
        }
    }

  private:
    static constexpr uint64_t kQuantum = 2048;
    static constexpr uint64_t kAutoSnapshot = 4096;

    int backendIdx() const
    {
        return _s->kind == "fabric" ? 0 : _s->kind == "sim" ? 1 : 2;
    }
    const char *runSpan() const
    {
        return _s->kind == "fabric" ? "fpga.run"
               : _s->kind == "sim"  ? "sim.run"
                                    : "jit.run";
    }

    /** Run like the scheduler does: quanta plus auto-snapshots. */
    void runQuanta(uint64_t n)
    {
        while (n) {
            uint64_t q = std::min(kQuantum, n);
            {
                Scope s(_t, runSpan(), _s->fabric());
                _s->backend->run(q);
            }
            _c.runCycles[backendIdx()] += q;
            autoTick();
            n -= q;
        }
    }

    void autoTick()
    {
        uint64_t before = _s->words();
        Scope s(_t, "core.autosnap", _s->fabric());
        _s->snaps->autoTick(kAutoSnapshot);
        _c.captureWordsRead += _s->words() - before;
    }

    void close()
    {
        if (!_s)
            return;
        Scope s(_t, "core.close");
        if (_s->host)
            _c.jtagModeledS += _s->host->elapsedSeconds();
        _s.reset();
    }

    bool open(rtl::Design user, core::PlatformOptions opts,
              std::vector<std::string> watch, const std::string &kind,
              bool golden)
    {
        close();
        auto s = std::make_unique<DirectSession>();
        s->kind = kind;
        s->user = std::move(user);
        s->watch = std::move(watch);
        opts.instrument.watchSignals = s->watch;
        if (kind == "fabric") {
            {
                Scope sp(_t, "core.instrument");
                s->meta = core::instrument(s->user, opts.instrument);
            }
            {
                Scope sp(_t, "toolchain.compile");
                zoomie::toolchain::VendorTool tool(opts.spec);
                tool.artifacts = &_artifacts;
                s->compiled = tool.compile(s->meta.design);
            }
            _c.modeledCompileS += s->compiled.time.total();
            _c.artifactHits += s->compiled.artifactHits;
            _c.artifactMisses += s->compiled.artifactMisses;
            {
                Scope sp(_t, "fpga.load", true);
                s->device =
                    std::make_unique<zoomie::fpga::Device>(opts.spec);
                s->host =
                    std::make_unique<zoomie::jtag::JtagHost>(*s->device);
                s->device->attach(s->compiled.netlist,
                                  s->compiled.placement);
                s->host->send(s->compiled.bitstream);
                s->device->bindClockGate(s->meta.gatedClock,
                                         "zoomie/clk_en");
            }
            _c.loadWords += s->words();
            {
                Scope sp(_t, "core.debugger");
                s->dbg = std::make_unique<core::Debugger>(
                    *s->device, *s->host, s->meta.design,
                    s->compiled.netlist, s->compiled.placement,
                    s->meta);
            }
            s->backend = std::make_unique<StagedFabric>(*s->device,
                                                        *s->dbg, s->meta);
        } else {
            Scope sp(_t, kind == "jit" ? "jit.compile" : "sim.compile");
            s->backend = core::makeBackend(kind, s->user, opts);
        }
        _s = std::move(s);
        uint64_t before = _s->words();
        std::optional<core::SnapshotInfo> genesis;
        {
            Scope sp(_t, "core.capture", _s->fabric());
            _s->snaps = std::make_unique<core::SnapshotStore>(*_s->backend);
            genesis = _s->snaps->capture(true);
        }
        _c.captureWordsRead += _s->words() - before;
        _c.fold(genesis->id);
        if (golden) {
            char hex[32];
            std::snprintf(hex, sizeof hex, "0x%016llx",
                          (unsigned long long)genesis->id);
            if (std::string(hex) != kServSocGenesis)
                _c.problem(std::string("genesis id ") + hex +
                           " differs from the golden");
            else
                ++_c.genesisChecks;
        }
        _lastCycle = 0;
        return true;
    }

    bool openSource(const Json &req)
    {
        zoomie::verilog::CompileResult result;
        {
            Scope sp(_t, "verilog.compile");
            zoomie::verilog::CompileOptions copts;
            copts.file = "<upload>";
            result = zoomie::verilog::compile(
                req.find("text")->asString(), copts);
        }
        if (!result.ok || !result.design)
            return false;
        zoomie::lint::RunMetrics metrics;
        size_t errors;
        {
            Scope sp(_t, "lint.run");
            zoomie::lint::Linter linter;
            errors = linter.run(*result.design, zoomie::lint::Options{},
                                &_lint, &metrics)
                         .errors();
        }
        _c.lintHits += metrics.cacheHits;
        _c.lintMisses += metrics.cacheMisses;
        if (errors > 0 || result.design->regs.empty())
            return false;
        core::PlatformOptions opts;
        opts.instrument.mutPrefix = "mut/";
        const rtl::Design &design = *result.design;
        std::vector<std::string> watch;
        for (const rtl::Reg &reg : design.regs) {
            watch.push_back(reg.name);
            if (watch.size() >= 4)
                break;
        }
        if (design.nodes.size() > 300 || !design.mems.empty()) {
            opts.spec.clbCols = 32;
            opts.spec.clbRows = 64;
            opts.spec.bramCols = 4;
        }
        const Json *backend = req.find("backend");
        return open(std::move(*result.design), std::move(opts),
                    std::move(watch),
                    backend ? backend->asString() : "fabric", false);
    }

  public:
    /** A GCAPTURE-only stream on the primary SLR of the open fabric
     *  session, timed alone. */
    void gcaptureProbe()
    {
        using namespace zoomie::bitstream;
        CommandBuilder cb;
        cb.sync().selectHop(0);
        cb.writeReg(ConfigReg::MASK, 0);
        cb.command(Command::GCapture);
        cb.desync();
        std::vector<uint32_t> words = cb.take();
        Scope sp(_t, "fpga.gcapture", true);
        _s->host->send(words);
    }

  private:
    uint64_t readReg(const std::string &name)
    {
        if (!_s->backend->hasRegister(name))
            throw std::runtime_error("unknown register " + name);
        uint64_t before = _s->words();
        uint64_t v;
        {
            Scope sp(_t, "core.read", _s->fabric());
            v = _s->backend->readRegister(name);
        }
        _c.readWords += _s->words() - before;
        _c.fold(v);
        return v;
    }

    bool exec(const Step &step, const std::string &cmd)
    {
        const Json &req = step.req;
        auto num = [&](const char *key) {
            return req.find(key)->asU64();
        };
        auto str = [&](const char *key) {
            return req.find(key)->asString();
        };
        if (cmd == "open") {
            core::PlatformOptions opts;
            std::vector<std::string> watch;
            if (const Json *w = req.find("watch"))
                for (const Json &item : w->items())
                    watch.push_back(item.asString());
            bool golden = str("design") == "serv_soc" && watch.empty() &&
                          str("backend") == "fabric";
            rtl::Design design = builtinDesign(str("design"), opts, watch);
            return open(std::move(design), std::move(opts),
                        std::move(watch), str("backend"), golden);
        }
        if (cmd == "open_source")
            return openSource(req);
        if (!_s)
            throw std::runtime_error("no session");
        core::Backend &b = *_s->backend;
        bool fab = _s->fabric();
        if (cmd == "close") {
            close();
            return true;
        }
        if (cmd == "print") {
            readReg(step.watch0 ? _s->watch[0] : str("name"));
        } else if (cmd == "regs" || cmd == "x") {
            uint64_t before = _s->words();
            Scope sp(_t, "core.read", fab);
            if (cmd == "regs") {
                for (const auto &[name, v] :
                     b.readAllRegisters(str("prefix")))
                    _c.fold(v);
            } else {
                _c.fold(b.readMemWord(str("name"), uint32_t(num("addr"))));
            }
            _c.readWords += _s->words() - before;
        } else if (cmd == "force" || cmd == "forcemem" || cmd == "poke") {
            uint64_t before = _s->words();
            Scope sp(_t, "core.write", fab);
            if (cmd == "force") {
                b.forceRegister(str("name"), num("value"));
            } else if (cmd == "forcemem") {
                b.forceMemWord(str("name"), uint32_t(num("addr")),
                               num("value"));
            } else {
                b.poke(str("name"), num("value"));
                _s->snaps->recordPoke(str("name"), num("value"));
            }
            _c.writeWords += _s->words() - before;
        } else if (cmd == "break") {
            Scope sp(_t, "core.control", fab);
            b.setValueBreakpoint(unsigned(num("slot")), num("value"),
                                 true, false);
            b.armTriggers(true, false);
        } else if (cmd == "clear") {
            Scope sp(_t, "core.control", fab);
            b.clearValueBreakpoints();
        } else if (cmd == "resume") {
            Scope sp(_t, "core.control", fab);
            b.resume();
        } else if (cmd == "step") {
            {
                Scope sp(_t, "core.control", fab);
                b.stepCycles(num("n"));
            }
            Scope sp(_t, runSpan(), fab);
            b.run(num("n") + 4);
            _c.runCycles[backendIdx()] += num("n") + 4;
        } else if (cmd == "run") {
            runQuanta(num("n"));
        } else if (cmd == "snapshot") {
            uint64_t before = _s->words();
            Scope sp(_t, "core.capture", fab);
            std::optional<core::SnapshotInfo> snap =
                _s->snaps->capture(true);
            if (!snap)
                throw std::runtime_error("snapshot overflow");
            _c.fold(snap->id);
            _c.captureWordsRead += _s->words() - before;
        } else if (cmd == "restore") {
            uint64_t back = uint64_t(step.cycleBack);
            uint64_t target = _lastCycle > back ? _lastCycle - back : 0;
            std::optional<core::TravelResult> r;
            {
                Scope sp(_t, "core.travel", fab);
                r = _s->snaps->travel(target);
            }
            if (!r)
                throw std::runtime_error("no snapshot covers the target");
            _c.replayed += r->replayed;
            _c.fold(r->from.id);
            _c.fold(r->cycle);
        } else if (cmd == "trace") {
            trace(num("n"), str("signals"));
        } else if (cmd != "info") {
            throw std::runtime_error("the direct replay has no " + cmd);
        }
        _lastCycle = b.mutCycles();
        return true;
    }

    void trace(uint64_t n, const std::string &signals)
    {
        zoomie::sim::Trace trace;
        size_t at = 0;
        while (at <= signals.size()) {
            size_t comma = signals.find(',', at);
            if (comma == std::string::npos)
                comma = signals.size();
            std::string name = signals.substr(at, comma - at);
            trace.addSignal(name, [this, name] { return readReg(name); });
            at = comma + 1;
        }
        for (uint64_t i = 0; i < n; ++i) {
            trace.sample();
            {
                Scope sp(_t, runSpan(), _s->fabric());
                _s->backend->run(1);
            }
            _c.runCycles[backendIdx()] += 1;
            autoTick();
        }
        Scope sp(_t, "sim.vcd_encode");
        uint64_t checksum = zoomie::kFnv1aBasis;
        zoomie::sim::VcdChunkWriter writer(
            [&](std::string_view chunk) {
                checksum = zoomie::fnv1a64(chunk.data(), chunk.size(),
                                           checksum);
            },
            trace.names(), zoomie::sim::vcdWidths(trace), "1ns",
            zoomie::rdp::Dispatcher::kDefaultTraceChunkBytes);
        std::vector<uint64_t> values(trace.signalCount());
        for (size_t t = 0; t < trace.length(); ++t) {
            for (size_t s = 0; s < values.size(); ++s)
                values[s] = trace.at(s, t);
            writer.appendSample(values);
        }
        writer.finish();
        _c.fold(checksum);
    }

    Tracer &_t;
    Counts &_c;
    zoomie::lint::AnalysisCache &_lint;
    zoomie::toolchain::ArtifactStore &_artifacts;
    std::unique_ptr<DirectSession> _s;
    uint64_t _lastCycle = 0;
};

/** Exact text of @p v ("%a"), for equality checks. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** One replay of the prefix rounds, round-robin over connections,
 *  against fresh caches. Returns the wall time in µs. */
double
directPass(Workload &w, uint64_t rounds, Tracer &t, Counts &c)
{
    zoomie::lint::AnalysisCache lint;
    zoomie::toolchain::ArtifactStore artifacts;
    std::vector<std::unique_ptr<DirectRunner>> runners;
    for (size_t i = 0; i < w.conns.size(); ++i)
        runners.push_back(
            std::make_unique<DirectRunner>(t, c, lint, artifacts));
    t.t0 = Clock::now();
    for (uint64_t r = 0; r < rounds; ++r)
        for (size_t i = 0; i < w.conns.size(); ++i)
            runners[i]->runSteps(w.conns[i]->round(r));
    for (size_t i = 0; i < w.conns.size(); ++i)
        runners[i]->runSteps(w.conns[i]->finish(rounds));
    double wall = t.now();
    runners.clear();
    return wall;
}

/** fpga.gcapture_ms: the median of 64 GCAPTURE-only streams on a
 *  fresh default serv_soc fabric session, timed after the replay so
 *  the probe adds nothing to its wall time or modeled counts. */
double
gcaptureMs()
{
    Tracer t;
    Counts c;
    zoomie::lint::AnalysisCache lint;
    zoomie::toolchain::ArtifactStore artifacts;
    DirectRunner runner(t, c, lint, artifacts);
    Step open;
    open.req = *Json::parse(
        R"({"cmd":"open","design":"serv_soc","backend":"fabric"})");
    runner.runSteps({open});
    if (c.failed)
        return 0;
    t.on = true;
    t.t0 = Clock::now();
    for (int i = 0; i < 64; ++i)
        runner.gcaptureProbe();
    std::vector<double> each;
    for (const Span &s : t.spans)
        each.push_back(s.end - s.start);
    return median(each) / 1000;
}

} // namespace

RunResult
runTraced(const TracedOptions &o)
{
    RunResult result;
    Corpus corpus;
    std::string error;
    if (!loadCorpus(o.corpusDir, corpus, error)) {
        result.correct = false;
        result.problems.push_back(error);
        return result;
    }
    std::unique_ptr<Workload> w = makeWorkload(o.workload, o.seed, corpus);
    // The traced replay runs a fixed number of rounds so its work
    // counts repeat exactly for a seed.
    uint64_t rounds = w->prefixRounds * 2;

    // A short warm-up pass, then untraced and traced passes in turn,
    // each against fresh caches. The fastest of each kind gives the
    // tracing overhead; the last traced pass gives the spans.
    Tracer warm;
    Counts warm_counts;
    directPass(*w, w->prefixRounds, warm, warm_counts);
    double wall_off = 0, wall_on = 0, wall_spans = 0;
    Counts quiet_counts, c;
    Tracer t;
    for (int pass = 0; pass < 2; ++pass) {
        Tracer quiet;
        quiet_counts = Counts{};
        double off = directPass(*w, rounds, quiet, quiet_counts);
        t = Tracer{};
        t.on = true;
        c = Counts{};
        double on = directPass(*w, rounds, t, c);
        wall_off = pass ? std::min(wall_off, off) : off;
        wall_on = pass ? std::min(wall_on, on) : on;
        wall_spans = on;  // shares are of the pass the spans came from
    }

    // The spans whose JTAG words the counts below record:
    // jtag.host_ns_per_word divides their time by those words.
    auto wordCounted = [](const std::string &name) {
        return name == "fpga.load" || name == "core.capture" ||
               name == "core.autosnap" || name == "core.read" ||
               name == "core.write";
    };

    // Self time and totals per span name; coverage of the request
    // spans' children over the pass wall time.
    struct Agg
    {
        uint64_t count = 0;
        double total = 0, self = 0;
        std::vector<double> each;
    };
    std::map<std::string, Agg> agg;
    std::vector<double> child(t.spans.size(), 0);
    for (const Span &s : t.spans)
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;
    double covered = 0, fabric = 0, sw_run = 0, jtag_us = 0;
    for (size_t i = 0; i < t.spans.size(); ++i) {
        const Span &s = t.spans[i];
        double d = s.end - s.start;
        Agg &a = agg[s.name];
        ++a.count;
        a.total += d;
        a.self += d - child[i];
        a.each.push_back(d);
        bool layer = s.parent >= 0 &&
                     std::string(t.spans[s.parent].name) == "request";
        if (layer)
            covered += d;
        if (s.fabric && layer)
            fabric += d;
        if (s.fabric && wordCounted(s.name))
            jtag_us += d;
        if (std::string(s.name) == "sim.run" ||
            std::string(s.name) == "jit.run")
            sw_run += d;
    }

    std::printf("# traced %s seed %llu: %llu rounds/conn, %zu spans, "
                "wall %.1f ms (untraced %.1f ms)\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                (unsigned long long)rounds, t.spans.size(),
                wall_on / 1000, wall_off / 1000);
    std::printf("# %-18s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, a] : agg)
        std::printf("# %-18s %8llu %12.3f %12.3f\n", name.c_str(),
                    (unsigned long long)a.count, a.total / 1000,
                    a.self / 1000);

    if (!o.spansFile.empty()) {
        std::ofstream out(o.spansFile);
        for (const Span &s : t.spans) {
            Json j = Json::object();
            j.set("name", s.name);
            j.set("start", s.start);
            j.set("end", s.end);
            j.set("parent", int64_t(s.parent));
            j.set("request", s.request);
            out << j.encode() << "\n";
        }
    }

    // The serving layer: the same script through an in-process
    // rdp::Server on loopback, then info round trips.
    ConnStats rdp;
    std::vector<double> rtt;
    {
        zoomie::rdp::Server server;
        zoomie::rdp::TcpServer tcp(server);
        if (!tcp.start(&error)) {
            result.correct = false;
            result.problems.push_back("rdp phase: " + error);
            return result;
        }
        std::unique_ptr<Workload> again =
            makeWorkload(o.workload, o.seed, corpus);
        std::vector<ConnStats> stats(again->conns.size());
        double seconds = std::clamp(o.seconds / 4, 1.0, 5.0);
        auto deadline = Clock::now() + std::chrono::microseconds(
                                           int64_t(seconds * 1e6));
        std::vector<std::thread> threads;
        for (size_t i = 0; i < again->conns.size(); ++i) {
            threads.emplace_back([&, i] {
                auto ch = connectLoopback(tcp.port());
                if (!ch) {
                    stats[i].problem("rdp phase: cannot connect");
                    ++stats[i].failed;
                    return;
                }
                ConnRunner runner(*ch, stats[i]);
                std::string hello;
                runner.call(*Json::parse(R"({"cmd":"hello","version":2})"),
                            hello);
                uint64_t r = 0;
                while (runner.alive() &&
                       (Clock::now() < deadline ||
                        r % again->conns[i]->blockRounds() != 0))
                    runner.runRound(again->conns[i]->round(r++));
                runner.runSteps(again->conns[i]->finish(stats[i].rounds));
                if (i != 0)
                    return;
                // Round trips of `info` on an idle jit session.
                Step open;
                open.req = *Json::parse(
                    R"({"cmd":"open","design":"counter","backend":"jit"})");
                open.opens = true;
                Step info;
                info.req = *Json::parse(R"({"cmd":"info"})");
                Step close;
                close.req = *Json::parse(R"({"cmd":"close"})");
                close.closes = true;
                runner.runSteps({open});
                std::vector<double> &other = stats[i].latencyMs[kOther];
                size_t from = other.size();
                runner.runSteps(std::vector<Step>(200, info));
                rtt.assign(other.begin() + long(from), other.end());
                runner.runSteps({close});
            });
        }
        for (std::thread &th : threads)
            th.join();
        tcp.stop();
        for (const ConnStats &s : stats)
            rdp.merge(s);
    }

    auto ms = [&](const char *name) {
        auto it = agg.find(name);
        return it == agg.end() ? 0.0 : median(it->second.each) / 1000;
    };
    auto ratio = [](uint64_t hit, uint64_t miss) {
        return hit + miss ? double(hit) / double(hit + miss) : 0.0;
    };
    auto rate = [&](const char *span, int idx) {
        auto it = agg.find(span);
        return it == agg.end() || it->second.total == 0
                   ? 0.0
                   : double(c.runCycles[idx]) / (it->second.total / 1e6);
    };
    uint64_t jtag_words = c.loadWords + c.captureWordsRead + c.readWords +
                          c.writeWords;
    double direct_jit = rate("jit.run", 2);
    double wire_jit = rdp.runMs[2] > 0
                          ? double(rdp.runCycles[2]) / (rdp.runMs[2] / 1e3)
                          : 0.0;
    result.metrics = {
        {"verilog.compile_ms", ms("verilog.compile"), "ms"},
        {"lint.run_ms", ms("lint.run"), "ms"},
        {"lint.cache_hit_ratio", ratio(c.lintHits, c.lintMisses), "ratio"},
        {"core.instrument_ms", ms("core.instrument"), "ms"},
        {"toolchain.compile_ms", ms("toolchain.compile"), "ms"},
        {"toolchain.artifact_hit_ratio",
         ratio(c.artifactHits, c.artifactMisses), "ratio"},
        {"toolchain.modeled_compile_s", c.modeledCompileS, "model_s"},
        {"jit.compile_ms", ms("jit.compile"), "ms"},
        {"fpga.load_ms", ms("fpga.load"), "ms"},
        {"jtag.words_sent", double(c.loadWords), "count"},
        {"core.capture_ms", ms("core.capture"), "ms"},
        {"core.capture_words_read", double(c.captureWordsRead), "count"},
        {"fpga.gcapture_ms", gcaptureMs(), "ms"},
        {"core.read_ms", ms("core.read"), "ms"},
        {"core.read_words", double(c.readWords), "count"},
        {"core.write_ms", ms("core.write"), "ms"},
        {"core.write_words", double(c.writeWords), "count"},
        {"core.travel_ms", ms("core.travel"), "ms"},
        {"core.replayed_cycles", double(c.replayed), "count"},
        {"jtag.host_ns_per_word",
         jtag_words ? jtag_us * 1000 / double(jtag_words) : 0.0,
         "ns/word"},
        {"jtag.modeled_s", c.jtagModeledS, "model_s"},
        {"fpga.cycles_per_s", rate("fpga.run", 0), "1/s"},
        {"sim.cycles_per_s", rate("sim.run", 1), "1/s"},
        {"jit.cycles_per_s", direct_jit, "1/s"},
        {"rdp.sched_efficiency",
         direct_jit > 0 ? wire_jit / direct_jit : 0.0, "ratio"},
        {"rdp.queue_wait_ms", median(rdp.queueWaitMs), "ms"},
        {"rdp.decode_us", median(rdp.decodeUs), "us"},
        {"rdp.encode_us", median(rdp.encodeUs), "us"},
        {"rdp.wire_rtt_us", median(rtt) * 1000, "us"},
        {"sim.vcd_encode_ms", ms("sim.vcd_encode"), "ms"},
        {"trace.coverage",
         wall_spans > 0 ? covered / wall_spans : 0.0, "ratio"},
        {"trace.overhead_pct",
         wall_off > 0 ? (wall_on - wall_off) / wall_off * 100 : 0.0, "%"},
        {"trace.fabric_share",
         wall_spans > 0 ? fabric / wall_spans : 0.0, "ratio"},
        {"trace.sw_run_share",
         wall_spans > 0 ? sw_run / wall_spans : 0.0, "ratio"},
    };

    result.attempted = c.attempted + rdp.attempted;
    result.failed = c.failed + rdp.failed;
    result.problems = c.problems;
    for (const std::string &p : rdp.problems)
        result.problems.push_back("rdp phase: " + p);
    // The modeled counts and observed values of the traced pass
    // must equal the untraced pass's and, for a seed with checked-in
    // expected values, those.
    auto counts = [](const Counts &k) {
        Json j = Json::object();
        j.set("jtag.words_sent", k.loadWords);
        j.set("core.capture_words_read", k.captureWordsRead);
        j.set("core.read_words", k.readWords);
        j.set("core.write_words", k.writeWords);
        j.set("core.replayed_cycles", k.replayed);
        j.set("jtag.modeled_s", hexDouble(k.jtagModeledS));
        j.set("toolchain.modeled_compile_s",
              hexDouble(k.modeledCompileS));
        j.set("genesis_checks", k.genesisChecks);
        j.set("values_digest", hex64(k.valuesDigest));
        return j;
    };
    Json got = counts(c);
    if (quiet_counts.failed || counts(quiet_counts).encode() != got.encode()) {
        result.correct = false;
        result.problems.push_back(
            "traced and untraced replays disagree on modeled counts");
    }
    Json golden = loadGolden(o.goldenFile, o.workload, o.seed);
    const Json *expect = golden.isObject() ? golden.find("counts")
                                           : nullptr;
    if (expect && expect->encode() != got.encode()) {
        result.correct = false;
        result.problems.push_back("modeled counts differ from the "
                                  "expected values: " + got.encode());
    }
    Json dump = Json::object();
    dump.set("counts", std::move(got));
    std::printf("# golden %s\n", dump.encode().c_str());
    std::printf("# expected values for this seed: %s\n",
                expect ? "checked" : "none checked in");
    return result;
}

} // namespace tb
