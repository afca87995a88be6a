#include "wire.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common/bits.hh"
#include "rdp/server.hh"

extern char **environ;

namespace tb {

using zoomie::rdp::Json;
using Clock = std::chrono::steady_clock;

namespace {

/** Fresh server processes a run is split over; each bring-up is one
 *  setup_s sample. */
constexpr int kSegments = 16;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

int
backendIndex(Cls cls)
{
    switch (cls) {
      case kRunFabric: return 0;
      case kRunSim: return 1;
      case kRunJit: return 2;
      default: return -1;
    }
}

uint64_t
foldLine(uint64_t digest, const std::string &line)
{
    digest = zoomie::fnv1a64(line.data(), line.size(), digest);
    return zoomie::fnv1a64("\n", 1, digest);
}

// ---- channels ---------------------------------------------------------

/** Loopback TCP with a read buffer. */
class TcpChannel : public Channel
{
  public:
    ~TcpChannel() override
    {
        if (_fd >= 0)
            ::close(_fd);
    }

    bool connect(uint16_t port)
    {
        _fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_fd < 0)
            return false;
        int one = 1;
        ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        return ::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    bool send(const std::string &line) override
    {
        std::string data = line + "\n";
        size_t at = 0;
        while (at < data.size()) {
            ssize_t n = ::send(_fd, data.data() + at, data.size() - at,
                               MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            at += size_t(n);
        }
        return true;
    }

    bool recv(std::string &line, int timeout_ms) override
    {
        auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        while (true) {
            size_t nl = _buf.find('\n', _scan);
            if (nl != std::string::npos) {
                line.assign(_buf, 0, nl);
                _buf.erase(0, nl + 1);
                _scan = 0;
                return true;
            }
            _scan = _buf.size();
            int left = int(std::chrono::duration_cast<
                               std::chrono::milliseconds>(
                               deadline - Clock::now())
                               .count());
            if (left <= 0)
                return false;
            pollfd p{_fd, POLLIN, 0};
            if (::poll(&p, 1, left) <= 0)
                return false;
            char chunk[65536];
            ssize_t n = ::recv(_fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return false;
            // Acknowledge at once (Linux turns quick ACKs off again
            // by itself, so this is repeated after every read): the
            // server writes a reply in several small segments without
            // TCP_NODELAY, and a delayed ACK would hold the later ones
            // for a kernel timer (40 ms or more) instead of the
            // server's own work.
            int one = 1;
            ::setsockopt(_fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
            _buf.append(chunk, size_t(n));
        }
    }

  private:
    int _fd = -1;
    std::string _buf;
    size_t _scan = 0;
};

/** The client end of an in-process rdp::DuplexPipe. */
class PipeChannel : public Channel
{
  public:
    explicit PipeChannel(zoomie::rdp::Transport &end) : _end(end) {}
    bool send(const std::string &line) override
    {
        _end.writeLine(line);
        return true;
    }
    bool recv(std::string &line, int) override
    {
        return _end.readLine(line);
    }

  private:
    zoomie::rdp::Transport &_end;
};

// ---- the child server -----------------------------------------------------

/** zoomie_server --listen 0 as a child; stderr drained. */
class ChildServer
{
  public:
    ~ChildServer() { stop(); }

    bool start(const std::string &binary, std::string &error)
    {
        int err_pipe[2];
        if (::pipe(err_pipe) != 0) {
            error = "pipe failed";
            return false;
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
        posix_spawn_file_actions_addclose(&actions, err_pipe[0]);
        posix_spawn_file_actions_addclose(&actions, err_pipe[1]);
        std::vector<std::string> args = {binary, "--listen", "0"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int rc = posix_spawn(&_pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(err_pipe[1]);
        if (rc != 0) {
            ::close(err_pipe[0]);
            _pid = -1;
            error = "cannot start " + binary + ": " + std::strerror(rc);
            return false;
        }
        _err = err_pipe[0];

        // The banner names the ephemeral port: "... on ADDR:PORT (".
        std::string banner;
        auto deadline = Clock::now() + std::chrono::seconds(30);
        while (banner.find('\n') == std::string::npos &&
               Clock::now() < deadline) {
            pollfd p{_err, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char c;
            if (::read(_err, &c, 1) != 1)
                break;
            banner += c;
        }
        size_t at = banner.find(" on ");
        size_t colon = at == std::string::npos
                           ? at
                           : banner.find(':', at);
        if (colon == std::string::npos) {
            error = "no listen banner from server: " + banner;
            return false;
        }
        _port = uint16_t(std::atoi(banner.c_str() + colon + 1));
        _drain = std::thread([fd = _err] {
            char buf[4096];
            while (::read(fd, buf, sizeof buf) > 0) {
            }
        });
        return _port != 0;
    }

    uint16_t port() const { return _port; }

    /** VmHWM of the child in MB (0 if unreadable). */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(_pid) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::atof(line.c_str() + 6) / 1024.0;
        }
        return 0;
    }

    /** True while the child has not exited. */
    bool running()
    {
        if (_pid <= 0)
            return false;
        int status;
        pid_t r = ::waitpid(_pid, &status, WNOHANG);
        if (r == _pid) {
            _pid = -1;
            return false;
        }
        return true;
    }

    /** Ask for shutdown over TCP, then reap (SIGKILL after 10 s). */
    void stop()
    {
        if (_pid > 0) {
            if (_port) {
                TcpChannel ch;
                if (ch.connect(_port) &&
                    ch.send(R"({"cmd":"hello","version":2})") &&
                    ch.send(R"({"cmd":"shutdown"})")) {
                    std::string line;
                    ch.recv(line, 2000);
                }
            }
            auto deadline = Clock::now() + std::chrono::seconds(10);
            while (running() && Clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (_pid > 0) {
                ::kill(_pid, SIGKILL);
                int status;
                ::waitpid(_pid, &status, 0);
                _pid = -1;
            }
        }
        if (_drain.joinable())
            _drain.join();
        if (_err >= 0) {
            ::close(_err);
            _err = -1;
        }
    }

  private:
    pid_t _pid = -1;
    int _err = -1;
    uint16_t _port = 0;
    std::thread _drain;
};

/** Warm-up opens: every design/backend pair the scripts use. */
std::vector<Step>
warmupSteps()
{
    std::vector<Step> out;
    const std::pair<const char *, const char *> pairs[] = {
        {"counter", "fabric"}, {"serv_soc", "fabric"},
        {"tinyrv", "fabric"},  {"serv_soc", "jit"},
        {"serv_soc", "sim"}};
    for (const auto &[design, backend] : pairs) {
        Step open;
        open.req = Json::object();
        open.req.set("cmd", "open");
        open.req.set("design", design);
        open.req.set("backend", backend);
        open.opens = true;
        out.push_back(std::move(open));
        Step close;
        close.req = Json::object();
        close.req.set("cmd", "close");
        close.closes = true;
        out.push_back(std::move(close));
    }
    return out;
}

/** One bring-up of the server plus its connections. */
struct Bringup
{
    std::unique_ptr<ChildServer> server;
    std::vector<std::unique_ptr<TcpChannel>> channels;
    Corpus corpus;
};

bool
bringUp(const WireOptions &o, size_t conns, Bringup &b,
        std::string &error)
{
    b.server = std::make_unique<ChildServer>();
    if (!b.server->start(o.server, error))
        return false;
    for (size_t i = 0; i < conns; ++i) {
        auto ch = std::make_unique<TcpChannel>();
        if (!ch->connect(b.server->port())) {
            error = "cannot connect to the server";
            return false;
        }
        std::string reply;
        if (!ch->send(R"({"cmd":"hello","version":2})") ||
            !ch->recv(reply, ConnRunner::kTimeoutMs)) {
            error = "no hello reply";
            return false;
        }
        b.channels.push_back(std::move(ch));
    }
    if (!loadCorpus(o.corpusDir, b.corpus, error))
        return false;
    ConnStats warm;
    ConnRunner runner(*b.channels[0], warm);
    if (!runner.runSteps(warmupSteps()) || warm.failed) {
        error = "warm-up opens failed";
        for (const std::string &p : warm.problems)
            error += "; " + p;
        return false;
    }
    return true;
}

/** Wall time of a fixed integer loop that touches no part of the
 *  program: a report-only gauge of the host's speed at the time. */
double
hostLoopMs()
{
    auto t0 = Clock::now();
    volatile uint64_t sink = 0;
    uint64_t x = 1;
    for (int i = 0; i < 5'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sink = x;
    (void)sink;
    return msSince(t0);
}

struct LatencyMetric
{
    const char *name;
    Cls cls;
    double q;
};

const LatencyMetric kLatencyMetrics[] = {
    {"open_p50_ms", kOpen, 0.5},       {"inspect_p50_ms", kInspect, 0.5},
    {"mutate_p50_ms", kMutate, 0.5},   {"travel_p50_ms", kTravel, 0.5},
    {"short_run_p50_ms", kShortRun, 0.5},
};

/** (steal, total) jiffies of all CPUs from /proc/stat; zeros where
 *  the file is missing. */
std::pair<uint64_t, uint64_t>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    uint64_t total = 0, steal = 0, v;
    for (int i = 0; i < 8 && in >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

/** The rates of @p st, NaN where it has no samples. */
std::vector<Metric>
rateMetrics(const ConnStats &st)
{
    auto rate = [&](uint64_t n, double ms) {
        return ms > 0 ? double(n) / (ms / 1000.0) : std::nan("");
    };
    return {
        {"trace_samples_per_s", rate(st.traceSamples, st.traceMs), "1/s"},
        {"fabric_cycles_per_s", rate(st.runCycles[0], st.runMs[0]), "1/s"},
        {"sim_cycles_per_s", rate(st.runCycles[1], st.runMs[1]), "1/s"},
        {"jit_cycles_per_s", rate(st.runCycles[2], st.runMs[2]), "1/s"},
    };
}

} // namespace

// ---- shared helpers -----------------------------------------------------

std::unique_ptr<Channel>
connectLoopback(uint16_t port)
{
    auto ch = std::make_unique<TcpChannel>();
    if (!ch->connect(port))
        return nullptr;
    return ch;
}

void
ConnStats::merge(const ConnStats &o)
{
    for (int c = 0; c < kNumCls; ++c) {
        latencyMs[c].insert(latencyMs[c].end(), o.latencyMs[c].begin(),
                            o.latencyMs[c].end());
        for (const auto &[name, v] : o.strata[c])
            strata[c][name].insert(strata[c][name].end(), v.begin(),
                                   v.end());
    }
    for (int b = 0; b < 3; ++b) {
        runCycles[b] += o.runCycles[b];
        runMs[b] += o.runMs[b];
    }
    traceSamples += o.traceSamples;
    traceMs += o.traceMs;
    queueWaitMs.insert(queueWaitMs.end(), o.queueWaitMs.begin(),
                       o.queueWaitMs.end());
    decodeUs.insert(decodeUs.end(), o.decodeUs.begin(),
                    o.decodeUs.end());
    encodeUs.insert(encodeUs.end(), o.encodeUs.begin(),
                    o.encodeUs.end());
    attempted += o.attempted;
    failed += o.failed;
    rounds += o.rounds;
    genesisChecks += o.genesisChecks;
    for (const std::string &p : o.problems)
        problem(p);
}

void
ConnStats::problem(std::string text)
{
    if (problems.size() < 8)
        problems.push_back(std::move(text));
}

Json
scrub(const Json &v)
{
    if (v.isArray()) {
        Json out = Json::array();
        for (const Json &item : v.items())
            out.push(scrub(item));
        return out;
    }
    if (!v.isObject())
        return v;
    Json out = Json::object();
    for (const auto &[key, value] : v.members()) {
        if (key == "queue_wait_us" || key == "lint_cache_hits" ||
            key == "lint_cache_misses" || key == "artifact_hits" ||
            key == "artifact_misses" || key == "session" || key == "id")
            continue;
        out.set(key, scrub(value));
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double
blendedPercentile(const std::map<std::string, std::vector<double>> &strata,
                  double q)
{
    double sum = 0;
    size_t n = 0;
    for (const auto &[name, v] : strata) {
        sum += double(v.size()) * percentile(v, q);
        n += v.size();
    }
    return n ? sum / double(n) : std::nan("");
}

std::string
hex64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
    return buf;
}

Json
loadGolden(const std::string &file, const std::string &workload,
           uint64_t seed)
{
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<Json> all = Json::parse(text.str());
    const Json *w = all && all->isObject() ? all->find(workload) : nullptr;
    const Json *entry = w ? w->find(std::to_string(seed)) : nullptr;
    return entry ? *entry : Json();
}

// ---- ConnRunner -------------------------------------------------------------

bool
ConnRunner::call(const Json &req, std::string &reply)
{
    return _ch.send(req.encode()) && _ch.recv(reply, kTimeoutMs);
}

bool
ConnRunner::runAll(const std::vector<Step> &steps, uint64_t &digest)
{
    digest = zoomie::kFnv1aBasis;
    for (const Step &step : steps) {
        if (!exec(step, digest))
            return false;
    }
    return true;
}

bool
ConnRunner::runSteps(const std::vector<Step> &steps)
{
    uint64_t digest;
    return runAll(steps, digest);
}

bool
ConnRunner::runRound(const std::vector<Step> &steps)
{
    uint64_t digest;
    if (!runAll(steps, digest))
        return false;
    _stats.roundDigests.push_back(digest);
    ++_stats.rounds;
    return true;
}

bool
ConnRunner::exec(const Step &step, uint64_t &digest)
{
    if (!_alive)
        return false;
    Json req = step.req;
    const std::string &cmd = req.find("cmd")->asString();
    if (step.watch0)
        req.set("name", _watch0);
    uint64_t target = 0;
    if (step.cycleBack >= 0) {
        target = _lastCycle > uint64_t(step.cycleBack)
                     ? _lastCycle - uint64_t(step.cycleBack)
                     : 0;
        req.set("cycle", target);
    }
    if (_haveSession && !step.opens)
        req.set("session", _session);
    req.set("id", _nextId++);

    auto te = Clock::now();
    std::string line = req.encode();
    double encode_us = msSince(te) * 1000.0;
    ++_stats.attempted;
    auto t0 = Clock::now();
    if (!_ch.send(line)) {
        ++_stats.failed;
        _stats.problem(cmd + ": connection dropped on send");
        _alive = false;
        return false;
    }

    // Events precede the reply; a streamed trace arrives as ordered
    // trace_chunk events sealed by trace_done.
    uint64_t chunk_seq = 0;
    uint64_t checksum = zoomie::kFnv1aBasis;
    std::string stream_problem;
    std::optional<Json> reply;
    double decode_us = 0;
    while (!reply) {
        std::string in;
        if (!_ch.recv(in, kTimeoutMs)) {
            ++_stats.failed;
            _stats.problem(cmd + ": no reply (timeout or dropped "
                                 "connection)");
            _alive = false;
            return false;
        }
        auto td = Clock::now();
        std::optional<Json> msg = Json::parse(in);
        decode_us += msSince(td) * 1000.0;
        if (!msg || !msg->isObject()) {
            stream_problem = "unparseable line";
            continue;
        }
        const Json *type = msg->find("type");
        std::string kind = type && type->isString() ? type->asString()
                                                    : "";
        if (kind == "trace_chunk") {
            const Json *seq = msg->find("seq");
            const Json *data = msg->find("data");
            if (!seq || seq->asU64() != chunk_seq++ || !data)
                stream_problem = "trace chunks out of order";
            else
                checksum = zoomie::fnv1a64(data->asString().data(),
                                           data->asString().size(),
                                           checksum);
        } else if (kind == "trace_done") {
            const Json *sum = msg->find("checksum");
            char hex[32];
            std::snprintf(hex, sizeof hex, "0x%016llx",
                          (unsigned long long)checksum);
            if (!sum || sum->asString() != hex)
                stream_problem = "trace checksum mismatch";
            const Json *samples = msg->find("samples");
            const Json *n = req.find("n");
            if (!samples || !n || samples->asU64() != n->asU64())
                stream_problem = "trace sample count mismatch";
        }
        if (kind == "reply")
            reply = std::move(msg);
        digest = foldLine(digest, scrub(reply ? *reply : *msg).encode());
    }
    double ms = msSince(t0);
    _stats.decodeUs.push_back(decode_us);
    _stats.encodeUs.push_back(encode_us);

    const Json *ok = reply->find("ok");
    bool is_ok = ok && ok->isBool() && ok->asBool();
    const Json *error = reply->find("error");
    std::string err = error && error->isString() ? error->asString() : "";
    std::string problem;
    if (step.expectError.empty() && !is_ok)
        problem = "unexpected error " + err;
    else if (!step.expectError.empty() &&
             (is_ok || err != step.expectError))
        problem = "expected " + step.expectError + ", got " +
                  (is_ok ? "ok" : err);
    else if (!stream_problem.empty())
        problem = stream_problem;
    if (is_ok && step.cycleBack >= 0) {
        const Json *cycle = reply->find("cycle");
        if (!cycle || cycle->asU64() != target)
            problem = "restore landed off target";
    }
    if (is_ok && !step.expectSnapshot.empty()) {
        const Json *snap = reply->find("snapshot");
        const Json *id = snap ? snap->find("id") : nullptr;
        if (!id || id->asString() != step.expectSnapshot)
            problem = "snapshot id differs from the golden " +
                      step.expectSnapshot;
        else
            ++_stats.genesisChecks;
    }
    if (!problem.empty()) {
        ++_stats.failed;
        _stats.problem(cmd + ": " + problem);
        return true;
    }

    if (const Json *cycle = reply->find("cycle"))
        _lastCycle = cycle->asU64();
    if (step.opens && is_ok) {
        _haveSession = true;
        _session = reply->find("session")->asU64();
        const Json *watch = reply->find("watch");
        _watch0 = watch && watch->size() ? watch->at(0).asString() : "";
        _lastCycle = 0;
    }
    if (step.closes)
        _haveSession = false;

    if (!step.expectError.empty())
        return true;
    _stats.latencyMs[step.cls].push_back(ms);
    _stats.strata[step.cls][step.stratum].push_back(ms);
    // Short runs have their own latency metrics; the cycle rates
    // rest on the longer runs only.
    if (int b = backendIndex(step.cls); b >= 0) {
        const Json *run = reply->find("cycles_run");
        _stats.runCycles[b] += run ? run->asU64() : 0;
        _stats.runMs[b] += ms;
    }
    if (backendIndex(step.cls) >= 0 || step.cls == kShortRun) {
        if (const Json *wait = reply->find("queue_wait_us"))
            _stats.queueWaitMs.push_back(double(wait->asU64()) / 1000.0);
    }
    if (step.cls == kTrace) {
        const Json *samples = reply->find("samples");
        _stats.traceSamples += samples ? samples->asU64() : 0;
        _stats.traceMs += ms;
    }
    return true;
}

// ---- reference replay ---------------------------------------------------------

bool
referenceDigests(Workload &workload, const std::vector<uint64_t> &rounds,
                 std::vector<ConnStats> &out)
{
    zoomie::rdp::Server server;
    out.assign(workload.conns.size(), ConnStats{});
    bool ok = true;
    for (size_t c = 0; c < workload.conns.size(); ++c) {
        zoomie::rdp::DuplexPipe pipe;
        std::thread serve([&] { server.serve(pipe.serverEnd()); });
        PipeChannel ch(pipe.clientEnd());
        ConnRunner runner(ch, out[c]);
        std::string hello;
        ok = ok && runner.call(Json::parse(
                                   R"({"cmd":"hello","version":2})")
                                   .value(),
                               hello);
        for (uint64_t r = 0; r < rounds[c] && runner.alive(); ++r)
            runner.runRound(workload.conns[c]->round(r));
        runner.runSteps(workload.conns[c]->finish(rounds[c]));
        pipe.closeFromClient();
        serve.join();
        ok = ok && out[c].failed == 0;
    }
    return ok;
}

// ---- the untraced run ---------------------------------------------------------

RunResult
runWire(const WireOptions &o)
{
    RunResult result;
    auto fail = [&](std::string why) {
        result.correct = false;
        result.problems.push_back(std::move(why));
        return result;
    };

    Corpus probe;
    std::string error;
    if (!loadCorpus(o.corpusDir, probe, error))
        return fail(error);
    size_t conns = makeWorkload(o.workload, o.seed, probe)->conns.size();

    // The run is cut into segments, each against a fresh server
    // process: per-process effects (code placement, thread
    // placement) average out over the segments instead of shifting
    // a whole run. Each segment's bring-up (spawn, connect, hello,
    // corpus load, warm-up opens) is one set-up sample, and each
    // segment replays its own seeded script from round 0.
    std::vector<double> setups;
    std::vector<double> rss;
    std::vector<double> hostLoop;
    std::vector<ConnStats> segments;
    std::vector<double> steal;     // % of CPU time, per segment
    ConnStats all;
    std::vector<ConnStats> first;  // segment 0, for the digest check
    Corpus corpus;
    Clock::duration loadTime{};  // under load, over all segments
    for (int seg = 0; seg < kSegments; ++seg) {
        hostLoop.push_back(hostLoopMs());
        auto jiffies0 = cpuJiffies();
        Bringup live;
        auto t0 = Clock::now();
        if (!bringUp(o, conns, live, error))
            return fail("set-up: " + error);
        setups.push_back(msSince(t0) / 1000.0);
        std::unique_ptr<Workload> workload = makeWorkload(
            o.workload, mix(o.seed, uint64_t(seg)), live.corpus);

        // One closed-loop thread per connection, whole rounds
        // until the segment's deadline. Deadlines are fixed shares
        // of the run's time under load, so a segment that ran past
        // its share (to finish a block) shortens the next one.
        std::vector<ConnStats> stats(conns);
        auto start = Clock::now();
        auto deadline =
            start - loadTime +
            std::chrono::microseconds(int64_t(o.seconds * 1e6 *
                                              (seg + 1) / kSegments));
        // Connections with multi-round blocks finish their block;
        // the others keep the load on until they have.
        std::atomic<size_t> blocky = 0;
        for (size_t c = 0; c < conns; ++c)
            blocky += workload->conns[c]->blockRounds() > 1;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                ConnRunner runner(*live.channels[c], stats[c]);
                ConnScript &script = *workload->conns[c];
                uint64_t block = script.blockRounds();
                uint64_t r = 0;
                auto more = [&] {
                    if (r == 0 || Clock::now() < deadline)
                        return true;
                    return block > 1 ? r % block != 0 : blocky > 0;
                };
                while (runner.alive() && more())
                    runner.runRound(script.round(r++));
                if (block > 1)
                    --blocky;
                if (runner.alive())
                    runner.runSteps(script.finish(stats[c].rounds));
            });
        }
        for (std::thread &t : threads)
            t.join();
        loadTime += Clock::now() - start;
        auto jiffies1 = cpuJiffies();
        steal.push_back(jiffies1.second > jiffies0.second
                            ? 100.0 *
                                  double(jiffies1.first - jiffies0.first) /
                                  double(jiffies1.second - jiffies0.second)
                            : 0.0);

        rss.push_back(live.server->peakRssMb());
        bool server_alive = live.server->running();
        live.channels.clear();
        live.server->stop();
        if (!server_alive)
            return fail("the server exited during the run");
        ConnStats segment;
        for (const ConnStats &st : stats)
            segment.merge(st);
        all.merge(segment);
        segments.push_back(std::move(segment));
        if (seg == 0) {
            first = std::move(stats);
            corpus = live.corpus;
        }
    }

    // The host of a shared machine withholds CPU time in bursts of
    // seconds (steal), and every figure degrades with it: sub-ms
    // latencies and their tails most. The figures, set-up included,
    // are therefore taken over the quieter half of the segments,
    // ranked by steal alone, never by the figures themselves.
    std::vector<size_t> order(segments.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return steal[a] < steal[b];
    });
    order.resize((order.size() + 1) / 2);
    std::sort(order.begin(), order.end());
    ConnStats measured;
    std::vector<double> measuredSetups;
    for (size_t i : order) {
        measured.merge(segments[i]);
        measuredSetups.push_back(setups[i]);
    }
    for (size_t i = 0; i < segments.size(); ++i) {
        bool used = std::binary_search(order.begin(), order.end(), i);
        std::printf("# segment %zu steal=%.2f%% %s", i, steal[i],
                    used ? "measured:" : "skipped: ");
        for (const auto &[name, cls, q] : kLatencyMetrics)
            std::printf(" %s=%.4g", name,
                        blendedPercentile(segments[i].strata[cls], q));
        for (const Metric &m : rateMetrics(segments[i]))
            std::printf(" %s=%.4g", m.name.c_str(), m.value);
        std::printf("\n");
    }
    result.attempted = all.attempted;
    result.failed = all.failed;
    result.problems = all.problems;

    // Correctness: the replies of each connection's first rounds
    // must hash exactly like a serial in-process replay of the
    // reference prefix, and for a seed with checked-in expected
    // values the replay must reproduce those.
    std::unique_ptr<Workload> again =
        makeWorkload(o.workload, mix(o.seed, 0), corpus);
    std::vector<uint64_t> rounds(conns, again->prefixRounds);
    std::vector<ConnStats> ref;
    if (!referenceDigests(*again, rounds, ref)) {
        result.correct = false;
        result.problems.push_back("reference replay failed");
        for (const ConnStats &st : ref)
            for (const std::string &p : st.problems)
                result.problems.push_back("reference: " + p);
    }
    auto mismatch = [&](const char *what, size_t c, size_t r) {
        result.correct = false;
        result.problems.push_back(std::string(what) + ": connection " +
                                  std::to_string(c) + " round " +
                                  std::to_string(r) +
                                  " reply digest mismatch");
    };
    Json golden = loadGolden(o.goldenFile, o.workload, o.seed);
    const Json *expect = golden.isObject() ? golden.find("digests")
                                           : nullptr;
    Json digests = Json::array();
    for (size_t c = 0; c < conns; ++c) {
        const std::vector<uint64_t> &got = ref[c].roundDigests;
        Json list = Json::array();
        for (uint64_t d : got)
            list.push(hex64(d));
        digests.push(std::move(list));
        size_t live = std::min(got.size(), first[c].roundDigests.size());
        for (size_t r = 0; r < live; ++r) {
            if (got[r] != first[c].roundDigests[r]) {
                mismatch("wire vs replay", c, r);
                break;
            }
        }
        if (!expect)
            continue;
        const Json *want = c < expect->size() ? &expect->at(c) : nullptr;
        for (size_t r = 0; r < again->prefixRounds; ++r) {
            if (!want || r >= got.size() || r >= want->size() ||
                want->at(r).asString() != hex64(got[r])) {
                mismatch("replay vs golden", c, r);
                break;
            }
        }
    }
    Json dump = Json::object();
    dump.set("digests", std::move(digests));
    std::printf("# golden %s\n", dump.encode().c_str());
    std::printf("# expected values for this seed: %s\n",
                expect ? "checked" : "none checked in");

    // Percentiles pool each stratum's samples over the measured
    // segments; rates are their total work over total time.
    auto pct = [&](Cls cls, double q) {
        return blendedPercentile(measured.strata[cls], q);
    };
    result.metrics = {
        {"setup_s", median(measuredSetups), "s"},
        {"server_peak_rss_mb", median(rss), "MB"},
    };
    for (const auto &[name, cls, q] : kLatencyMetrics)
        result.metrics.push_back({name, pct(cls, q), "ms"});
    for (const Metric &m : rateMetrics(measured))
        result.metrics.push_back(m);
    for (Metric &m : result.metrics) {
        if (std::isnan(m.value)) {
            result.correct = false;
            result.problems.push_back("no samples for " + m.name);
            m.value = 0;
        }
    }
    for (int c = 0; c < kNumCls; ++c)
        for (const auto &[name, v] : measured.strata[c])
            std::printf("# stratum %-10s %-32s n=%-6zu p50=%.3f "
                        "p90=%.3f ms\n",
                        clsName(Cls(c)), name.c_str(), v.size(),
                        percentile(v, 0.5), percentile(v, 0.9));
    std::printf("# host_loop_ms %.3f (median over segments of a fixed "
                "integer loop; host speed, not a metric)\n",
                median(hostLoop));
    std::vector<double> quiet;
    for (size_t i : order)
        quiet.push_back(steal[i]);
    std::printf("# host_steal_pct %.3f (median over segments of the CPU "
                "time the host withheld; %.3f over the measured ones)\n",
                median(steal), median(quiet));
    const auto &lat = all.latencyMs;
    std::printf("# %s seed %llu: %llu rounds, %llu genesis checks, "
                "samples/time:",
                o.workload.c_str(), (unsigned long long)o.seed,
                (unsigned long long)all.rounds,
                (unsigned long long)all.genesisChecks);
    for (int c = 0; c < kNumCls; ++c) {
        double total = 0;
        for (double v : lat[c])
            total += v;
        std::printf(" %s=%zu/%.2fs", clsName(Cls(c)), lat[c].size(),
                    total / 1000);
    }
    std::printf("\n");
    return result;
}

} // namespace tb
