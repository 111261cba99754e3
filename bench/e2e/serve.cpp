#include "serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "child.h"
#include "inputs.h"
#include "pipeline.h"
#include "service/plan_service.h"
#include "service/protocol.h"
#include "span_trace.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace accpar::bench {

namespace {

constexpr std::size_t kConnections = 4;
/**
 * Phase 1's offered rate in requests per second. Phase 2 saturates
 * near 1300 on the seed commit (4-core x86-64 VM). Offered at half of
 * saturation, the p90, which then queues behind misses, swung 2x
 * between identical runs on that host; at about a ninth queueing stays
 * small and the latency is the service's own.
 */
constexpr double kOfferedRate = 150.0;
/** Share of --seconds given to phase 1. */
constexpr double kPhaseOneShare = 0.75;
/**
 * Phase 2's requests per second of the rest of --seconds: about what
 * the seed commit saturates at, so phase 2 takes about that long there.
 * A fixed amount of work rather than a fixed window: in a window a
 * faster server gets further into the stream, caches more tail keys
 * and speeds up further, which amplifies the host's own speed changes.
 */
constexpr double kPhaseTwoRate = 1400.0;
/** Share of the phase-1 stream the traced run replays in-process. */
constexpr double kLoopbackShare = 0.25;
/** Most missed plan keys the traced run replays decomposed. */
constexpr std::size_t kMissReplay = 48;
/** A phase fails when no response arrives for this long. */
constexpr double kStallSeconds = 60.0;

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** One non-blocking client connection speaking the line protocol. */
class Connection
{
  public:
    explicit Connection(int port)
    {
        _fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_fd < 0)
            throw util::ConfigError(std::string("socket: ") +
                                    std::strerror(errno));
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(_fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int error = errno;
            ::close(_fd);
            throw util::ConfigError(std::string("connect: ") +
                                    std::strerror(error));
        }
        const int one = 1;
        ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(_fd, F_SETFL, ::fcntl(_fd, F_GETFL) | O_NONBLOCK);
    }

    ~Connection() { ::close(_fd); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return _fd; }
    bool pendingOutput() const { return !_out.empty(); }

    void send(const std::string &line)
    {
        _out += line;
        _out += '\n';
        flush();
    }

    /** Writes what the socket takes now; the rest waits for POLLOUT. */
    void flush()
    {
        while (!_out.empty()) {
            const ssize_t n =
                ::send(_fd, _out.data(), _out.size(), MSG_NOSIGNAL);
            if (n > 0) {
                _out.erase(0, static_cast<std::size_t>(n));
            } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                return;
            } else if (errno != EINTR) {
                throw util::ConfigError(std::string("send: ") +
                                        std::strerror(errno));
            }
        }
    }

    /** Appends every complete line readable now; throws when the
     *  server closed the connection without completing a line. */
    void receive(std::vector<std::string> &lines)
    {
        char chunk[64 * 1024];
        bool closed = false;
        while (!closed) {
            const ssize_t n = ::recv(_fd, chunk, sizeof(chunk), 0);
            if (n > 0)
                _in.append(chunk, static_cast<std::size_t>(n));
            else if (n == 0)
                closed = true;
            else if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            else if (errno != EINTR)
                throw util::ConfigError(std::string("recv: ") +
                                        std::strerror(errno));
        }
        const std::size_t before = lines.size();
        std::size_t start = 0;
        for (std::size_t nl = _in.find('\n'); nl != std::string::npos;
             nl = _in.find('\n', start)) {
            lines.push_back(_in.substr(start, nl - start));
            start = nl + 1;
        }
        _in.erase(0, start);
        if (closed && lines.size() == before)
            throw util::ConfigError("server closed a connection");
    }

    /** Sends one line and waits for its reply (set-up, final stats,
     *  shutdown). */
    std::string roundTrip(const std::string &line)
    {
        send(line);
        const Clock::time_point deadline =
            Clock::now() + toDuration(kStallSeconds);
        std::vector<std::string> lines;
        while (lines.empty()) {
            if (Clock::now() > deadline)
                throw util::ConfigError("no reply from the server");
            pollfd pfd = {};
            pfd.fd = _fd;
            pfd.events = static_cast<short>(
                POLLIN | (pendingOutput() ? POLLOUT : 0));
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            if (pfd.revents & POLLOUT)
                flush();
            if (pfd.revents & (POLLIN | POLLHUP | POLLERR))
                receive(lines);
        }
        return lines.front();
    }

  private:
    int _fd = -1;
    std::string _in;
    std::string _out;
};

using Connections = std::vector<std::unique_ptr<Connection>>;

/** `accpar serve` on an ephemeral port, as a child process (the CLI
 *  built beside this benchmark). */
class Server
{
  public:
    Server()
        : _child({ACCPAR_CLI_PATH, "serve", "--port", "0", "--jobs", "2",
                  "--log-level", "warn"})
    {
        // "accpar serve: listening on 127.0.0.1:PORT (workers=...)"
        const std::string line = _child.readLine(kStallSeconds);
        const std::size_t at = line.find("listening on ");
        const std::size_t colon = line.find(':', at + 13);
        if (at == std::string::npos || colon == std::string::npos)
            throw util::ConfigError("unexpected serve banner: " + line);
        _port = std::stoi(line.substr(colon + 1));
    }

    int port() const { return _port; }
    double peakRssMb() const { return _child.peakRssMb(); }

    /** Asks the server to shut down; true when it exited cleanly. */
    bool stop()
    {
        {
            Connection connection(_port);
            connection.roundTrip(R"({"kind":"shutdown"})");
        }
        return _child.wait(kStallSeconds) == 0;
    }

  private:
    ChildProcess _child;
    int _port = 0;
};

/** Connects every client and waits for a stats reply on each. */
Connections
connectAll(const Server &server)
{
    Connections connections;
    for (std::size_t c = 0; c < kConnections; ++c) {
        connections.push_back(std::make_unique<Connection>(server.port()));
        connections.back()->roundTrip(
            statsLine(-1 - static_cast<std::int64_t>(c)));
    }
    return connections;
}

/** One request's trip through a phase. */
struct Exchange
{
    std::size_t index = 0;
    std::size_t connection = 0;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point done;
};

struct PhaseTiming
{
    Clock::time_point start;
    /** When the last reply arrived. */
    Clock::time_point end;
    /** How late the generator noticed each request was due. */
    std::vector<double> lateMs;
};

using OnDone = std::function<void(const Exchange &, const std::string &)>;

/**
 * Drives one phase with one poll() loop over @p connections, at most
 * one outstanding request per connection. With @p dueSeconds the phase
 * is open loop: request i becomes due at dueSeconds[i] and waits for
 * an idle connection. Without, it is closed loop: every connection
 * sends the stream's next request as soon as its previous reply
 * arrived, until @p closedCount requests were sent. Each reply goes to
 * @p onDone.
 */
PhaseTiming
drive(Connections &connections, const std::vector<ServeRequest> &stream,
      const std::vector<double> &dueSeconds, std::size_t closedCount,
      const OnDone &onDone)
{
    PhaseTiming timing;
    const bool open = !dueSeconds.empty();
    const std::size_t total = open ? dueSeconds.size() : closedCount;
    ACCPAR_REQUIRE(total <= stream.size(), "serve stream too short");
    timing.start = Clock::now();
    const auto due_at = [&](std::size_t i) {
        return timing.start + toDuration(dueSeconds[i]);
    };

    std::vector<std::optional<Exchange>> busy(connections.size());
    std::deque<Exchange> waiting;
    std::size_t next = 0;
    Clock::time_point progress = timing.start;

    while (true) {
        Clock::time_point now = Clock::now();
        if (open) {
            for (; next < total && due_at(next) <= now; ++next) {
                Exchange exchange;
                exchange.index = next;
                exchange.due = due_at(next);
                timing.lateMs.push_back(msBetween(exchange.due, now));
                waiting.push_back(exchange);
            }
        }
        for (std::size_t c = 0; c < connections.size(); ++c) {
            if (busy[c])
                continue;
            Exchange exchange;
            if (open) {
                if (waiting.empty())
                    break;
                exchange = waiting.front();
                waiting.pop_front();
            } else {
                if (next == total)
                    break;
                exchange.index = next++;
                exchange.due = now;
            }
            exchange.connection = c;
            exchange.sent = Clock::now();
            connections[c]->send(*stream[exchange.index].line);
            busy[c] = exchange;
            progress = exchange.sent;
        }

        const bool idle = std::none_of(
            busy.begin(), busy.end(),
            [](const std::optional<Exchange> &e) { return e.has_value(); });
        if (idle && next == total && waiting.empty())
            break;
        if (!idle && msBetween(progress, now) > kStallSeconds * 1e3)
            throw util::ConfigError("serve phase stalled");

        Clock::time_point wake = now + std::chrono::seconds(1);
        if (open && next < total)
            wake = std::min(wake, due_at(next));
        const std::int64_t wait_ns =
            std::max<std::int64_t>(0, nanosBetween(now, wake));
        const timespec timeout = {
            static_cast<time_t>(wait_ns / 1000000000),
            static_cast<long>(wait_ns % 1000000000)};

        std::vector<pollfd> fds(connections.size());
        for (std::size_t c = 0; c < connections.size(); ++c) {
            fds[c].fd = connections[c]->fd();
            fds[c].events = static_cast<short>(
                POLLIN | (connections[c]->pendingOutput() ? POLLOUT : 0));
        }
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
            errno != EINTR)
            throw util::ConfigError(std::string("ppoll: ") +
                                    std::strerror(errno));
        const Clock::time_point got = Clock::now();

        for (std::size_t c = 0; c < connections.size(); ++c) {
            if (fds[c].revents & POLLOUT)
                connections[c]->flush();
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            std::vector<std::string> lines;
            connections[c]->receive(lines);
            for (const std::string &line : lines) {
                if (!busy[c])
                    throw util::ConfigError("unsolicited reply: " + line);
                Exchange exchange = *busy[c];
                busy[c].reset();
                exchange.done = got;
                progress = got;
                timing.end = got;
                onDone(exchange, line);
            }
        }
    }
    return timing;
}

/**
 * Checks every reply and keeps, per (kind, key), the first answer: the
 * plan member's hash plus the certificate fingerprint, or the validate
 * verdict. Later answers for the same key, cached or solved again, must
 * be byte-identical.
 *
 * record() runs on the generator thread while other requests are being
 * timed, so it only hashes the raw reply and keeps the first copy of
 * each distinct one; verify() parses each distinct reply once, after
 * the phase.
 */
class ServeChecker
{
  public:
    explicit ServeChecker(RunReport &report) : _report(report) {}

    /** Records one reply; true when the result cache answered it. */
    bool record(const ServeRequest &request, const std::string &line)
    {
        Fnv fnv;
        fnv.add(line);
        _pending.push_back({request.kind, request.key, fnv.value()});
        if (!_parsed.count(fnv.value()))
            _lines.try_emplace(fnv.value(), line);
        const bool cached =
            line.find("\"cached\":true") != std::string::npos;
        if (request.kind == ServeKind::Plan && !cached)
            _missLines.try_emplace(request.key, *request.line);
        return cached;
    }

    /** Checks the replies recorded since the last call; failed
     *  replies count into the report. */
    void verify()
    {
        for (const Pending &reply : _pending) {
            const Parsed &parsed = parse(reply.kind, reply.hash);
            if (!parsed.ok) {
                ++_report.failed;
                continue;
            }
            if (reply.kind == ServeKind::Stats)
                continue;
            const auto [it, inserted] = _answers.emplace(
                std::pair{static_cast<int>(reply.kind), reply.key},
                parsed.answer);
            if (!inserted)
                _report.check("cached_plans_identical_to_fresh",
                              it->second == parsed.answer);
        }
        _pending.clear();
    }

    /** The first answer for a plan key ("hash/fingerprint"). */
    std::string planAnswer(int key) const
    {
        const auto it =
            _answers.find({static_cast<int>(ServeKind::Plan), key});
        return it == _answers.end() ? std::string() : it->second;
    }

    /** Request line of each plan key's first miss, by key. */
    const std::map<int, std::string> &missLines() const
    {
        return _missLines;
    }

    std::string digest() const
    {
        Fnv fnv;
        for (const auto &[key, answer] : _answers) {
            fnv.add(serveKindName(static_cast<ServeKind>(key.first)));
            fnv.add(std::to_string(key.second));
            fnv.add("=");
            fnv.add(answer);
            fnv.add("\n");
        }
        return fnv.hex();
    }

  private:
    struct Pending
    {
        ServeKind kind;
        int key;
        std::uint64_t hash;
    };

    struct Parsed
    {
        bool ok = false;
        std::string answer;
    };

    const Parsed &parse(ServeKind kind, std::uint64_t hash)
    {
        if (const auto it = _parsed.find(hash); it != _parsed.end())
            return it->second;
        const auto line = _lines.find(hash);
        Parsed &parsed = _parsed[hash];
        try {
            const util::Json doc = util::Json::parse(line->second);
            parsed.ok = doc.contains("ok") && doc.at("ok").asBool();
            if (!parsed.ok)
                std::cerr << "request failed: "
                          << line->second.substr(0, 300) << '\n';
            else if (kind == ServeKind::Validate)
                parsed.answer = doc.at("valid").asBool() ? "valid"
                                                         : "invalid";
            else if (kind != ServeKind::Stats)
                parsed.answer = fnvHex(doc.at("plan").dump()) + '/' +
                                doc.at("certificate_fingerprint").asString();
            if (parsed.ok && kind == ServeKind::Validate)
                _report.check("validate_documents_valid",
                              parsed.answer == "valid");
            if (parsed.ok && (kind == ServeKind::Plan ||
                              kind == ServeKind::Search))
                _report.check("plans_verifier_clean",
                              doc.at("diagnostics")
                                  .at("diagnostics")
                                  .asArray()
                                  .empty());
            if (parsed.ok && kind == ServeKind::Search)
                _report.check("search_never_worse_than_baseline",
                              doc.at("best_cost").asNumber() <=
                                  doc.at("baseline_cost").asNumber());
        } catch (const std::exception &e) {
            parsed.ok = false;
            _report.check("replies_well_formed", false);
        }
        _lines.erase(line);
        return parsed;
    }

    RunReport &_report;
    std::vector<Pending> _pending;
    std::unordered_map<std::uint64_t, std::string> _lines;
    std::unordered_map<std::uint64_t, Parsed> _parsed;
    std::map<std::pair<int, int>, std::string> _answers;
    std::map<int, std::string> _missLines;
};

std::string
kindLabel(const ServeRequest &request, bool cached)
{
    std::string label = serveKindName(request.kind);
    if (request.kind == ServeKind::Plan ||
        request.kind == ServeKind::Search)
        label += cached ? "_hit" : "_miss";
    return label;
}

/** What a serve-mixed run sends, all drawn from --seed. */
struct ServeInputs
{
    /** Phase 1's Poisson arrival times at kOfferedRate. */
    std::vector<double> due;
    /** Phase 2's request count. */
    std::size_t phaseTwo = 0;
    /** Warm-up and stream, long enough for both phases. */
    ServeTraffic traffic;
};

ServeInputs
serveInputs(const RunOptions &options)
{
    ServeInputs inputs;
    util::Rng rng(options.seed ^ 0xa77a77a77ull);
    const double phase_one = options.seconds * kPhaseOneShare;
    for (double t = -std::log(1.0 - rng.uniformDouble()) / kOfferedRate;
         t < phase_one;
         t += -std::log(1.0 - rng.uniformDouble()) / kOfferedRate)
        inputs.due.push_back(t);
    inputs.phaseTwo = static_cast<std::size_t>(
        kPhaseTwoRate * (options.seconds - phase_one));
    inputs.traffic = serveTraffic(
        options.seed, std::max(inputs.due.size(), inputs.phaseTwo));
    return inputs;
}

/** A fresh server with every connection open and the hot keys
 *  cached. */
struct Session
{
    std::unique_ptr<Server> server;
    Connections connections;
};

Session
startSession(const ServeTraffic &traffic, ServeChecker &checker,
             RunReport &report)
{
    Session session{std::make_unique<Server>(), {}};
    session.connections = connectAll(*session.server);
    drive(session.connections, traffic.warmup,
          std::vector<double>(traffic.warmup.size(), 0.0), 0,
          [&](const Exchange &exchange, const std::string &line) {
              ++report.attempted;
              checker.record(traffic.warmup[exchange.index], line);
          });
    return session;
}

void
stopSession(Session &session, RunReport &report)
{
    session.connections.clear();
    report.check("server_exits_cleanly", session.server->stop());
}

double
median(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : percentile(values, 0.5);
}

/** Phase 1 (and, traced, its spans): returns the final stats. */
struct PhaseOne
{
    std::vector<double> latencyMs;
    std::map<std::string, std::vector<double>> roundTripMs;
    PhaseTiming timing;
    util::Json stats;
    double peakRssMb = 0.0;
};

PhaseOne
phaseOne(const ServeInputs &inputs, ServeChecker &checker,
         RunReport &report, SpanTrace *trace)
{
    PhaseOne phase;
    const std::vector<ServeRequest> &stream = inputs.traffic.stream;
    Session session = startSession(inputs.traffic, checker, report);
    phase.timing = drive(
        session.connections, stream, inputs.due, 0,
        [&](const Exchange &exchange, const std::string &line) {
            const ServeRequest &request = stream[exchange.index];
            const bool cached = checker.record(request, line);
            ++report.attempted;
            phase.latencyMs.push_back(
                msBetween(exchange.due, exchange.done));
            const std::string label = kindLabel(request, cached);
            phase.roundTripMs[label].push_back(
                msBetween(exchange.sent, exchange.done));
            if (trace)
                trace->add("net." + label, exchange.sent, exchange.done,
                           static_cast<std::int64_t>(exchange.index),
                           static_cast<int>(exchange.connection) + 1);
        });
    phase.stats = util::Json::parse(session.connections.front()->roundTrip(
        statsLine(static_cast<std::int64_t>(stream.size()))));
    phase.peakRssMb = session.server->peakRssMb();
    stopSession(session, report);
    checker.verify();
    return phase;
}

void
reportPhaseOne(RunReport &report, const PhaseOne &phase)
{
    const util::Json &cache = phase.stats.at("result_cache");
    report.details["phase1_requests"] =
        static_cast<std::int64_t>(phase.latencyMs.size());
    report.details["offered_rate_rps"] = kOfferedRate;
    report.details["late_p99_ms"] = percentile(phase.timing.lateMs, 0.99);
    report.details["result_cache_hit_ratio"] = cache.at("hit_rate");
    report.details["result_cache_evictions"] = cache.at("evictions");
    report.details["queue_rejected"] =
        phase.stats.at("metrics").at("queue_rejected");
    util::Json kinds = util::Json::Object{};
    for (const auto &[label, ms] : phase.roundTripMs) {
        util::Json entry = util::Json::Object{};
        entry["count"] = static_cast<std::int64_t>(ms.size());
        entry["p50_ms"] = median(ms);
        kinds[label] = std::move(entry);
    }
    report.details["round_trip_by_kind"] = std::move(kinds);
}

RunReport
runTimed(const RunOptions &options)
{
    RunReport report;
    const ServeInputs inputs = serveInputs(options);
    const std::vector<ServeRequest> &stream = inputs.traffic.stream;
    ServeChecker checker(report);

    const PhaseOne one = phaseOne(inputs, checker, report, nullptr);
    report.outputDigest = checker.digest();
    latencyMetrics(report, one.latencyMs);
    // The phase-1 server's: the service's memory grows with every miss,
    // and phase 2 sends three times the requests in a third of the time.
    report.metric("peak_rss_mb", one.peakRssMb, "MB");
    reportPhaseOne(report, one);

    // Phase 2: the same stream closed loop on a fresh server.
    Session session = startSession(inputs.traffic, checker, report);
    const PhaseTiming timing = drive(
        session.connections, stream, {}, inputs.phaseTwo,
        [&](const Exchange &exchange, const std::string &line) {
            ++report.attempted;
            checker.record(stream[exchange.index], line);
        });
    const double seconds =
        static_cast<double>(nanosBetween(timing.start, timing.end)) / 1e9;
    report.metric("req_per_s",
                  static_cast<double>(inputs.phaseTwo) / seconds, "1/s");
    report.details["phase2_requests"] =
        static_cast<std::int64_t>(inputs.phaseTwo);
    report.details["phase2_seconds"] = seconds;
    report.details["phase2_peak_rss_mb"] = session.server->peakRssMb();
    stopSession(session, report);
    checker.verify();
    return report;
}

/** The catalog plan a serve plan line asks for. */
PlanJob
planJobFromLine(const std::string &line)
{
    const util::Json request = util::Json::parse(line);
    PlanJob job;
    job.model = request.at("model").asString();
    job.params.set("batch", std::to_string(request.at("batch").asInt()));
    job.array = request.at("array").asString();
    job.key = job.model + " batch=" +
              std::to_string(request.at("batch").asInt()) + " @ " +
              job.array;
    return job;
}

RunReport
runTraced(const RunOptions &options)
{
    RunReport report;
    SpanTrace trace;
    const ServeInputs inputs = serveInputs(options);
    const ServeTraffic &traffic = inputs.traffic;
    ServeChecker checker(report);

    const PhaseOne one = phaseOne(inputs, checker, report, &trace);
    report.outputDigest = checker.digest();
    reportPhaseOne(report, one);

    // Loopback: a prefix of the same stream through an in-process
    // service configured like `accpar serve --jobs 2`.
    std::vector<double> parse_us;
    std::map<std::string, std::vector<double>> loopback_ms;
    {
        service::PlanService loopback(service::ServiceConfig{});
        for (const ServeRequest &request : traffic.warmup) {
            ++report.attempted;
            checker.record(request, loopback.handleLine(*request.line));
        }
        const auto replay = static_cast<std::size_t>(
            std::ceil(static_cast<double>(one.latencyMs.size()) *
                      kLoopbackShare));
        for (std::size_t i = 0; i < replay; ++i) {
            const ServeRequest &request = traffic.stream[i];
            const Clock::time_point t0 = Clock::now();
            service::parseRequest(*request.line);
            const Clock::time_point t1 = Clock::now();
            const std::string response = loopback.handleLine(*request.line);
            const Clock::time_point t2 = Clock::now();
            ++report.attempted;
            const std::string label =
                kindLabel(request, checker.record(request, response));
            const auto id = static_cast<std::int64_t>(i);
            trace.add("service.parse", t0, t1, id, 0);
            trace.add("service." + label, t1, t2, id, 0);
            parse_us.push_back(msBetween(t0, t1) * 1e3);
            loopback_ms[label].push_back(msBetween(t1, t2));
        }
    }
    checker.verify();

    // The distinct missed plan keys through the decomposed pipeline,
    // certificates on, against the same requests through the Planner.
    LayerCounts counts;
    double untraced_ns = 0.0;
    double traced_ns = 0.0;
    std::size_t replayed = 0;
    for (const auto &[key, line] : checker.missLines()) {
        if (replayed == kMissReplay)
            break;
        if (key < kServeHotKeys)
            continue; // warm-up misses, not the steady-state tail

        const PlanJob job = planJobFromLine(line);
        const auto id = static_cast<std::int64_t>(1000000 + key);
        PlanOutput planned;
        PlanOutput traced;
        const auto untraced_call = [&] {
            const Clock::time_point t0 = Clock::now();
            planned = runPlanner(job, 1, true);
            untraced_ns +=
                static_cast<double>(nanosBetween(t0, Clock::now()));
        };
        const auto traced_call = [&] {
            const Clock::time_point t0 = Clock::now();
            traced = runDecomposed(job, trace, id, true);
            traced_ns +=
                static_cast<double>(nanosBetween(t0, Clock::now()));
        };
        if (replayed % 2 == 0) {
            untraced_call();
            traced_call();
        } else {
            traced_call();
            untraced_call();
        }
        ++report.attempted;
        ++replayed;
        const std::string answer =
            fnvHex(util::Json::parse(traced.bytes).dump()) + '/' +
            traced.certificateFingerprint;
        report.check("decomposed_matches_service",
                     answer == checker.planAnswer(key) &&
                         traced.bytes == planned.bytes &&
                         traced.certificateFingerprint ==
                             planned.certificateFingerprint);
        report.check("plans_verifier_clean", traced.verifierClean);
        counts.add(traced);
    }

    reportLayerMetrics(report, trace, counts, untraced_ns, traced_ns);
    const util::Json &cache = one.stats.at("result_cache");
    report.metric("service.result_cache_hit_ratio",
                  cache.at("hit_rate").asNumber(), "ratio");
    report.metric("service.result_cache_evictions",
                  cache.at("evictions").asNumber(), "count");
    report.metric("service.queue_rejected",
                  one.stats.at("metrics").at("queue_rejected").asNumber(),
                  "count");
    const double tcp_hit = median(one.roundTripMs.at("plan_hit"));
    const double loop_hit = median(loopback_ms.at("plan_hit"));
    report.metric("net.overhead_share", (tcp_hit - loop_hit) / tcp_hit,
                  "ratio");
    report.metric("service.parse_share", median(parse_us) / 1e3 / loop_hit,
                  "ratio");
    report.metric("gen.late_p99_share",
                  percentile(one.timing.lateMs, 0.99) /
                      percentile(one.latencyMs, 0.5),
                  "ratio");

    util::Json loop = util::Json::Object{};
    for (const auto &[label, ms] : loopback_ms) {
        util::Json entry = util::Json::Object{};
        entry["count"] = static_cast<std::int64_t>(ms.size());
        entry["p50_ms"] = median(ms);
        loop[label] = std::move(entry);
    }
    report.details["loopback_by_kind"] = std::move(loop);
    report.details["parse_p50_us"] = median(parse_us);
    report.details["miss_keys_replayed"] =
        static_cast<std::int64_t>(replayed);
    trace.writeChrome(options.tracePath);
    return report;
}

} // namespace

RunReport
runServe(const RunOptions &options)
{
    return options.traced() ? runTraced(options) : runTimed(options);
}

void
probeServe(const RunOptions &options)
{
    serveInputs(options);
    Server server;
    Connections connections = connectAll(server);
    std::cout << "ready" << std::endl;
    connections.clear();
    if (!server.stop())
        throw util::ConfigError("server did not exit cleanly");
}

} // namespace accpar::bench
