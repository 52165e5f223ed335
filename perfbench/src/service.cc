/**
 * @file
 * Service phases: sweepd as seen by one client process — the per-row
 * cold fill, the warm closed loop, and the open-loop warm traffic
 * under a cold sweep stream.
 */

#include <poll.h>

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "bench.hh"
#include "harness/figures.hh"
#include "prog/synth.hh"

namespace perfbench {

using namespace svw::harness;

namespace {

/** What one streamed sweep response held. */
struct SweepBody
{
    std::vector<std::pair<std::string, std::string>> results;
    std::size_t cached = 0;
    std::size_t notOk = 0;
    bool finished = false;
    std::size_t failures = 0;
};

std::string
field(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    at += tag.size();
    if (line[at] == '"') {
        const std::size_t end = line.find('"', at + 1);
        return line.substr(at + 1, end - at - 1);
    }
    const std::size_t end = line.find_first_of(",}", at);
    return line.substr(at, end - at);
}

/** Split a sweepd stream into events and result lines: a result line
 * follows each successful done/cached event. */
SweepBody
parseBody(const std::string &body)
{
    SweepBody b;
    std::string pending;  // cell name awaiting its result line
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (!pending.empty()) {
            b.results.emplace_back(pending, line);
            pending.clear();
            continue;
        }
        const std::string ev = field(line, "event");
        if (ev == "done" || ev == "cached") {
            b.cached += ev == "cached";
            if (field(line, "ok") == "true")
                pending = field(line, "name");
            else
                ++b.notOk;
        } else if (ev == "finished") {
            b.finished = true;
            b.failures = std::stoull("0" + field(line, "failures"));
        }
    }
    return b;
}

/** Check one response's cells; add them to @p lines under @p fig. */
bool
checkSweep(const Exchange &ex, const std::string &fig, std::size_t want,
           LineMap &lines, Tally &tally)
{
    const SweepBody b = parseBody(ex.reader().body());
    bool good = ex.ok() && b.finished && b.failures == 0 && b.notOk == 0 &&
        b.results.size() == want;
    for (const auto &[name, line] : b.results) {
        good = good && line.find("\"golden_ok\":true") != std::string::npos;
        lines[fig + "/" + name] = line;
    }
    if (!good)
        tally.mismatch("bad " + fig + " response (" +
                       std::to_string(b.results.size()) + " results, want " +
                       std::to_string(want) + ")");
    return good;
}

std::string
warmForm(const std::string &fig)
{
    return "figure=" + fig + "&insts=" + std::to_string(figureInsts);
}

/**
 * Check a warm response: the first per figure must be all cache hits
 * whose result lines equal the cold fill's; every later one must be
 * byte-identical to that first body.
 */
void
checkWarm(const Exchange &ex, const std::string &fig, Service &svc,
          std::map<std::string, std::string> &expected, Tally &tally)
{
    auto it = expected.find(fig);
    if (it != expected.end()) {
        if (ex.reader().body() != it->second)
            tally.mismatch("warm " + fig + " response differs");
        return;
    }
    const FigureDef *def = findFigure(fig);
    const std::size_t cells = def->build(def->paperSuite(), figureInsts).size();
    LineMap got;
    if (!checkSweep(ex, fig, cells, got, tally))
        return;
    if (parseBody(ex.reader().body()).cached != cells)
        tally.mismatch("warm " + fig + " simulated cells");
    LineMap want;
    for (const auto &[name, line] : svc.lines)
        if (name.rfind(fig + "/", 0) == 0)
            want[name] = line;
    compareLines(want, got, "warm " + fig + " vs cold fill", tally);
    expected[fig] = ex.reader().body();
}

/**
 * Time the calibration kernel on the CPU sweepd last ran on, which is
 * idle while no request is in flight: the host's speed differs from
 * core to core, and the daemon's core is the one that serves.
 */
void
sampleDaemonCpu(const Daemon &daemon, HostSpeed &speed)
{
    const std::vector<int> home = allowedCpus();
    const int cpu = daemon.lastCpu();
    if (cpu >= 0)
        pinTo({cpu});
    speed.sample();
    pinTo(home);
}

} // namespace

Service
startService(const std::string &sweepd, const std::vector<int> &cpus,
             Tally &tally, Spans &spans, HostSpeed &speed)
{
    Service svc;
    const double t0 = now();
    double sampling = 0.0;
    ScopedSpan setup(spans, "service.setup");
    svc.daemon = std::make_unique<Daemon>(sweepd, cpus);
    std::uint64_t req = 0;
    for (const std::string &fig : figureNames) {
        const FigureDef *def = findFigure(fig);
        for (const std::string &row : def->paperSuite()) {
            const std::size_t want = def->build({row}, figureInsts).size();
            Exchange ex;
            runBlocking(ex, svc.daemon->port(),
                        sweepRequest(warmForm(fig) + "&bench=" + row));
            spans.add("service.cold_request", ex.sent, ex.last, setup.id(),
                      req++);
            ++tally.attempted;
            tally.failed += !ex.ok();
            checkSweep(ex, fig, want, svc.lines, tally);
            const double s0 = now();
            sampleDaemonCpu(*svc.daemon, speed);
            sampling += now() - s0;
        }
    }
    svc.setupSeconds = now() - t0 - sampling;
    return svc;
}

WarmStats
warmClosedLoop(Service &svc, double seconds, std::uint64_t seed,
               Tally &tally, Spans &spans)
{
    WarmStats w;
    std::map<std::string, std::string> expected;
    WarmOrder order(seed ^ 0x3a11);
    const double t0 = now();
    for (std::uint64_t n = 0; now() < t0 + seconds; ++n) {
        if (n % 100 == 99) {
            Exchange st;
            runBlocking(st, svc.daemon->port(), getRequest("/status"));
            spans.add("service.status", st.sent, st.last, 0, n);
            if (st.ok())
                w.status.push_back(st.last - st.sent);
            else
                tally.mismatch("GET /status failed");
        }
        const std::string &fig = figureNames[order.next()];
        w.order += fig.back();
        Exchange ex;
        ++tally.attempted;
        runBlocking(ex, svc.daemon->port(), sweepRequest(warmForm(fig)));
        const std::uint64_t id =
            spans.add("service.warm_request", ex.sent, ex.last, 0, n);
        if (ex.ok()) {
            w.done(ex.last - ex.sent, ex.last);
            w.ttfb.push_back(ex.firstByte - ex.sent);
            w.stream.push_back(ex.last - ex.firstByte);
            w.respBytes += double(ex.reader().rawBytes());
            spans.add("service.ttfb", ex.sent, ex.firstByte, id, n);
        } else {
            w.failedAt.push_back(ex.last);
            ++tally.failed;
        }
        checkWarm(ex, fig, svc, expected, tally);
    }
    w.start = t0;
    w.wall = now() - t0;
    if (!w.latency.empty())
        w.respBytes /= double(w.latency.size());
    return w;
}

MixedStats
mixedOpenLoop(Service &svc, double seconds, std::uint64_t seed,
              Tally &tally, Spans &spans, HostSpeed &speed)
{
    MixedStats m;
    std::map<std::string, std::string> expected;
    svw::Random rng(seed ^ 0x5eed);
    WarmOrder order(seed ^ 0x3a11);
    const std::vector<std::string> &kinds = svw::synth::kindNames();
    std::set<std::uint64_t> usedSeeds;
    const unsigned port = svc.daemon->port();

    // Cold rows: fresh synthetic workloads, so every cache misses.
    // Kinds are dealt in seeded permutations, so every seed runs the
    // same mix of kinds and only the generated programs differ.
    std::vector<std::string> deck;
    auto nextColdRow = [&] {
        if (deck.empty()) {
            deck = kinds;
            for (std::size_t i = deck.size(); i > 1; --i)
                std::swap(deck[i - 1], deck[rng.nextBounded(i)]);
        }
        std::uint64_t s = 0;
        do {
            s = 1000 + rng.nextBounded(1'000'000'000);
        } while (!usedSeeds.insert(s).second);
        const std::string row =
            "synth:" + deck.back() + ":" + std::to_string(s);
        deck.pop_back();
        m.coldRows.push_back(row);
        return row;
    };
    const std::size_t checkedRows = 3;

    const FigureDef *fig6 = findFigure("fig6");
    std::unique_ptr<Exchange> cold;
    auto startCold = [&] {
        const std::string row = nextColdRow();
        cold = std::make_unique<Exchange>();
        cold->start(port, sweepRequest(warmForm("fig6") + "&bench=" + row),
                    now());
    };
    auto finishCold = [&] {
        LineMap lines;
        ++tally.attempted;
        tally.failed += !cold->ok();
        const std::size_t cells =
            fig6->build({m.coldRows.back()}, figureInsts).size();
        if (checkSweep(*cold, "fig6", cells, lines, tally) &&
            !cold->doneTimes.empty()) {
            m.coldFirstDone.push_back(cold->doneTimes.front() - cold->sent);
            m.coldSweep.push_back(cold->last - cold->sent);
            double prev = cold->sent;
            for (double t : cold->doneTimes) {
                if (t > prev)
                    m.unitGaps.push_back(t - prev);
                prev = t;
            }
            if (m.coldSweep.size() <= checkedRows)
                m.coldLines.insert(lines.begin(), lines.end());
        }
        spans.add("service.cold_request", cold->sent, cold->last, 0,
                  m.coldRows.size());
    };

    struct Warm
    {
        std::unique_ptr<Exchange> ex;
        std::string fig;
    };
    std::vector<Warm> warm;
    std::deque<double> due;
    const double interval = 1.0 / mixedWarmRate;
    const double t0 = now();
    const double end = t0 + seconds;
    double next = t0 + interval;
    std::uint64_t warmSeq = 0;
    const double cpu0 = svc.daemon->cpuSeconds();
    startCold();

    std::vector<pollfd> fds;
    for (;;) {
        double t = now();
        for (; next <= t && next < end; next += interval) {
            // Warm requests are due only while a cold sweep is in
            // flight; a due time between two cold sweeps is skipped.
            if (cold && !cold->finished()) {
                due.push_back(next);
                m.genLate.push_back(t - next);
            } else {
                ++m.skipped;
            }
        }
        while (!due.empty() && warm.size() < mixedWarmConns) {
            Warm w;
            w.fig = figureNames[order.next()];
            m.warm.order += w.fig.back();
            w.ex = std::make_unique<Exchange>();
            ++tally.attempted;
            w.ex->start(port, sweepRequest(warmForm(w.fig)), due.front());
            due.pop_front();
            warm.push_back(std::move(w));
        }
        if (!cold && warm.empty() && due.empty() && t >= end)
            break;

        fds.clear();
        if (cold)
            fds.push_back(pollfd{cold->fd(), cold->events(), 0});
        for (const Warm &w : warm)
            fds.push_back(pollfd{w.ex->fd(), w.ex->events(), 0});
        double wait = 0.05;
        if (next < end)
            wait = std::max(0.0, next - now());
        timespec ts{static_cast<time_t>(wait),
                    static_cast<long>((wait - double(time_t(wait))) * 1e9)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 &&
            errno != EINTR)
            break;

        std::size_t i = 0;
        if (cold) {
            const short rev = fds[i++].revents;
            if (cold->finished() || (rev && cold->onEvent(rev))) {
                finishCold();
                cold.reset();
                // A sample now delays no warm request: none is in
                // flight, and due times between cold sweeps are skipped.
                if (warm.empty()) {
                    sampleDaemonCpu(*svc.daemon, speed);
                    for (t = now(); next <= t && next < end; next += interval)
                        ++m.skipped;
                }
                if (now() < end)
                    startCold();
            }
        }
        for (std::size_t k = 0; k < warm.size(); ++i) {
            Warm &w = warm[k];
            const short rev = fds[i].revents;
            if (!w.ex->finished() && !(rev && w.ex->onEvent(rev))) {
                ++k;
                continue;
            }
            const std::uint64_t seq = warmSeq++;
            const std::uint64_t id = spans.add(
                "service.warm_request", w.ex->sched, w.ex->last, 0, seq);
            if (w.ex->ok()) {
                m.warm.done(w.ex->last - w.ex->sched, w.ex->last);
                spans.add("service.client_queue", w.ex->sched, w.ex->sent,
                          id, seq);
            } else {
                m.warm.failedAt.push_back(w.ex->last);
                ++tally.failed;
            }
            checkWarm(*w.ex, w.fig, svc, expected, tally);
            warm.erase(warm.begin() + static_cast<long>(k));
        }
    }
    m.warm.start = t0;
    m.warm.wall = now() - t0;
    m.daemonUtil = (svc.daemon->cpuSeconds() - cpu0) / m.warm.wall;
    return m;
}

} // namespace perfbench
