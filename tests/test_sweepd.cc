/**
 * @file
 * sweepd service-layer tests (service/server.hh). The daemon runs
 * in-process on an ephemeral port with the event loop on a background
 * thread, driven by raw blocking client sockets — no HTTP library, so
 * the tests see exactly the bytes a curl client would. Pinned
 * contracts: the streamed result lines are byte-identical to the
 * engine's sequential results (and hence to the CLI binaries), a warm
 * repeat request simulates nothing, N concurrent clients each receive
 * complete well-formed streams, a warm request and GET /status answer
 * while a cold cell simulates, cold sweeps share the simulation thread
 * round-robin, a mid-stream client disconnect aborts only that session
 * and leaves the daemon serving, and malformed or oversized requests
 * are rejected with 400 without crashing.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/sweep.hh"
#include "service/http.hh"
#include "service/server.hh"

using namespace svw;
using namespace svw::service;

namespace {

/** One in-process daemon on an ephemeral port, loop on a thread. */
class SweepdTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        SweepdOptions opts;
        opts.port = 0;
        opts.quiet = true;
        server_ = std::make_unique<SweepServer>(opts);
        loop_ = std::thread([this] { server_->run(); });
    }

    void TearDown() override
    {
        server_->requestStop();
        loop_.join();
        server_.reset();
    }

    unsigned port() const { return server_->port(); }

    std::unique_ptr<SweepServer> server_;
    std::thread loop_;
};

int
connectTo(unsigned port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    timeval tv{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
}

std::string
readAll(int fd)
{
    std::string out;
    char chunk[8192];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
}

/** Read from @p fd into @p out until @p needle appears (or EOF). */
void
readUntil(int fd, std::string &out, const std::string &needle)
{
    char chunk[8192];
    while (out.find(needle) == std::string::npos) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            return;
        out.append(chunk, static_cast<std::size_t>(n));
    }
}

/** Append whatever @p fd has buffered right now, without blocking. */
void
readAvailable(int fd, std::string &out)
{
    char chunk[8192];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n <= 0)
            return;
        out.append(chunk, static_cast<std::size_t>(n));
    }
}

std::string
sweepRequest(const std::string &body)
{
    return "POST /sweep HTTP/1.1\r\n"
           "Host: localhost\r\n"
           "Content-Type: application/x-www-form-urlencoded\r\n"
           "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
}

/** Send a sweep request and return the open connection to stream
 * from. */
int
openSweep(unsigned port, const std::string &body)
{
    const int fd = connectTo(port);
    EXPECT_GE(fd, 0);
    sendAll(fd, sweepRequest(body));
    return fd;
}

std::string
request(unsigned port, const std::string &raw)
{
    const int fd = connectTo(port);
    EXPECT_GE(fd, 0);
    sendAll(fd, raw);
    const std::string resp = readAll(fd);
    ::close(fd);
    return resp;
}

std::string
postSweep(unsigned port, const std::string &body)
{
    return request(port, sweepRequest(body));
}

std::string
getPath(unsigned port, const std::string &path)
{
    return request(port, "GET " + path +
                             " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

/** Split a raw response into (head, chunk-decoded body). The body
 * must be complete: a missing terminating chunk fails the test. */
std::string
decodeChunkedBody(const std::string &raw, bool *complete = nullptr)
{
    const std::size_t headEnd = raw.find("\r\n\r\n");
    EXPECT_NE(headEnd, std::string::npos);
    std::string body;
    bool sawFinal = false;
    std::size_t pos = headEnd + 4;
    while (pos < raw.size()) {
        const std::size_t lineEnd = raw.find("\r\n", pos);
        if (lineEnd == std::string::npos)
            break;
        const std::size_t len =
            std::stoull(raw.substr(pos, lineEnd - pos), nullptr, 16);
        pos = lineEnd + 2;
        if (len == 0) {
            sawFinal = true;
            break;
        }
        body += raw.substr(pos, len);
        pos += len + 2;  // skip chunk data and its trailing CRLF
    }
    if (complete)
        *complete = sawFinal;
    else
        EXPECT_TRUE(sawFinal) << "stream not terminated";
    return body;
}

/** The lossless per-cell result lines of a stream, in stream order. */
std::vector<std::string>
streamResultLines(const std::string &body)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t end = body.find('\n', pos);
        if (end == std::string::npos)
            end = body.size();
        const std::string line = body.substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind("{\"workload\"", 0) == 0)
            lines.push_back(line);
    }
    return lines;
}

/** The engine's result lines for a figure request, in spec order:
 * what the daemon builds for figure=@p figure (and bench=@p bench,
 * when set) at @p insts per cell. */
std::vector<std::string>
engineLines(const std::string &figure, const std::string &bench,
            std::uint64_t insts)
{
    const harness::FigureDef *def = harness::findFigure(figure);
    EXPECT_NE(def, nullptr);
    const std::vector<std::string> suite =
        bench.empty() ? def->paperSuite() : std::vector<std::string>{bench};
    const harness::SweepResults res =
        runSweep(def->build(suite, insts), harness::SweepOptions{});
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < res.spec().size(); ++i)
        lines.push_back(harness::runResultToJson(res.outcome(i).result));
    return lines;
}

} // namespace

TEST_F(SweepdTest, StatusAndFiguresEndpointsRespond)
{
    const std::string status = getPath(port(), "/status");
    EXPECT_NE(status.find("200 OK"), std::string::npos);
    EXPECT_NE(status.find("\"memCacheEntries\""), std::string::npos);
    EXPECT_NE(status.find("\"programBuilds\""), std::string::npos);

    const std::string figures = getPath(port(), "/figures");
    EXPECT_NE(figures.find("\"fig5\""), std::string::npos);
    EXPECT_NE(figures.find("\"ext_svw_replace\""), std::string::npos);

    EXPECT_NE(getPath(port(), "/nope").find("404"), std::string::npos);
}

TEST_F(SweepdTest, StreamedResultsMatchEngineByteForByte)
{
    // The CLI binaries serialize the same engine outcomes with the
    // same runResultToJson, so matching the engine's sequential
    // results in spec order IS matching the CLI.
    const harness::SweepSpec spec =
        harness::fig5Spec({"gzip"}, 11'000);
    const harness::SweepResults direct =
        runSweep(spec, harness::SweepOptions{});
    std::vector<std::string> expect;
    for (std::size_t i = 0; i < spec.size(); ++i)
        expect.push_back(
            harness::runResultToJson(direct.outcome(i).result));

    const std::string resp =
        postSweep(port(), "figure=fig5&insts=11000&bench=gzip");
    EXPECT_NE(resp.find("200 OK"), std::string::npos);
    const std::string body = decodeChunkedBody(resp);
    EXPECT_EQ(streamResultLines(body), expect);
    EXPECT_NE(body.find("\"event\":\"finished\""), std::string::npos);
}

TEST_F(SweepdTest, WarmRepeatRequestSimulatesNothing)
{
    const std::string req = "figure=fig6&insts=9000&bench=mcf";
    const std::string cold = postSweep(port(), req);
    const std::string coldBody = decodeChunkedBody(cold);
    const std::uint64_t callsAfterCold = harness::runCellCalls();
    ASSERT_FALSE(streamResultLines(coldBody).empty());

    const std::string warm = postSweep(port(), req);
    const std::string warmBody = decodeChunkedBody(warm);
    EXPECT_EQ(harness::runCellCalls(), callsAfterCold)
        << "warm repeat re-simulated cells";
    EXPECT_NE(warmBody.find("\"event\":\"cached\""), std::string::npos);
    EXPECT_EQ(warmBody.find("\"event\":\"done\""), std::string::npos);
    // Same results, bit for bit, out of the memory cache.
    EXPECT_EQ(streamResultLines(warmBody), streamResultLines(coldBody));
}

TEST_F(SweepdTest, WarmRepeatsStreamIdenticalRawBytes)
{
    // Two warm repeats of one request are served from the memory
    // front's stored lines: the whole response, head and chunk framing
    // included, must be the same bytes each time.
    const std::string req = "figure=fig5&insts=7000&bench=gzip";
    const std::string cold = postSweep(port(), req);
    const std::uint64_t calls = harness::runCellCalls();
    const std::string warm1 = postSweep(port(), req);
    const std::string warm2 = postSweep(port(), req);
    EXPECT_EQ(harness::runCellCalls(), calls);
    EXPECT_EQ(warm1, warm2);
    EXPECT_NE(warm1.find("\"event\":\"cached\""), std::string::npos);
    EXPECT_EQ(streamResultLines(decodeChunkedBody(warm1)),
              streamResultLines(decodeChunkedBody(cold)));
}

TEST_F(SweepdTest, ConcurrentClientsEachGetCompleteStreams)
{
    const std::vector<std::string> benches = {"gzip", "mcf", "crafty"};
    std::vector<std::string> responses(benches.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        clients.emplace_back([this, i, &benches, &responses] {
            responses[i] = postSweep(
                port(),
                "figure=fig7&insts=5000&bench=" + benches[i]);
        });
    }
    for (auto &t : clients)
        t.join();

    for (std::size_t i = 0; i < benches.size(); ++i) {
        const std::string body = decodeChunkedBody(responses[i]);
        EXPECT_NE(body.find("\"event\":\"finished\""),
                  std::string::npos)
            << benches[i];
        // fig7 has five configs per row: five result lines, each for
        // this client's own workload only.
        const auto lines = streamResultLines(body);
        EXPECT_EQ(lines.size(), 5u) << benches[i];
        for (const auto &l : lines)
            EXPECT_NE(
                l.find("\"workload\":\"" + benches[i] + "\""),
                std::string::npos);
    }
}

TEST_F(SweepdTest, MidStreamDisconnectAbortsOnlyThatSession)
{
    const std::uint64_t callsBefore = harness::runCellCalls();
    const std::size_t entriesBefore =
        harness::processMemoryResultCache().entries();

    // A full-suite sweep (80 cells) the client walks away from after
    // the first bytes arrive.
    const int fd = openSweep(port(), "figure=fig5&insts=21000");
    ASSERT_GE(fd, 0);
    char first[64];
    ASSERT_GT(::read(fd, first, sizeof(first)), 0);  // stream started
    ::close(fd);  // mid-stream disconnect

    // The daemon must notice, abort that session alone, and keep
    // serving. Poll /status until the session is gone.
    bool aborted = false;
    for (int i = 0; i < 600 && !aborted; ++i) {
        const std::string status = getPath(port(), "/status");
        ASSERT_NE(status.find("200 OK"), std::string::npos);
        aborted =
            status.find("\"activeSessions\":0") != std::string::npos;
        if (!aborted)
            ::usleep(50'000);
    }
    EXPECT_TRUE(aborted);

    // Abort discarded pending units: nowhere near all 80 cells ran.
    const std::uint64_t ran = harness::runCellCalls() - callsBefore;
    EXPECT_LT(ran, 40u);
    // Every cell that ran, the one simulating at the disconnect
    // included, reached the memory cache for the next request.
    EXPECT_EQ(harness::processMemoryResultCache().entries() - entriesBefore,
              ran);

    // And an unrelated request still completes.
    const std::string ok =
        postSweep(port(), "figure=fig5&insts=5000&bench=vortex");
    EXPECT_NE(decodeChunkedBody(ok).find("\"event\":\"finished\""),
              std::string::npos);
}

TEST_F(SweepdTest, MalformedAndOversizedRequestsGet400)
{
    EXPECT_NE(request(port(), "BOGUS\r\n\r\n").find("400 Bad Request"),
              std::string::npos);
    EXPECT_NE(request(port(), "GET /status TELNET/9\r\n\r\n")
                  .find("400 Bad Request"),
              std::string::npos);

    // Declared body far over the cap: rejected up front, not buffered.
    EXPECT_NE(request(port(),
                      "POST /sweep HTTP/1.1\r\n"
                      "Content-Length: 10000000\r\n\r\n")
                  .find("400 Bad Request"),
              std::string::npos);

    // Unknown figure and malformed knobs are request errors too.
    EXPECT_NE(postSweep(port(), "figure=fig99").find("400"),
              std::string::npos);
    EXPECT_NE(postSweep(port(), "figure=fig5&insts=ten").find("400"),
              std::string::npos);
    EXPECT_NE(postSweep(port(), "figure=fig5&bench=gzip2").find("400"),
              std::string::npos);

    // The daemon survived all of it.
    EXPECT_NE(getPath(port(), "/status").find("200 OK"),
              std::string::npos);
}

TEST_F(SweepdTest, WarmRequestAndStatusAnswerWhileAColdCellRuns)
{
    // Prefill a small figure, so the warm request below is all hits.
    const std::string warmReq = "figure=fig8&insts=6100&bench=vpr.r";
    ASSERT_NE(decodeChunkedBody(postSweep(port(), warmReq))
                  .find("\"event\":\"finished\""),
              std::string::npos);

    // One long cold cell. Its "started" event means it is simulating.
    const int cold =
        openSweep(port(), "figure=fig6&bench=gzip&insts=1000000");
    ASSERT_GE(cold, 0);
    std::string coldRaw;
    readUntil(cold, coldRaw, "\"event\":\"started\"");
    ASSERT_NE(coldRaw.find("\"event\":\"started\""), std::string::npos);

    const std::string status = getPath(port(), "/status");
    EXPECT_NE(status.find("\"runningCells\":1"), std::string::npos)
        << status;
    const std::string warmBody = decodeChunkedBody(postSweep(port(), warmReq));
    EXPECT_NE(warmBody.find("\"event\":\"finished\""), std::string::npos);
    EXPECT_EQ(warmBody.find("\"event\":\"done\""), std::string::npos);

    // Both answered before the cold cell finished: its stream holds no
    // "done" yet.
    readAvailable(cold, coldRaw);
    EXPECT_EQ(coldRaw.find("\"event\":\"done\""), std::string::npos)
        << "the warm request waited for the cold cell";
    ::close(cold);  // aborts the cold sweep; its running cell completes
}

TEST_F(SweepdTest, ColdSweepsShareTheSimulationThreadRoundRobin)
{
    // A long sweep (80 cells) and a short one (5 cells) started once
    // the long one is simulating. Dealt round-robin, the short one
    // finishes first; dealt first-come, it would wait for all 80.
    const std::vector<std::string> longWant = engineLines("fig5", "", 4100);
    const std::vector<std::string> shortWant =
        engineLines("fig7", "gzip", 4100);

    const int longFd = openSweep(port(), "figure=fig5&insts=4100");
    ASSERT_GE(longFd, 0);
    std::string longRaw;
    readUntil(longFd, longRaw, "\"event\":\"started\"");

    const std::string shortResp =
        postSweep(port(), "figure=fig7&bench=gzip&insts=4100");
    readAvailable(longFd, longRaw);
    EXPECT_EQ(longRaw.find("\"event\":\"finished\""), std::string::npos)
        << "the short sweep waited for the long one";

    longRaw += readAll(longFd);
    ::close(longFd);
    // One simulation thread runs each session's cells in spec order,
    // so both streams match the engine line for line.
    EXPECT_EQ(streamResultLines(decodeChunkedBody(shortResp)), shortWant);
    EXPECT_EQ(streamResultLines(decodeChunkedBody(longRaw)), longWant);
}

TEST(SweepdHttp, ChunkFramingIsPinned)
{
    // Size in lowercase hex, CRLF, payload, CRLF, whether the payload
    // comes whole or in parts; a zero-size payload frames the
    // terminating chunk.
    const std::pair<std::size_t, const char *> sizes[] = {
        {0, "0"},    {1, "1"},     {15, "f"},    {16, "10"},
        {255, "ff"}, {256, "100"}, {4095, "fff"}};
    for (const auto &[n, hex] : sizes) {
        const std::string payload(n, 'x');
        const std::string want = std::string(hex) + "\r\n" + payload + "\r\n";
        EXPECT_EQ(encodeChunk(payload), want) << n;
        std::string out = "prefix";
        appendChunk(out, {std::string_view(payload).substr(0, n / 2),
                          std::string_view(payload).substr(n / 2)});
        EXPECT_EQ(out, "prefix" + want) << n;
    }
    EXPECT_EQ(encodeChunk(""), finalChunk());
    EXPECT_EQ(encodeChunk("{\"a\":1}\n"), "8\r\n{\"a\":1}\n\r\n");
}
