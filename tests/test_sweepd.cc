/**
 * @file
 * sweepd service-layer tests (service/server.hh). The daemon runs
 * in-process on an ephemeral port with the event loop on a background
 * thread, driven by raw blocking client sockets — no HTTP library, so
 * the tests see exactly the bytes a curl client would. Pinned
 * contracts: the streamed result lines are byte-identical to the
 * engine's sequential results (and hence to the CLI binaries), a warm
 * repeat request simulates nothing, N concurrent clients each receive
 * complete well-formed streams, a mid-stream client disconnect aborts
 * only that session and leaves the daemon serving, and malformed or
 * oversized requests are rejected with 400 without crashing.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/sweep.hh"
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
    return request(port,
                   "POST /sweep HTTP/1.1\r\n"
                   "Host: localhost\r\n"
                   "Content-Type: application/x-www-form-urlencoded\r\n"
                   "Content-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
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

    // A full-suite sweep (80 cells) the client walks away from after
    // the first bytes arrive.
    const std::string body = "figure=fig5&insts=21000";
    const int fd = connectTo(port());
    ASSERT_GE(fd, 0);
    sendAll(fd,
            "POST /sweep HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
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
    EXPECT_LT(harness::runCellCalls() - callsBefore, 40u);

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

TEST_F(SweepdTest, ThreadedSessionStreamsIdenticalResults)
{
    // Cold request on session worker threads first (exercises the
    // wakeFd drain path), then a sequential warm repeat of the same
    // cells. Completion order differs; the result bytes must not —
    // compare sorted.
    const std::string thr = postSweep(
        port(), "figure=fig8&insts=6000&bench=vpr.r&threads=2");
    const std::string seq =
        postSweep(port(), "figure=fig8&insts=6000&bench=vpr.r");
    auto a = streamResultLines(decodeChunkedBody(thr));
    auto b = streamResultLines(decodeChunkedBody(seq));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    ASSERT_FALSE(a.empty());
}
