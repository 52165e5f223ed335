/**
 * @file
 * sweepd: the long-lived sweep service daemon's server core. A poll(2)
 * event loop (modeled on pazpar2's single-process metasearch server)
 * multiplexes non-blocking client sockets with per-connection state
 * machines, keeping the process-wide ProgramCache / MemoryResultCache
 * / disk ResultCache warm across requests — a warm repeat request
 * simulates nothing.
 *
 * Protocol (one request per connection, Connection: close):
 *
 *  - POST /sweep — form-urlencoded body selects the work:
 *      figure=fig5         figure-registry name (required)
 *      quick=1             20k insts per cell (else insts=N, def 100k)
 *      insts=N             explicit per-cell instruction target
 *      bench=W             restrict to one workload row
 *      families=paper|synth|all   row families (default paper)
 *    Unknown keys are ignored. The response streams chunked JSON lines
 *    as the session advances: {"event":"started"|"done"|"cached"...}
 *    progress lines, each successful cell's lossless RunResult JSON
 *    line (byte-identical to the CLI binaries' --emit-cells output),
 *    and a final {"event":"finished",...} trailer.
 *
 *  - GET /status — JSON: cache occupancy (entries/bytes/hits/
 *    evictions), program-cache builds, total cell simulations,
 *    in-flight and served session counts, and the simulation queue:
 *    queuedCells (cells of every session waiting for the simulation
 *    thread) and runningCells (cells simulating right now).
 *
 *  - GET /figures — JSON list of openable figure names and titles.
 *
 * The loop only parses requests, probes caches, drains completions and
 * writes sockets; it never runs a cell. The server owns one CellPool
 * (harness/session.hh), built before the first connection and
 * destroyed after the last, and every session submits its cache
 * misses to it. The pool deals cells round-robin across sessions, one
 * cell per session per turn, and the loop polls each session's
 * wakeFd to stream completions as they land, so a warm request
 * answers while a cold cell simulates. A client that disconnects
 * mid-stream (EPIPE) aborts only its own session: undealt cells are
 * dropped, and a cell already running completes, reaches the memory
 * cache, and finishes the session when its completion wakes the loop.
 * requestStop() (the SIGTERM path) closes the listener and drains:
 * in-flight sessions finish streaming, then run() returns.
 */

#ifndef SVW_SERVICE_SERVER_HH
#define SVW_SERVICE_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>

namespace svw::harness {
class CellPool;
}

namespace svw::service {

struct SweepdOptions
{
    /** TCP port; 0 = ephemeral (tests read the bound port back). */
    unsigned port = 8573;
    std::string bindAddr = "127.0.0.1";
    std::string cacheDir;  ///< optional persistent result cache
    /** In-memory result cache cap in MB; 0 = unbounded. */
    std::uint64_t memCacheMaxMb = 512;
    std::size_t maxHeadBytes = 16 * 1024;
    std::size_t maxBodyBytes = 64 * 1024;
    bool quiet = false;  ///< suppress per-request stderr log lines
};

/**
 * Parse sweepd's command line:
 *   --port=N --bind=ADDR --cache-dir=D --mem-cache-max-mb=N --quiet
 * Unknown flags, malformed numbers, and out-of-range ports are usage
 * errors (exit 2), matching the bench binaries' contract.
 */
SweepdOptions parseSweepdArgs(int argc, char **argv);

/**
 * The server. Construction binds and listens (throws std::runtime_error
 * on failure); run() drives the event loop until requestStop() — which
 * is async-signal-safe — has been called and every connection drained.
 */
class SweepServer
{
  public:
    explicit SweepServer(SweepdOptions opts);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** The bound port (resolves port=0 to the kernel's pick). */
    unsigned port() const { return port_; }

    /** Event loop; blocks until stopped and drained. */
    void run();

    /** Begin graceful shutdown. Safe from signal handlers and other
     * threads: writes one byte to the loop's stop pipe. */
    void requestStop();

    /** Sweep sessions completed (finished or aborted) so far. */
    std::uint64_t sessionsServed() const { return sessionsServed_; }

  private:
    struct Conn;

    void acceptClients();
    void readConn(Conn &c);
    void dispatch(Conn &c);
    void startSweep(Conn &c);
    void stepConn(Conn &c);
    void finishSession(Conn &c);
    void failConn(Conn &c);
    void flushConn(Conn &c);
    std::string statusJson() const;

    SweepdOptions opts_;
    /** The simulation thread every session shares; declared before
     * conns_ so it outlives every session. */
    std::unique_ptr<harness::CellPool> pool_;
    unsigned port_ = 0;
    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    bool stopping_ = false;
    std::uint64_t sessionsServed_ = 0;
    std::list<std::unique_ptr<Conn>> conns_;
};

} // namespace svw::service

#endif // SVW_SERVICE_SERVER_HH
