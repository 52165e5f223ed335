/**
 * @file
 * SweepSession: the sweep engine's primary entry point.
 *
 * A session owns one sweep end to end — spec selection (sharding),
 * result-cache probing, and execution — and streams per-cell events to
 * its caller as the sweep progresses: cell started, cell done, and
 * cached-hit, each carrying the lossless RunResult JSON line
 * (serialize.hh runResultToJson) for completed cells. The one-shot
 * runSweep (executor.hh) is a thin wrapper that opens a session and
 * runs it to completion; the bench binaries and the sweepd service
 * daemon are both clients of this API.
 *
 * One execution path, two executors. start(cb) probes the caches
 * (firing CachedHit events) and queues the remaining cells; step()
 * then advances the sweep one slice at a time, so an event loop
 * (sweepd) can interleave many sessions with socket I/O:
 *
 *  - in the caller (no pool, threads == 0): step() runs the next
 *    queued cell in the calling thread, one cell per call.
 *  - on a CellPool: start() attaches the session to a pool, whose
 *    workers simulate its cells, and step() only drains finished
 *    cells without blocking. wakeFd() is readable whenever
 *    completions are waiting, so the loop can poll it alongside its
 *    sockets. The pool is either the session's own (threads == N
 *    gives a private pool of N workers) or one the caller shares
 *    across sessions (sweepd passes every session its pool of one).
 *
 * Events always fire on the *driving* thread. finish() waits for this
 * session's cells, writes successful fresh results back to the caches,
 * and returns the merged results. run(cb) is exactly start(cb), step()
 * until finished (blocking in poll(2) on wakeFd() while a pool is
 * busy), then finish().
 *
 * Every executor contains exceptions per cell: a cell that throws is
 * recorded as a failed outcome carrying the exception text, and the
 * sweep goes on (a long-lived daemon must outlive a golden-model
 * mismatch; a figure binary reports the failure and exits 1). An
 * exception thrown by the event callback itself propagates to the
 * caller. abort() discards not-yet-dealt cells so a disconnected
 * client stops costing simulation time. A cell that kills its process
 * takes the session with it; crash isolation comes from running
 * shards as separate processes (bench/sweep_driver.cc).
 *
 * Determinism: outcomes depend only on the cells, so the merged
 * results are byte-identical across driving styles and thread counts —
 * the invariant the CI diff gates enforce.
 */

#ifndef SVW_HARNESS_SESSION_HH
#define SVW_HARNESS_SESSION_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/executor.hh"
#include "harness/sweep.hh"

namespace svw::harness {

/** What happened to a cell (CellEvent::kind). */
enum class CellEventKind
{
    Started,   ///< dealt for execution (no outcome yet)
    Done,      ///< executed; outcome records success or failure
    CachedHit, ///< served from a result cache without simulating
};

/** One streamed per-cell event. Pointers are valid only during the
 * callback (they alias session-owned storage). */
struct CellEvent
{
    CellEventKind kind = CellEventKind::Done;
    std::size_t index = 0;            ///< cell index in the spec
    const SweepCell *cell = nullptr;  ///< always set
    /** Outcome for Done/CachedHit; null for Started. */
    const CellOutcome *outcome = nullptr;
    /** Lossless RunResult JSON line (runResultToJson) for successful
     * Done/CachedHit events; empty otherwise. This is the same format
     * the result cache stores, so a stream consumer (sweepd clients)
     * sees bit-exact metrics. A memory hit carries the line its entry
     * stored; a fresh result's line is rendered once, and the memory
     * front stores that same string. */
    std::string resultLine;
};

using SessionCallback = std::function<void(const CellEvent &)>;

class SweepSession;

/**
 * A fixed set of worker threads that simulate cells for the sessions
 * attached to it. Sessions with undealt cells wait in a ring; a worker
 * takes the front session's next cell, sends the session to the back,
 * runs the cell with per-cell containment, then queues the completion
 * on that session and writes its wake byte. Dealing is therefore
 * round-robin at cell granularity: one cell per session per turn, so
 * a short sweep started beside a long one is not stuck behind it.
 *
 * One mutex guards the ring and, for every attached session, its
 * undealt cells, its completion queue and its running-cell count.
 * Every session using a pool must be destroyed before the pool.
 */
class CellPool
{
  public:
    /** Launch @p workers (>= 1) threads; they idle until a session
     * attaches. */
    explicit CellPool(unsigned workers);
    /** Stop and join the workers. */
    ~CellPool();

    CellPool(const CellPool &) = delete;
    CellPool &operator=(const CellPool &) = delete;

    /** Cells waiting to be dealt, summed over attached sessions. */
    std::size_t queuedCells() const;
    /** Cells being simulated right now. */
    std::size_t runningCells() const;

  private:
    friend class SweepSession;

    void attach(SweepSession &s);
    /** Take @p s out of the ring and return its undealt cells: no
     * worker deals from it after this returns. */
    std::deque<std::size_t> withdraw(SweepSession &s);
    /** Block until @p s has no undealt and no running cells. */
    void waitFor(SweepSession &s);
    void workerMain();

    mutable std::mutex mutex_;
    std::condition_variable work_;      ///< a session attached, or stop
    std::condition_variable cellDone_;  ///< some running cell finished
    std::deque<SweepSession *> ring_;   ///< sessions with undealt cells
    std::size_t running_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;  ///< last: uses everything above
};

/** One sweep, opened over a spec and execution options. */
class SweepSession
{
  public:
    /**
     * The session owns a copy of @p spec (cells, hooks, and all). With
     * @p pool set, the cells run on that shared pool, which must
     * outlive the session, and opts.threads is ignored; otherwise
     * threads >= 1 gives the session a private pool of that width and
     * threads == 0 runs cells in the caller.
     */
    SweepSession(SweepSpec spec, SweepOptions opts,
                 CellPool *pool = nullptr);
    ~SweepSession();

    SweepSession(const SweepSession &) = delete;
    SweepSession &operator=(const SweepSession &) = delete;

    const SweepSpec &spec() const { return spec_; }
    const SweepOptions &options() const { return opts_; }

    /** Run the whole sweep (blocking) and return merged results:
     * start(cb), step() until finished, finish(). */
    SweepResults run(const SessionCallback &cb = nullptr);

    // -- Incremental driving (sweepd's event loop) --------------------

    /** Probe caches, queue the remaining cells, and attach them to
     * the pool, if any. Fires CachedHit events for cache-served
     * cells. */
    void start(SessionCallback cb = nullptr);

    bool started() const { return started_; }

    /** True once every queued cell is recorded or discarded. */
    bool finished() const;

    /**
     * Advance the sweep. In the caller: run the next queued cell in
     * the calling thread. On a pool: drain finished cells without
     * blocking. Events fire on this thread either way.
     * @return false once the session is finished.
     */
    bool step();

    /**
     * Readable whenever pool completions are waiting to be drained;
     * -1 when the session has no cells on a pool. Poll it next to the
     * sockets: when it fires, call step().
     */
    int wakeFd() const { return wakePipe_[0]; }

    /** Discard all not-yet-dealt cells (a disconnected client). The
     * running cells, if any, still complete and are recorded; once
     * they are drained the session is finished(). */
    void abort();

    /** Wait for this session's undealt and running cells (never for
     * another session's), drain remaining events, write fresh results
     * to the caches, and return the merged results. Terminal. */
    SweepResults finish();

    // -- Progress -----------------------------------------------------

    /** Cells selected by this session's shard. */
    std::size_t cellsSelected() const { return selected_; }
    /** Cells recorded so far (cache hits included). */
    std::size_t cellsDone() const { return done_; }
    /** Recorded cells that failed so far. */
    std::size_t failuresSoFar() const { return failures_; }
    /** Cells served from a cache (memory or disk) by this session. */
    std::size_t cacheHits() const { return cacheHits_; }

  private:
    friend class CellPool;

    void probeAndQueue();
    /** Record @p idx's outcome and fire its event; @p line is a cache
     * hit's stored result line (empty: render it if needed). */
    void record(std::size_t idx, CellOutcome o, CellEventKind kind,
                std::string line = {});
    void emitStarted(std::size_t idx);
    void wakeDriver();
    void drainCompletions();
    void storeFreshResults();

    SweepSpec spec_;
    SweepOptions opts_;
    SessionCallback cb_;

    std::vector<CellOutcome> outcomes_;
    std::optional<ResultCache> cache_;
    std::vector<std::pair<std::size_t, CellKey>> probed_;
    /** By cell index, sized only when some cell was probed and
     * missed: the result line each fresh cell's Done event rendered,
     * handed to the memory front at finish(). */
    std::vector<std::string> freshLines_;
    std::deque<std::size_t> pending_;  ///< cells still to run

    bool started_ = false;
    bool finishedCalled_ = false;
    std::size_t selected_ = 0;
    std::size_t done_ = 0;
    std::size_t failures_ = 0;
    std::size_t cacheHits_ = 0;
    std::size_t queuedCells_ = 0;
    std::size_t recordedCells_ = 0;
    std::size_t discardedCells_ = 0;

    // Pool machinery: workers deal cells from pending_ and push
    // completions here; the driving thread drains them in step(). On
    // a pool, pending_, completed_ and running_ are guarded by the
    // pool's mutex. One byte per completion keeps wakeFd readable
    // while the queue is non-empty.
    struct Completion
    {
        std::size_t index = 0;
        CellOutcome outcome;
        bool isStart = false;  ///< a Started notification, no outcome
    };
    std::deque<Completion> completed_;
    std::size_t running_ = 0;  ///< cells dealt and not yet completed
    int wakePipe_[2] = {-1, -1};
    CellPool *pool_ = nullptr;          ///< where cells run; null: caller
    std::unique_ptr<CellPool> ownPool_; ///< the private pool, if any
};

} // namespace svw::harness

#endif // SVW_HARNESS_SESSION_HH
