/**
 * @file
 * SweepSession implementation — the one execution path behind every
 * sweep.
 *
 * Everything that *orchestrates* a sweep lives here: shard selection,
 * cache probing, the in-caller executor, the CellPool worker threads,
 * and the per-cell event stream. What *runs* a cell (runCell, the
 * caches, the counters) stays in executor.cc; runSweep is defined at
 * the bottom of this file as a one-line wrapper over a blocking
 * session.
 */

#include "harness/session.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "base/logging.hh"
#include "base/profile.hh"
#include "harness/serialize.hh"
#include "prog/workloads/workloads.hh"

namespace svw::harness {

namespace {

/** Cell indices selected by the shard, in spec order. */
std::deque<std::size_t>
selectCells(const SweepSpec &spec, const SweepOptions &opts)
{
    svw_assert(opts.shardCount >= 1, "sweep shard count must be >= 1");
    svw_assert(opts.shardIndex < opts.shardCount,
               "sweep shard index ", opts.shardIndex,
               " out of range for /", opts.shardCount);
    std::deque<std::size_t> sel;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const std::size_t g = spec.groupIndex(spec.cell(i).group);
        if (g % opts.shardCount == opts.shardIndex)
            sel.push_back(i);
    }
    // A split wider than the group count leaves trailing shards empty;
    // a silent empty report reads like success, so tell driver users
    // their split is misconfigured.
    if (sel.empty() && opts.shardCount > 1 && spec.size() > 0) {
        std::fprintf(stderr,
                     "warning: --shard=%u/%u selects no groups of sweep"
                     " '%s' (%zu groups; shards beyond the group count"
                     " are empty)\n",
                     opts.shardIndex, opts.shardCount,
                     spec.name().c_str(), spec.groups().size());
    }
    return sel;
}

/** Run one cell with per-cell containment: a throw fails the cell
 * with the exception text, and the caller lives on. */
CellOutcome
runCellContained(const SweepCell &cell, bool profile,
                 const std::string *augment)
{
    try {
        return runCell(cell, processProgramCache(), profile, augment);
    } catch (const std::exception &e) {
        CellOutcome o;
        o.ran = true;
        o.error = e.what();
        return o;
    } catch (...) {
        CellOutcome o;
        o.ran = true;
        o.error = "unknown exception";
        return o;
    }
}

} // namespace

CellPool::CellPool(unsigned workers)
{
    svw_assert(workers >= 1, "CellPool needs at least one worker");
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

CellPool::~CellPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::size_t
CellPool::queuedCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const SweepSession *s : ring_)
        n += s->pending_.size();
    return n;
}

std::size_t
CellPool::runningCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

void
CellPool::attach(SweepSession &s)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ring_.push_back(&s);
    }
    work_.notify_all();
}

std::deque<std::size_t>
CellPool::withdraw(SweepSession &s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.erase(std::remove(ring_.begin(), ring_.end(), &s), ring_.end());
    return std::exchange(s.pending_, {});
}

void
CellPool::waitFor(SweepSession &s)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cellDone_.wait(lock, [&s] {
        return s.pending_.empty() && s.running_ == 0;
    });
}

/**
 * Worker thread body: deal the front session's next cell and run it in
 * this address space, sharing the process ProgramCache (thread-safe
 * build-once) and the executor's atomic counters. Everything a cell
 * *writes* is thread-private (its Core, StatRegistry and MemoryImage,
 * and its own completion record); everything shared is immutable or
 * internally synchronized — so merged outcomes are byte-identical to
 * the in-caller run by construction.
 *
 * The completion and its wake byte are queued under the mutex before
 * the running count drops, so a session waiting in waitFor() cannot be
 * destroyed while a worker still touches it.
 */
void
CellPool::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_.wait(lock, [this] { return stop_ || !ring_.empty(); });
        if (stop_)
            return;
        SweepSession &s = *ring_.front();
        ring_.pop_front();
        const std::size_t idx = s.pending_.front();
        s.pending_.pop_front();
        if (!s.pending_.empty())
            ring_.push_back(&s);
        ++s.running_;
        ++running_;
        // Started notification: queued (not fired) so events always
        // reach the callback on the driving thread.
        s.completed_.push_back({idx, {}, true});
        s.wakeDriver();
        lock.unlock();
        const SweepCell &cell = s.spec_.cell(idx);
        CellOutcome o = runCellContained(cell, s.opts_.profile,
                                         s.augmentFor(cell.workload));
        lock.lock();
        s.completed_.push_back({idx, std::move(o), false});
        s.wakeDriver();
        --s.running_;
        --running_;
        cellDone_.notify_all();
    }
}

SweepSession::SweepSession(SweepSpec spec, SweepOptions opts,
                           CellPool *pool)
    : spec_(std::move(spec)), opts_(std::move(opts)), pool_(pool)
{
}

SweepSession::~SweepSession()
{
    // A session destroyed mid-flight (daemon error path, or a callback
    // exception unwinding out of run()) must not leave a pool worker
    // touching freed state: stop new deals, let this session's running
    // cells finish, and discard their completions.
    if (pool_) {
        abort();
        pool_->waitFor(*this);
    }
    for (int fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
SweepSession::emitStarted(std::size_t idx)
{
    if (!cb_)
        return;
    CellEvent ev;
    ev.kind = CellEventKind::Started;
    ev.index = idx;
    ev.cell = &spec_.cell(idx);
    cb_(ev);
}

void
SweepSession::record(std::size_t idx, CellOutcome o, CellEventKind kind,
                     std::string line)
{
    outcomes_[idx] = std::move(o);
    const CellOutcome &out = outcomes_[idx];
    ++done_;
    if (!out.ok)
        ++failures_;
    if (kind == CellEventKind::CachedHit)
        ++cacheHits_;
    if (!cb_)
        return;
    CellEvent ev;
    ev.kind = kind;
    ev.index = idx;
    ev.cell = &spec_.cell(idx);
    ev.outcome = &out;
    if (out.ok) {
        // A cache hit brings its stored line; a fresh result is
        // rendered here, once, and kept for the memory front.
        ev.resultLine =
            line.empty() ? runResultToJson(out.result) : std::move(line);
    }
    cb_(ev);
    if (kind == CellEventKind::Done && !freshLines_.empty())
        freshLines_[idx] = std::move(ev.resultLine);
}

void
SweepSession::probeAndQueue()
{
    std::deque<std::size_t> cells = selectCells(spec_, opts_);
    selected_ = cells.size();
    outcomes_.assign(spec_.size(), CellOutcome{});

    // Serve cache hits before any cell runs; remember the probed keys
    // so successful misses can be stored without re-deriving them.
    // The in-memory front is probed before the disk store, so within
    // one process a warm hit never touches the filesystem; disk hits
    // and fresh results are promoted into it for the next sweep. A
    // daemon session can opt into the memory front alone (memCache)
    // with no cacheDir at all — warm repeats then simulate nothing
    // without ever touching disk.
    // A profiled sweep bypasses the caches entirely: a cached result
    // carries no attribution, and a profiled result's host timings
    // must never be served as a plain run's.
    if ((!opts_.cacheDir.empty() || opts_.memCache) && !opts_.profile) {
        if (!opts_.cacheDir.empty())
            cache_.emplace(opts_.cacheDir);
        MemoryResultCache &mem = processMemoryResultCache();
        // A trace workload's augment reads and decodes its file:
        // compute it once per distinct workload. Rows keep their
        // cells together, so the map is consulted once per row. The
        // cells then run on the program these augments name.
        const std::pair<const std::string, std::string> *aug = nullptr;
        std::deque<std::size_t> misses;
        for (std::size_t idx : cells) {
            const SweepCell &cell = spec_.cell(idx);
            if (!cellCacheable(cell)) {
                misses.push_back(idx);
                continue;
            }
            if (!aug || aug->first != cell.workload) {
                auto [it, fresh] = augments_.try_emplace(cell.workload);
                if (fresh)
                    it->second = workloads::cacheKeyAugment(cell.workload);
                aug = &*it;
            }
            CellKey key = cellKey(cell, aug->second);
            CellOutcome o;
            std::string line;
            if (mem.get(key, o.result, line)) {
                o.ran = o.ok = o.cached = true;
                record(idx, std::move(o), CellEventKind::CachedHit,
                       std::move(line));
            } else if (cache_ && cache_->get(key, o.result)) {
                line = runResultToJson(o.result);
                mem.put(key, o.result, line);
                o.ran = o.ok = o.cached = true;
                record(idx, std::move(o), CellEventKind::CachedHit,
                       std::move(line));
            } else {
                probed_.emplace_back(idx, std::move(key));
                misses.push_back(idx);
            }
        }
        cells = std::move(misses);
    }
    if (!probed_.empty())
        freshLines_.resize(spec_.size());

    pending_ = std::move(cells);
    queuedCells_ = pending_.size();
}

void
SweepSession::storeFreshResults()
{
    for (const auto &[idx, key] : probed_) {
        const CellOutcome &o = outcomes_[idx];
        if (!o.ran || !o.ok)
            continue;
        // The line its Done event streamed; with no callback, none
        // was rendered yet.
        std::string &line = freshLines_[idx];
        if (line.empty())
            line = runResultToJson(o.result);
        processMemoryResultCache().put(key, o.result, std::move(line));
        if (cache_)
            cache_->put(key, o.result);
    }
    if (cache_ && opts_.cacheMaxMb > 0)
        cache_->trimToBytes(opts_.cacheMaxMb * 1024 * 1024);
    // Every profiled outcome, whichever executor produced it, lands in
    // the process collector so the binary's --profile= folded-stack
    // file covers the whole sweep.
    if (opts_.profile) {
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            const CellOutcome &o = outcomes_[i];
            if (!o.ran || !o.ok || !o.result.profTicks)
                continue;
            prof::StageTimes st;
            for (unsigned s = 0; s < prof::NumStages; ++s)
                st.ns[s] = o.result.profStageNs[s];
            st.ticks = o.result.profTicks;
            prof::collector().add(spec_.cell(i).name(), st,
                                  o.result.profCellNs);
        }
    }
}

SweepResults
SweepSession::run(const SessionCallback &cb)
{
    start(cb);
    while (step()) {
        if (!pool_)
            continue;
        // The pool is busy: sleep until one of its workers reports.
        // EINTR just loops back through step().
        pollfd p{wakeFd(), POLLIN, 0};
        ::poll(&p, 1, -1);
    }
    return finish();
}

void
SweepSession::start(SessionCallback cb)
{
    svw_assert(!started_, "SweepSession::start on a started session");
    cb_ = std::move(cb);
    started_ = true;
    probeAndQueue();
    if (pending_.empty())
        return;
    if (!pool_ && opts_.threads >= 1) {
        ownPool_ = std::make_unique<CellPool>(static_cast<unsigned>(
            std::min<std::size_t>(opts_.threads, pending_.size())));
        pool_ = ownPool_.get();
    }
    if (!pool_)
        return;
    svw_assert(::pipe(wakePipe_) == 0,
               "SweepSession wake pipe: ", std::strerror(errno));
    // Non-blocking on both ends: the driver drains opportunistically
    // and a full pipe just means "already plenty readable".
    for (int fd : wakePipe_)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    pool_->attach(*this);
}

bool
SweepSession::finished() const
{
    // Every counter here moves on the driving thread only.
    return started_ && recordedCells_ + discardedCells_ >= queuedCells_;
}

void
SweepSession::wakeDriver()
{
    const char b = 1;
    // Best-effort: EAGAIN means the pipe is already saturated with
    // wake bytes, which is as awake as a driver can be.
    [[maybe_unused]] ssize_t r = ::write(wakePipe_[1], &b, 1);
}

void
SweepSession::drainCompletions()
{
    // Drain the wake bytes FIRST, then the queue until empty. A worker
    // pushes its completion before writing its byte, so a push that
    // happens after the queue looks empty leaves its byte unread and
    // wakeFd() readable — a spurious wakeup at worst, never a lost one.
    if (wakePipe_[0] >= 0) {
        char buf[256];
        while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
        }
    }
    for (;;) {
        std::deque<Completion> drained;
        {
            std::lock_guard<std::mutex> lock(pool_->mutex_);
            drained.swap(completed_);
        }
        if (drained.empty())
            break;
        for (Completion &c : drained) {
            if (c.isStart) {
                emitStarted(c.index);
                continue;
            }
            ++recordedCells_;
            record(c.index, std::move(c.outcome), CellEventKind::Done);
        }
    }
}

bool
SweepSession::step()
{
    svw_assert(started_ && !finishedCalled_,
               "SweepSession::step outside start()..finish()");
    if (pool_) {
        drainCompletions();
        return !finished();
    }
    if (!pending_.empty()) {
        const std::size_t idx = pending_.front();
        pending_.pop_front();
        emitStarted(idx);
        const SweepCell &cell = spec_.cell(idx);
        CellOutcome o = runCellContained(cell, opts_.profile,
                                         augmentFor(cell.workload));
        ++recordedCells_;
        record(idx, std::move(o), CellEventKind::Done);
    }
    return !finished();
}

void
SweepSession::abort()
{
    const std::deque<std::size_t> dropped =
        pool_ ? pool_->withdraw(*this) : std::exchange(pending_, {});
    discardedCells_ += dropped.size();
}

SweepResults
SweepSession::finish()
{
    svw_assert(started_ && !finishedCalled_,
               "SweepSession::finish outside start()..finish()");
    finishedCalled_ = true;
    // Wait for this session's cells only: the undealt ones, unless
    // abort() discarded them, and the running ones, whose completions
    // are still recorded — they cost the simulation time either way,
    // so their results should reach the caches.
    if (pool_) {
        pool_->waitFor(*this);
        drainCompletions();
    }
    storeFreshResults();
    return SweepResults(spec_, std::move(outcomes_));
}

SweepResults
runSweep(const SweepSpec &spec, const SweepOptions &opts)
{
    return SweepSession(spec, opts).run();
}

} // namespace svw::harness
