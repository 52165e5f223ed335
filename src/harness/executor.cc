#include "harness/executor.hh"

#include <atomic>
#include <chrono>
#include <utility>

#include "harness/serialize.hh"
#include "prog/workloads/workloads.hh"

namespace svw::harness {

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const Program &
ProgramCache::get(const std::string &workload, std::uint64_t targetInsts)
{
    Slot *slot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot = &slots_[std::make_pair(workload, targetInsts)];
    }
    // Build outside the map mutex so different programs build in
    // parallel; call_once serializes (and de-duplicates) builders of
    // *this* program. A throwing build leaves the flag unset, so the
    // next get() retries instead of serving an empty slot.
    std::call_once(slot->once, [&] {
        slot->program.emplace(workloads::make(workload, targetInsts));
        // Force the lazy per-instruction predecode table NOW, while
        // this thread still owns the program exclusively: once the
        // slot is published, thread-pool workers share the Program
        // const-ref, and a first-use build from two cores at once
        // would race on the mutable table.
        slot->program->predecoded();
        builds_.fetch_add(1, std::memory_order_relaxed);
    });
    return *slot->program;
}

namespace {

// Atomic: worker threads bump it concurrently. Relaxed is enough — it
// is test instrumentation, never synchronization.
std::atomic<std::uint64_t> gCellRuns{0};

} // namespace

std::uint64_t
runCellCalls()
{
    return gCellRuns.load(std::memory_order_relaxed);
}

std::size_t
MemoryResultCache::entryBytes(const CellKey &key, const Entry &e)
{
    // Footprint estimate, not an exact malloc accounting: the fixed
    // key and Entry (RunResult is flat), every string buffer the entry
    // owns by capacity (a synth workload name outgrows the
    // small-string buffer; the result line is about 0.4 KB), and a
    // small allowance for the map node + list node overhead. The
    // interned config text the key points at is shared by every entry
    // of its config and is not charged: the intern table sits outside
    // this budget, bounded by the configs the figure builders define.
    return sizeof(CellKey) + sizeof(Entry) + key.workload.capacity() +
           key.augment.capacity() + e.result.workload.capacity() +
           e.result.config.capacity() + e.line.capacity() + 64;
}

const MemoryResultCache::Entry *
MemoryResultCache::hitLocked(const CellKey &key) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // refresh recency
    ++hits_;
    return &it->second;
}

bool
MemoryResultCache::get(const CellKey &key, RunResult &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry *e = hitLocked(key);
    if (e)
        out = e->result;
    return e;
}

bool
MemoryResultCache::get(const CellKey &key, RunResult &out,
                       std::string &line) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry *e = hitLocked(key);
    if (e) {
        out = e->result;
        line = e->line;
    }
    return e;
}

void
MemoryResultCache::evictOverCapLocked()
{
    // The newest entry survives even a sub-entry cap: a just-stored
    // result must be servable back, and a cap of "less than one
    // entry" should degrade to "cache of one", not "cache of none".
    while (maxBytes_ > 0 && bytes_ > maxBytes_ && entries_.size() > 1) {
        auto it = entries_.find(*lru_.back());
        bytes_ -= it->second.bytes;
        lru_.pop_back();
        entries_.erase(it);
        ++evictions_;
    }
}

void
MemoryResultCache::put(const CellKey &key, const RunResult &r)
{
    put(key, r, runResultToJson(r));
}

void
MemoryResultCache::put(const CellKey &key, const RunResult &r,
                       std::string line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    Entry &e = it->second;
    if (inserted) {
        lru_.push_front(&it->first);
        e.lru = lru_.begin();
    } else {
        bytes_ -= e.bytes;
        lru_.splice(lru_.begin(), lru_, e.lru);
    }
    e.result = r;
    e.line = std::move(line);
    e.bytes = entryBytes(it->first, e);
    bytes_ += e.bytes;
    evictOverCapLocked();
}

std::size_t
MemoryResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
MemoryResultCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

std::uint64_t
MemoryResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
MemoryResultCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

void
MemoryResultCache::setMaxBytes(std::uint64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxBytes_ = maxBytes;
    evictOverCapLocked();
}

std::uint64_t
MemoryResultCache::maxBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return maxBytes_;
}

void
MemoryResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
    hits_ = 0;
    evictions_ = 0;
}

MemoryResultCache &
processMemoryResultCache()
{
    // Function-local static, like processProgramCache: results persist
    // for the process so consecutive cached sweeps never re-read disk.
    static MemoryResultCache cache;
    return cache;
}

ProgramCache &
processProgramCache()
{
    // Function-local static: built programs persist for the process
    // (bench binaries exit after a few sweeps; tests share workloads
    // across many small sweeps).
    static ProgramCache cache;
    return cache;
}

CellOutcome
runCell(const SweepCell &cell, ProgramCache &cache, bool profile)
{
    gCellRuns.fetch_add(1, std::memory_order_relaxed);
    CellOutcome o;
    o.ran = true;
    const Program &prog = cache.get(cell.workload, cell.targetInsts);

    RunRequest req;
    req.workload = cell.workload;
    req.targetInsts = cell.targetInsts;
    req.config = cell.config;
    req.goldenCheck = cell.goldenCheck;
    req.profile = profile;
    req.hook = cell.hook;

    const double t0 = hostSeconds();
    o.result = runOne(req, prog);
    o.seconds = hostSeconds() - t0;
    o.ok = true;
    return o;
}

} // namespace svw::harness
