#include "harness/executor.hh"

#include <atomic>
#include <chrono>
#include <utility>

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
MemoryResultCache::entryBytes(const Entry &e) const
{
    // Footprint estimate, not an exact malloc accounting: the fixed
    // Entry (RunResult is flat), the key material string, and a small
    // allowance for the map node + list node overhead.
    return sizeof(Entry) + e.material.size() + 64;
}

bool
MemoryResultCache::get(const CellKey &key, RunResult &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key.hash);
    if (it == entries_.end())
        return false;
    if (it->second.material != key.material)
        return false;  // hash collision: never serve a wrong result
    out = it->second.result;
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // refresh recency
    ++hits_;
    return true;
}

void
MemoryResultCache::evictOverCapLocked()
{
    // The newest entry survives even a sub-entry cap: a just-stored
    // result must be servable back, and a cap of "less than one
    // entry" should degrade to "cache of one", not "cache of none".
    while (maxBytes_ > 0 && bytes_ > maxBytes_ && entries_.size() > 1) {
        const std::uint64_t victim = lru_.back();
        auto it = entries_.find(victim);
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++evictions_;
    }
}

void
MemoryResultCache::put(const CellKey &key, const RunResult &r)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key.hash);
    if (it != entries_.end()) {
        bytes_ -= it->second.bytes;
        it->second.material = key.material;
        it->second.result = r;
        it->second.bytes = entryBytes(it->second);
        bytes_ += it->second.bytes;
        lru_.splice(lru_.begin(), lru_, it->second.lru);
    } else {
        lru_.push_front(key.hash);
        Entry &e = entries_[key.hash];
        e.material = key.material;
        e.result = r;
        e.lru = lru_.begin();
        e.bytes = entryBytes(e);
        bytes_ += e.bytes;
    }
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
