/**
 * @file
 * Sweep executor primitives: execution options, the per-cell runner
 * (runCell), the process-wide ProgramCache and in-memory result-cache
 * front, and the one-shot runSweep entry point. Orchestration — shard
 * selection, cache probing, the in-caller executor and the CellPool
 * worker threads, and the streaming per-cell event API — lives in
 * harness/session.hh
 * (SweepSession); runSweep is a thin wrapper that opens a session and
 * runs it to completion. A sweep runs its cells in the calling thread
 * (--threads=0, the default) or on N worker threads in one address
 * space (--threads=N), with optional cross-machine sharding
 * (--shard=i/n), and merges per-cell results in spec order.
 *
 * Worker threads (docs/ARCHITECTURE.md "Sweep execution") share
 * one ProgramCache (one decode per (workload, insts) for the whole
 * sweep) and the process-wide in-memory ResultCache front. On either
 * executor a cell that throws fails only itself (recorded with the
 * exception text) and the sweep moves on; a cell that *crashes* the
 * process takes the process down, and sweep_driver's process-per-shard
 * runs are where crash isolation lives. Merged results are
 * byte-identical across executors and thread counts.
 *
 * Sharding partitions by *group* (figure row), not by cell, so every
 * row's baseline and variants land in the same shard and speedup
 * columns stay computable; the union of all shards is exactly the full
 * cell set.
 */

#ifndef SVW_HARNESS_EXECUTOR_HH
#define SVW_HARNESS_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "harness/sweep.hh"
#include "prog/program.hh"

namespace svw::harness {

/** Default MemoryResultCache byte cap: generous for a figure binary's
 * handful of sweeps, finite for a daemon (--mem-cache-max-mb). */
inline constexpr std::uint64_t memoryResultCacheDefaultMaxBytes =
    512ull * 1024 * 1024;

/** How to execute a sweep. */
struct SweepOptions
{
    /**
     * Worker threads; 0 = run every cell in the calling thread. When
     * >= 1, the session runs its cells on a private CellPool of this
     * many workers in one address space, sharing the process
     * ProgramCache and the in-memory ResultCache front. Results are
     * byte-identical for every value.
     */
    unsigned threads = 0;
    /** Inert: read by nothing. Kept only so existing callers that
     * assign it still compile; removed with the next benchmark
     * change. */
    unsigned batch = 0;
    /**
     * When nonzero and a cacheDir is set: after the sweep's results
     * are stored, LRU-trim the cache directory to at most this many
     * megabytes (oldest access stamp first; in-flight temp files are
     * never touched). See ResultCache::trimToBytes.
     */
    std::uint64_t cacheMaxMb = 0;
    /** Cross-machine split: this invocation runs the groups whose
     * first-appearance index i satisfies i % shardCount == shardIndex. */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /**
     * Persistent result-cache directory (harness/sweep.hh ResultCache);
     * empty disables caching. Cacheable cells are looked up *before*
     * any cell runs — a hit is recorded as a completed outcome
     * (cached=true, zero timing) without running anything — and
     * successful misses are stored after the sweep, so a repeated
     * sweep only simulates changed cells.
     */
    std::string cacheDir;
    /**
     * Probe and populate the process-wide in-memory result-cache front
     * even with no cacheDir (sweepd: warm repeat requests must
     * simulate nothing without the daemon ever touching disk). With a
     * cacheDir set the memory front is always active; this flag adds
     * the disk-less mode.
     */
    bool memCache = false;
    /**
     * Attach the stage profiler (base/profile.hh) to every cell run:
     * per-stage host-ns attribution lands in each RunResult's prof_*
     * fields and in the process collector for folded output. Host
     * observation only — simulated cycles and metrics are
     * byte-identical — but the timer reads make host wall
     * measurements meaningless, so a profiled sweep bypasses the
     * result cache entirely (no probes, no stores).
     */
    bool profile = false;
};

/** Monotonic host wall-clock seconds (arbitrary origin). */
double hostSeconds();

/** Count of runCell invocations in this process, from any thread.
 * Test instrumentation: a fully warm-cache sweep serves hits without
 * running anything, so it must leave the count unchanged. */
std::uint64_t runCellCalls();

/**
 * Per-process cache of built workload programs: each (workload,
 * targetInsts, augment) program is constructed once and shared by
 * reference across every config cell that uses it. The augment
 * (workloads::cacheKeyAugment) is what makes a "trace:" slot
 * content-keyed: a rewritten trace file is a different program, in
 * its own slot, exactly as cellKey treats it.
 *
 * Thread-safe: concurrent get()s for one key build the program exactly
 * once (the others block on its slot), and builds of *different*
 * programs proceed in parallel — the map mutex is held only for slot
 * lookup, never across a build. References stay valid for the cache's
 * lifetime (map nodes are stable under insertion).
 */
class ProgramCache
{
  public:
    /** Build-or-fetch the program whose content @p augment names (a
     * sweep passes the augment its cell keys carry). The build reads a
     * trace file once for both program and augment, and throws if the
     * file no longer holds that content. The reference stays valid for
     * the cache's lifetime. */
    const Program &get(const std::string &workload,
                       std::uint64_t targetInsts,
                       const std::string &augment);

    /** Same, for the workload's current content (computes the augment;
     * for a trace that is one more read of the file). */
    const Program &get(const std::string &workload,
                       std::uint64_t targetInsts);

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return slots_.size();
    }
    std::uint64_t builds() const
    {
        return builds_.load(std::memory_order_relaxed);
    }

  private:
    /** One program's build-once slot; the per-slot once_flag is what
     * lets distinct programs build concurrently. */
    struct Slot
    {
        std::once_flag once;
        std::optional<Program> program;
    };

    mutable std::mutex mutex_;  ///< guards slots_ (lookup/insert only)
    std::map<std::tuple<std::string, std::uint64_t, std::string>, Slot>
        slots_;
    std::atomic<std::uint64_t> builds_{0};
};

/**
 * The process-wide workload-program cache used by every sweep:
 * consecutive sweeps in one process share one build of each
 * (workload, insts) program instead of rebuilding per runSweep call. Callers owning their
 * lifetime (tests) can still construct private ProgramCaches.
 */
ProgramCache &processProgramCache();

/**
 * In-memory front of the persistent ResultCache (harness/sweep.hh):
 * a hash map keyed by CellKey's parts — the interned config text
 * (compared by address), workload, insts, golden flag and augment —
 * so a probe hashes a workload name and a pointer, never the 1.15-KB
 * key material, and a hit is exact by the key's own equality. Each
 * entry stores its RunResult and that result's runResultToJson line,
 * so a warm hit copies the line instead of rendering it.
 * runSweep probes it before the disk store,
 * so within one process a warm hit never touches the filesystem, and
 * every disk hit or fresh result is promoted so the *next* sweep in
 * this process (bench binaries run several; sweepd runs thousands) is
 * served from memory. Entries are valid independent of which
 * --cache-dir they came from: a cell's RunResult is a pure function
 * of its key, which already embeds the code-version stamp.
 * Only consulted when a sweep runs with a cacheDir or opts into the
 * memory front (SweepOptions::memCache) — caching stays opt-in.
 * Thread-safe (one mutex; probes happen on the driving thread, so
 * contention is nil).
 *
 * Bounded: the cache LRU-evicts once its estimated footprint exceeds
 * setMaxBytes (default memoryResultCacheDefaultMaxBytes — generous
 * for a figure binary, but a hard cap so a long-lived daemon serving
 * an unbounded stream of distinct cells cannot grow without limit).
 * get() refreshes recency; put() inserts at the front and evicts from
 * the tail. The newest entry is never evicted, so a just-stored
 * result can always be served back.
 */
class MemoryResultCache
{
  public:
    /** @return true and fill @p out when @p key is cached (refreshes
     * the entry's LRU recency). */
    bool get(const CellKey &key, RunResult &out) const;

    /** get(), also copying the entry's stored result line — exactly
     * runResultToJson(out) — into @p line. */
    bool get(const CellKey &key, RunResult &out, std::string &line) const;

    /** Insert or overwrite @p key's entry, then LRU-evict down to the
     * byte cap. Renders the entry's result line. */
    void put(const CellKey &key, const RunResult &r);

    /** put() with the line already rendered: @p line must be
     * runResultToJson(@p r). */
    void put(const CellKey &key, const RunResult &r, std::string line);

    std::size_t entries() const;
    /** Estimated resident bytes of all entries. */
    std::size_t bytes() const;
    /** Served hits since process start / clear(). */
    std::uint64_t hits() const;
    /** Entries LRU-evicted since process start / clear(). */
    std::uint64_t evictions() const;
    /** Set the byte cap (--mem-cache-max-mb); 0 = unbounded. Evicts
     * immediately if the cache is already over the new cap. */
    void setMaxBytes(std::uint64_t maxBytes);
    std::uint64_t maxBytes() const;
    /** Drop everything (test isolation); keeps the configured cap. */
    void clear();

  private:
    /** Points at a map key: element addresses survive rehashing, so
     * the LRU list names each key without copying it. */
    using Lru = std::list<const CellKey *>;

    struct Entry
    {
        RunResult result;
        std::string line;  ///< runResultToJson(result)
        Lru::iterator lru; ///< slot in lru_
        std::size_t bytes = 0;
    };

    static std::size_t entryBytes(const CellKey &key, const Entry &e);
    /** The entry for @p key with its recency refreshed and the hit
     * counted; null on a miss. */
    const Entry *hitLocked(const CellKey &key) const;
    void evictOverCapLocked();

    mutable std::mutex mutex_;
    /** Key -> entry; each key is stored once, here. */
    std::unordered_map<CellKey, Entry, CellKeyHash> entries_;
    /** Map keys, most recently used first. */
    mutable Lru lru_;
    std::size_t bytes_ = 0;
    std::uint64_t maxBytes_ = memoryResultCacheDefaultMaxBytes;
    mutable std::uint64_t hits_ = 0;
    std::uint64_t evictions_ = 0;
};

/** The process-wide in-memory result-cache front. */
MemoryResultCache &processMemoryResultCache();

/**
 * Execute one cell in the calling thread. Does not catch: a
 * golden-model mismatch or other fatal propagates to the caller (the
 * session records it as a failed cell). @p augment, when given, is the
 * workload's cacheKeyAugment as the cell's key saw it (null: compute
 * it from the workload's current content).
 */
CellOutcome runCell(const SweepCell &cell, ProgramCache &cache,
                    bool profile = false,
                    const std::string *augment = nullptr);

/** Execute the sweep per @p opts; outcomes merged in spec order. */
SweepResults runSweep(const SweepSpec &spec, const SweepOptions &opts = {});

} // namespace svw::harness

#endif // SVW_HARNESS_EXECUTOR_HH
