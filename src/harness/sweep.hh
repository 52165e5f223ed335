/**
 * @file
 * Declarative figure sweeps.
 *
 * Every paper figure (and ablation, and the perf tracker) is a
 * (workload x configuration) grid of independent cells. A SweepSpec
 * names each cell up front — its group (figure row, usually the
 * workload), column label, workload, instruction budget, configuration,
 * and whether it is the row's speedup baseline — and the executor
 * (harness/executor.hh) runs the cells in the calling thread or on
 * worker threads and hands back a SweepResults merged in spec order.
 * The bench binaries only declare cells and format tables; iteration,
 * sharding, parallelism, and workload-program caching all live behind
 * runSweep.
 *
 * Determinism invariant: cell outcomes depend only on the cell (each
 * cell's simulation runs on one thread and is seeded), so the merged
 * results — and any report formatted from them — are byte-identical
 * for every --threads value and equal to the sequential in-caller
 * run. Parallelism only reorders *when* cells run, never what they
 * compute.
 */

#ifndef SVW_HARNESS_SWEEP_HH
#define SVW_HARNESS_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/config.hh"
#include "harness/runner.hh"

namespace svw::harness {

/** One named (workload, configuration) cell of a sweep. */
struct SweepCell
{
    std::string group;    ///< figure row key (usually the workload)
    std::string label;    ///< column label, unique within the group
    std::string workload; ///< workloads::make name
    std::uint64_t targetInsts = 100'000;
    ExperimentConfig config{};
    bool baseline = false;    ///< the group's speedup reference
    bool goldenCheck = true;  ///< cross-check against the interpreter
    /** Optional per-cycle hook (invalidation injectors). Runs on the
     * thread that executes the cell. */
    std::function<void(Core &)> hook;

    /** Unique cell name: "group/label". */
    std::string name() const { return group + "/" + label; }
};

/** An ordered, named collection of sweep cells. */
class SweepSpec
{
  public:
    explicit SweepSpec(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Append a cell; names must be unique (panics otherwise).
     * @return the cell's index. */
    std::size_t add(SweepCell cell);

    std::size_t size() const { return cells_.size(); }
    const SweepCell &cell(std::size_t i) const { return cells_.at(i); }
    const std::vector<SweepCell> &cells() const { return cells_; }

    /** Group keys in first-appearance order. */
    const std::vector<std::string> &groups() const { return groups_; }

    /** Zero-based first-appearance index of @p group (panics if
     * unknown); the shard selector partitions on this. */
    std::size_t groupIndex(const std::string &group) const;

    /** Cell index by (group, label); panics if unknown. */
    std::size_t index(const std::string &group,
                      const std::string &label) const;

    /** Index of @p group's baseline cell; panics if none was marked. */
    std::size_t baselineIndex(const std::string &group) const;

  private:
    std::string name_;
    std::vector<SweepCell> cells_;
    std::vector<std::string> groups_;
    std::map<std::string, std::size_t> byName_;
    std::map<std::string, std::size_t> groupIndex_;
    std::map<std::string, std::size_t> baselineByGroup_;
};

/** Execution outcome of one cell. */
struct CellOutcome
{
    bool ran = false;  ///< selected by the shard and attempted
    bool ok = false;   ///< completed; result is valid
    /** Served from the persistent ResultCache: no simulation ran and
     * the timing fields are zero. */
    bool cached = false;
    std::string error; ///< failure description when !ok
    double seconds = 0.0;  ///< host wall of the cell's run
    RunResult result{};
};

// ---------------------------------------------------------------------------
// Persistent result cache
// ---------------------------------------------------------------------------

/**
 * Code-version stamp baked into every cache key. The key material
 * already covers every CoreParams knob (serialize.hh
 * appendCoreParamsKeyText), so parameter changes self-invalidate; bump this
 * stamp for changes that alter simulated timing or metrics *without*
 * touching any parameter — a new scheduling rule, a bug fix in the
 * core, a workload-generator change. Stale entries are never deleted,
 * just never matched again.
 */
inline constexpr const char *resultCacheCodeVersion = "svw-sim-2";

/**
 * Content-addressed identity of a cell's RunResult. Its parts are the
 * code-version stamp, workload, insts, goldenCheck, the config's key
 * text (its label and the full CoreParams text) and the workload's
 * content augment. material() renders them as the human-readable key
 * material (version | workload | insts | goldenCheck | config label |
 * full CoreParams text | augment).
 *
 * The config text is rendered once per distinct ExperimentConfig and
 * interned process-wide, deduplicated by content, so two keys compare
 * equal exactly when their materials would. The in-memory front is
 * keyed by these parts and never renders the material. The disk
 * store names each entry file by a 64-bit FNV-1a hash of the material
 * and embeds the material in the file, so a lookup verifies it — a
 * hash collision degrades to a miss, never a wrong hit.
 * Group/label/baseline naming is deliberately NOT part of the key:
 * identical (workload, insts, config) cells share one entry across
 * figures.
 */
struct CellKey
{
    /** The config's interned key text; null only in a
     * default-constructed key. */
    const std::string *configText = nullptr;
    std::string workload;
    std::uint64_t insts = 0;
    bool goldenCheck = true;
    /** workloads::cacheKeyAugment(workload): a trace file's content
     * identity, empty for every other workload. */
    std::string augment;

    /** The full key material (the disk store's file content). */
    std::string material() const;
    /** FNV-1a 64 of the material; only the disk store needs it. */
    std::uint64_t hash() const;
    /** Cache file name: hash() as 16 hex digits + ".json". */
    std::string fileName() const;

    bool operator==(const CellKey &) const = default;
};

/** Hash of a CellKey's parts (the memory front's map hash). */
struct CellKeyHash
{
    std::size_t operator()(const CellKey &k) const;
};

/** Derive the cache key for @p cell (expands the cell's
 * ExperimentConfig through buildParams so every machine knob counts;
 * the expansion runs once per distinct config per process). */
CellKey cellKey(const SweepCell &cell);

/** cellKey with the workload's cacheKeyAugment already computed, so a
 * sweep reads a trace file once per workload, not once per cell. */
CellKey cellKey(const SweepCell &cell, std::string augment);

/**
 * True when the cell's outcome is a pure function of its key: no
 * injected per-cycle hook (hooks perturb the simulation and cannot be
 * serialized). Non-cacheable cells always execute.
 */
bool cellCacheable(const SweepCell &cell);

/**
 * On-disk store: one JSON-line file per key under a directory
 * (serialize.hh cacheEntryToLine — the sweep engine's lossless wire
 * format, so a warm read is bit-exact). Writes go to a temp file in
 * the same directory and are renamed into place, so concurrent
 * writers (sweep_driver shards sharing one --cache-dir) and crashed
 * writers can never leave a reader a partial entry: a reader sees the
 * old entry, a complete new entry, or a miss.
 */
class ResultCache
{
  public:
    /** Creates @p dir (and parents) if missing; fatal if impossible. */
    explicit ResultCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /** @return true and fill @p out on a verified hit. */
    bool get(const CellKey &key, RunResult &out) const;

    /** Best-effort atomic store; I/O failures warn and drop the entry
     * (the cache is an accelerator, never a correctness dependency).
     * The first store also garbage-collects orphaned temp files from
     * writers killed mid-store (age > 1 h) — put-side so fully warm
     * runs never pay the directory walk. */
    void put(const CellKey &key, const RunResult &r) const;

    /**
     * Size-bounded LRU eviction (--cache-max-mb): delete
     * least-recently-used entries until the directory's entry files
     * total at most @p maxBytes. "Used" is the file's write stamp —
     * get() refreshes it on every hit (most mounts are noatime, so
     * the cache keeps its own access stamp in mtime) — so the oldest
     * stamps really are the least recently served. Only `<hash>.json`
     * entry files are candidates: in-flight `.tmp.` files (a
     * concurrent writer mid-put) are never collected. Best-effort
     * like put(); all I/O errors are ignored.
     */
    void trimToBytes(std::uint64_t maxBytes) const;

  private:
    void collectTempLitter() const;

    std::string dir_;
    mutable bool gcDone_ = false;
};

/** Merged, spec-ordered results of a sweep. */
class SweepResults
{
  public:
    SweepResults(SweepSpec spec, std::vector<CellOutcome> outcomes);

    const SweepSpec &spec() const { return spec_; }

    const CellOutcome &outcome(std::size_t i) const
    {
        return outcomes_.at(i);
    }
    const CellOutcome &outcome(const std::string &group,
                               const std::string &label) const
    {
        return outcomes_.at(spec_.index(group, label));
    }

    /** Result of a completed cell; panics if the cell did not run or
     * failed (callers gate rows on groupOk first). */
    const RunResult &result(const std::string &group,
                            const std::string &label) const;

    /** The group's baseline-cell result (same gating as result()). */
    const RunResult &baseline(const std::string &group) const;

    /** Groups selected by this run's shard, in spec order. */
    std::vector<std::string> shardGroups() const;

    /** True if every cell of @p group ran and succeeded. */
    bool groupOk(const std::string &group) const;

    /** Number of cells that ran and failed. */
    std::size_t failures() const;

  private:
    SweepSpec spec_;
    std::vector<CellOutcome> outcomes_;
};

} // namespace svw::harness

#endif // SVW_HARNESS_SWEEP_HH
