#include "harness/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "base/logging.hh"
#include "harness/serialize.hh"
#include "prog/workloads/workloads.hh"

namespace svw::harness {

std::size_t
SweepSpec::add(SweepCell cell)
{
    // Validate before any mutation: the panics throw, and a caught
    // rejection must leave the spec usable.
    const std::string n = cell.name();
    svw_assert(!byName_.count(n), "duplicate sweep cell ", n);
    if (cell.baseline) {
        svw_assert(!baselineByGroup_.count(cell.group),
                   "two baselines in group ", cell.group);
    }

    const std::size_t idx = cells_.size();
    byName_[n] = idx;
    if (!groupIndex_.count(cell.group)) {
        groupIndex_[cell.group] = groups_.size();
        groups_.push_back(cell.group);
    }
    if (cell.baseline)
        baselineByGroup_[cell.group] = idx;
    cells_.push_back(std::move(cell));
    return idx;
}

std::size_t
SweepSpec::groupIndex(const std::string &group) const
{
    auto it = groupIndex_.find(group);
    svw_assert(it != groupIndex_.end(), "unknown sweep group ", group);
    return it->second;
}

std::size_t
SweepSpec::index(const std::string &group, const std::string &label) const
{
    auto it = byName_.find(group + "/" + label);
    svw_assert(it != byName_.end(), "unknown sweep cell ", group, "/",
               label);
    return it->second;
}

std::size_t
SweepSpec::baselineIndex(const std::string &group) const
{
    auto it = baselineByGroup_.find(group);
    svw_assert(it != baselineByGroup_.end(), "group ", group,
               " has no baseline cell");
    return it->second;
}

SweepResults::SweepResults(SweepSpec spec, std::vector<CellOutcome> outcomes)
    : spec_(std::move(spec)), outcomes_(std::move(outcomes))
{
    svw_assert(outcomes_.size() == spec_.size(),
               "outcome count does not match spec ", spec_.name());
}

const RunResult &
SweepResults::result(const std::string &group, const std::string &label) const
{
    const CellOutcome &o = outcomes_.at(spec_.index(group, label));
    svw_assert(o.ran, "cell ", group, "/", label,
               " was not selected by this shard");
    svw_assert(o.ok, "cell ", group, "/", label, " failed: ", o.error);
    return o.result;
}

const RunResult &
SweepResults::baseline(const std::string &group) const
{
    const std::size_t idx = spec_.baselineIndex(group);
    const CellOutcome &o = outcomes_.at(idx);
    svw_assert(o.ran && o.ok, "baseline of group ", group,
               " unavailable: ", o.error);
    return o.result;
}

std::vector<std::string>
SweepResults::shardGroups() const
{
    std::vector<std::string> out;
    for (const std::string &g : spec_.groups()) {
        for (std::size_t i = 0; i < spec_.size(); ++i) {
            if (spec_.cell(i).group == g && outcomes_[i].ran) {
                out.push_back(g);
                break;
            }
        }
    }
    return out;
}

bool
SweepResults::groupOk(const std::string &group) const
{
    bool any = false;
    for (std::size_t i = 0; i < spec_.size(); ++i) {
        if (spec_.cell(i).group != group)
            continue;
        any = true;
        if (!outcomes_[i].ran || !outcomes_[i].ok)
            return false;
    }
    return any;
}

std::size_t
SweepResults::failures() const
{
    std::size_t n = 0;
    for (const CellOutcome &o : outcomes_) {
        if (o.ran && !o.ok)
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------------------
// Persistent result cache
// ---------------------------------------------------------------------------

std::string
CellKey::fileName() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx.json",
                  static_cast<unsigned long long>(hash));
    return buf;
}

CellKey
cellKey(const SweepCell &cell)
{
    std::ostringstream os;
    // The config *label* is keyed alongside the expanded CoreParams:
    // the cached RunResult embeds it, and two ExperimentConfigs can
    // normalize to identical machine knobs while labeling differently
    // (e.g. svwReplace with SVW disabled) — sharing their entry would
    // serve a result stamped with the other experiment's name.
    // Intentional cross-figure sharing is unaffected: identical
    // ExperimentConfigs have identical labels.
    os << "version=" << resultCacheCodeVersion
       << "|workload=" << cell.workload
       << "|insts=" << cell.targetInsts
       << "|golden=" << (cell.goldenCheck ? 1 : 0)
       << "|label=" << configLabel(cell.config)
       << '|' << coreParamsKeyText(buildParams(cell.config))
       // Content identity for workloads whose name is not a complete
       // recipe (trace files); empty for every other workload, so
       // existing cache entries stay valid.
       << workloads::cacheKeyAugment(cell.workload);

    CellKey key;
    key.material = os.str();
    // FNV-1a 64.
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char ch : key.material) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    key.hash = h;
    return key;
}

bool
cellCacheable(const SweepCell &cell)
{
    return !cell.hook;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec && !std::filesystem::is_directory(dir_)) {
        svw_fatal("cannot create result-cache directory ", dir_, ": ",
                  ec.message());
    }
}

void
ResultCache::collectTempLitter() const
{
    // GC temp droppings from writers that died between open and
    // rename (e.g. an OOM-killed driver shard). An hour of age is far
    // beyond any live put(), so this never races a healthy writer;
    // all errors are ignored — litter is cosmetic, not correctness.
    // Only temp-named files are ever stat'ed, and the walk runs once
    // per process from the first put(), so fully warm (read-only)
    // runs never pay the directory scan.
    namespace fs = std::filesystem;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().filename().string().find(".tmp.") ==
            std::string::npos) {
            continue;
        }
        std::error_code fec;
        const auto mtime = fs::last_write_time(it->path(), fec);
        if (!fec && now - mtime > std::chrono::hours(1))
            fs::remove(it->path(), fec);
    }
}

bool
ResultCache::get(const CellKey &key, RunResult &out) const
{
    const std::string path = dir_ + "/" + key.fileName();
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line))
        return false;
    std::string material;
    RunResult r;
    if (!cacheEntryFromLine(line, material, r))
        return false;  // corruption / foreign file: treat as a miss
    if (material != key.material)
        return false;  // hash collision: never serve a wrong result
    out = std::move(r);
    // Refresh the entry's access stamp so trimToBytes evicts genuinely
    // cold entries first. mtime, not atime: most mounts are noatime/
    // relatime, so atime is not a usable recency signal. Best effort —
    // a read-only cache dir still serves hits, it just trims FIFO.
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    return true;
}

void
ResultCache::trimToBytes(std::uint64_t maxBytes) const
{
    namespace fs = std::filesystem;

    // Entry files only: 16 hex digits + ".json". Anything else in the
    // directory — .tmp. files mid-put, user droppings — is not ours to
    // delete here (temp litter has its own age-gated GC).
    auto isEntryName = [](const std::string &name) {
        if (name.size() != 21 || name.compare(16, 5, ".json") != 0)
            return false;
        return name.find_first_not_of("0123456789abcdef") == 16;
    };

    struct Entry
    {
        fs::file_time_type mtime;
        std::uint64_t size;
        fs::path path;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!isEntryName(it->path().filename().string()))
            continue;
        std::error_code fec;
        const auto mtime = fs::last_write_time(it->path(), fec);
        if (fec)
            continue;
        const auto size = fs::file_size(it->path(), fec);
        if (fec)
            continue;
        total += size;
        entries.push_back(Entry{mtime, size, it->path()});
    }
    if (total <= maxBytes)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    for (const Entry &e : entries) {
        if (total <= maxBytes)
            break;
        std::error_code rec;
        fs::remove(e.path, rec);
        if (!rec)
            total -= e.size;
    }
}

void
ResultCache::put(const CellKey &key, const RunResult &r) const
{
    namespace fs = std::filesystem;
    if (!gcDone_) {
        gcDone_ = true;
        collectTempLitter();
    }
    const std::string target = dir_ + "/" + key.fileName();
    // Same-directory temp + rename: rename(2) is atomic, so a
    // concurrent reader (or a sibling sweep_driver shard writing the
    // same key) sees a complete entry or none. The hostname+pid
    // suffix keeps concurrent writers off each other's temp files —
    // pid alone is not unique across the hosts of an ssh-launched
    // shard set sharing one cache dir.
    char host[64] = "localhost";
    (void)::gethostname(host, sizeof(host) - 1);
    host[sizeof(host) - 1] = '\0';
    const std::string tmp = target + ".tmp." + host + "." +
                            std::to_string(::getpid());
    {
        std::ofstream outf(tmp, std::ios::trunc);
        if (!outf) {
            svw_warn("result cache: cannot write ", tmp);
            return;
        }
        outf << cacheEntryToLine(key.material, r);
        outf.flush();
        if (!outf) {
            svw_warn("result cache: short write to ", tmp);
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
        svw_warn("result cache: rename to ", target, " failed: ",
                 ec.message());
        fs::remove(tmp, ec);
    }
}

} // namespace svw::harness
