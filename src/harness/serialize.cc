#include "harness/serialize.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace svw::harness {

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
appendEscaped(std::string &out, const std::string &s)
{
    static constexpr char hex[] = "0123456789abcdef";
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
}

void
appendDouble(std::string &out, double v)
{
    // Non-finite doubles as distinguished strings: %.17g would emit
    // bare nan/inf tokens, which are not JSON, and the result cache
    // persists these lines for external tools to read.
    if (std::isnan(v)) {
        out += "\"NaN\"";
        return;
    }
    if (std::isinf(v)) {
        out += v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
        return;
    }
    // General format at precision 17 is defined as printf's %.17g.
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 17)
                        .ptr);
}

void
appendRunResult(std::string &out, const RunResult &r)
{
    auto u64 = [&out](const char *key, std::uint64_t v) {
        out += key;
        appendU64(out, v);
    };
    auto dbl = [&out](const char *key, double v) {
        out += key;
        appendDouble(out, v);
    };
    out += "{\"workload\":\"";
    appendEscaped(out, r.workload);
    out += "\",\"config\":\"";
    appendEscaped(out, r.config);
    out += r.halted ? "\",\"halted\":true" : "\",\"halted\":false";
    out += r.goldenOk ? ",\"golden_ok\":true" : ",\"golden_ok\":false";
    u64(",\"cycles\":", r.cycles);
    u64(",\"insts\":", r.insts);
    u64(",\"loads\":", r.loads);
    u64(",\"stores\":", r.stores);
    dbl(",\"ipc\":", r.ipc);
    u64(",\"loads_marked\":", r.loadsMarked);
    u64(",\"loads_reexecuted\":", r.loadsReExecuted);
    u64(",\"loads_filtered_by_svw\":", r.loadsFilteredBySvw);
    u64(",\"rex_flushes\":", r.rexFlushes);
    dbl(",\"rex_rate\":", r.rexRate);
    dbl(",\"marked_rate\":", r.markedRate);
    dbl(",\"elim_rate\":", r.elimRate);
    dbl(",\"bypass_share\":", r.bypassShare);
    dbl(",\"fsq_load_share\":", r.fsqLoadShare);
    u64(",\"branch_squashes\":", r.branchSquashes);
    u64(",\"ordering_squashes\":", r.orderingSquashes);
    u64(",\"wrap_drains\":", r.wrapDrains);
    // Profile attribution keys ("prof_<stage>_ns") are emitted only
    // for profiled runs: profiled results never enter the result
    // cache, and unprofiled lines stay byte-identical to the pre-
    // profiler wire format.
    if (r.profTicks) {
        for (unsigned s = 0; s < prof::NumStages; ++s) {
            out += ",\"prof_";
            out += prof::stageName(prof::Stage(s));
            out += "_ns\":";
            appendU64(out, r.profStageNs[s]);
        }
        u64(",\"prof_ticks\":", r.profTicks);
        u64(",\"prof_cell_ns\":", r.profCellNs);
    }
    out += '}';
}

/** Room for a plain result line with long names: one allocation. */
constexpr std::size_t resultLineReserve = 512;

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

std::string
jsonDouble(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

std::string
runResultToJson(const RunResult &r)
{
    std::string out;
    out.reserve(resultLineReserve);
    appendRunResult(out, r);
    return out;
}

namespace {

/**
 * Cursor over the wire format. Values are strings, numbers, booleans,
 * or one level of nested object; that is everything the writers above
 * produce.
 */
struct Cursor
{
    const char *p;
    const char *end;

    bool atEnd() const { return p >= end; }
    void skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r')) {
            ++p;
        }
    }
    bool consume(char c)
    {
        skipWs();
        if (atEnd() || *p != c)
            return false;
        ++p;
        return true;
    }
    bool peek(char c)
    {
        skipWs();
        return !atEnd() && *p == c;
    }
};

bool
parseString(Cursor &c, std::string &out)
{
    if (!c.consume('"'))
        return false;
    out.clear();
    while (!c.atEnd() && *c.p != '"') {
        char ch = *c.p++;
        if (ch == '\\') {
            if (c.atEnd())
                return false;
            char esc = *c.p++;
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'u': {
                if (c.end - c.p < 4)
                    return false;
                char hex[5] = {c.p[0], c.p[1], c.p[2], c.p[3], 0};
                out += static_cast<char>(std::strtoul(hex, nullptr, 16));
                c.p += 4;
                break;
              }
              default:
                return false;
            }
        } else {
            out += ch;
        }
    }
    return c.consume('"');
}

bool
parseNumberToken(Cursor &c, std::string &tok)
{
    c.skipWs();
    tok.clear();
    while (!c.atEnd() &&
           (std::strchr("+-.0123456789eE", *c.p) != nullptr ||
            std::isalpha(static_cast<unsigned char>(*c.p)))) {
        // isalpha admits true/false (and legacy bare inf/nan tokens;
        // the writer now encodes non-finite doubles as strings).
        tok += *c.p++;
    }
    return !tok.empty();
}

bool parseValueInto(Cursor &c, const std::string &key, RunResult &r);

/** Skip any scalar or (one-level) object value we don't recognize. */
bool
skipValue(Cursor &c)
{
    c.skipWs();
    if (c.peek('"')) {
        std::string s;
        return parseString(c, s);
    }
    if (c.peek('{')) {
        c.consume('{');
        if (c.consume('}'))
            return true;
        do {
            std::string k;
            if (!parseString(c, k) || !c.consume(':') || !skipValue(c))
                return false;
        } while (c.consume(','));
        return c.consume('}');
    }
    std::string tok;
    return parseNumberToken(c, tok);
}

bool
parseU64(Cursor &c, std::uint64_t &v)
{
    std::string tok;
    if (!parseNumberToken(c, tok))
        return false;
    v = std::strtoull(tok.c_str(), nullptr, 10);
    return true;
}

bool
parseDouble(Cursor &c, double &v)
{
    c.skipWs();
    if (c.peek('"')) {
        // jsonDouble's non-finite encoding.
        std::string s;
        if (!parseString(c, s))
            return false;
        if (s == "NaN") {
            v = std::numeric_limits<double>::quiet_NaN();
            return true;
        }
        if (s == "Infinity") {
            v = std::numeric_limits<double>::infinity();
            return true;
        }
        if (s == "-Infinity") {
            v = -std::numeric_limits<double>::infinity();
            return true;
        }
        return false;
    }
    std::string tok;
    if (!parseNumberToken(c, tok))
        return false;
    v = std::strtod(tok.c_str(), nullptr);
    return true;
}

bool
parseBool(Cursor &c, bool &v)
{
    std::string tok;
    if (!parseNumberToken(c, tok))
        return false;
    if (tok == "true") {
        v = true;
        return true;
    }
    if (tok == "false") {
        v = false;
        return true;
    }
    return false;
}

bool
parseValueInto(Cursor &c, const std::string &key, RunResult &r)
{
    if (key == "workload")
        return parseString(c, r.workload);
    if (key == "config")
        return parseString(c, r.config);
    if (key == "halted")
        return parseBool(c, r.halted);
    if (key == "golden_ok")
        return parseBool(c, r.goldenOk);
    if (key == "cycles")
        return parseU64(c, r.cycles);
    if (key == "insts")
        return parseU64(c, r.insts);
    if (key == "loads")
        return parseU64(c, r.loads);
    if (key == "stores")
        return parseU64(c, r.stores);
    if (key == "ipc")
        return parseDouble(c, r.ipc);
    if (key == "loads_marked")
        return parseU64(c, r.loadsMarked);
    if (key == "loads_reexecuted")
        return parseU64(c, r.loadsReExecuted);
    if (key == "loads_filtered_by_svw")
        return parseU64(c, r.loadsFilteredBySvw);
    if (key == "rex_flushes")
        return parseU64(c, r.rexFlushes);
    if (key == "rex_rate")
        return parseDouble(c, r.rexRate);
    if (key == "marked_rate")
        return parseDouble(c, r.markedRate);
    if (key == "elim_rate")
        return parseDouble(c, r.elimRate);
    if (key == "bypass_share")
        return parseDouble(c, r.bypassShare);
    if (key == "fsq_load_share")
        return parseDouble(c, r.fsqLoadShare);
    if (key == "branch_squashes")
        return parseU64(c, r.branchSquashes);
    if (key == "ordering_squashes")
        return parseU64(c, r.orderingSquashes);
    if (key == "wrap_drains")
        return parseU64(c, r.wrapDrains);
    if (key == "prof_ticks")
        return parseU64(c, r.profTicks);
    if (key == "prof_cell_ns")
        return parseU64(c, r.profCellNs);
    if (key.size() > 8 && key.compare(0, 5, "prof_") == 0 &&
        key.compare(key.size() - 3, 3, "_ns") == 0) {
        const std::string stage = key.substr(5, key.size() - 8);
        for (unsigned s = 0; s < prof::NumStages; ++s)
            if (stage == prof::stageName(prof::Stage(s)))
                return parseU64(c, r.profStageNs[s]);
    }
    return skipValue(c);  // unknown key: tolerate (forward compat)
}

bool
parseRunResultObject(Cursor &c, RunResult &r)
{
    if (!c.consume('{'))
        return false;
    if (c.consume('}'))
        return true;
    do {
        std::string key;
        if (!parseString(c, key) || !c.consume(':'))
            return false;
        if (!parseValueInto(c, key, r))
            return false;
    } while (c.consume(','));
    return c.consume('}');
}

} // namespace

bool
runResultFromJson(const std::string &json, RunResult &out)
{
    Cursor c{json.data(), json.data() + json.size()};
    RunResult r;
    if (!parseRunResultObject(c, r))
        return false;
    out = r;
    return true;
}

// Key material must enumerate EVERY field: a knob missing from this
// list would let two different machines share one cache entry. The
// size checks cannot prove the lists are complete, but they force a
// human through this file whenever either struct changes shape —
// update appendCoreParamsKeyText (and, for RunResult, the JSON
// writer/parser: parseValueInto tolerates missing keys, so an
// unlisted new metric would re-parse from old cache entries as its
// default) AND bump resultCacheCodeVersion (harness/sweep.hh) if the
// change alters results. The sizes are ABI-specific, so the tripwire
// is pinned to the toolchain CI enforces rather than breaking other
// builds over std::string layout.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(CoreParams) == 280,
              "CoreParams changed: revisit appendCoreParamsKeyText and the "
              "result-cache code version");
static_assert(sizeof(RunResult) == 288,
              "RunResult changed: update the JSON writer/parser and "
              "bump the result-cache code version");
#endif

void
appendCoreParamsKeyText(std::string &out, const CoreParams &p)
{
    // Every knob prints as a decimal; bools as 0/1.
    auto kv = [&out](const char *name, std::uint64_t v) {
        out += name;
        appendU64(out, v);
    };
    auto cache = [&out](const char *name, const CacheParams &c) {
        out += name;
        appendU64(out, c.sizeBytes);
        out += '/';
        appendU64(out, c.assoc);
        out += '/';
        appendU64(out, c.lineBytes);
        out += '/';
        appendU64(out, c.latency);
    };
    kv("fetchWidth=", p.fetchWidth);
    kv("|dispatchWidth=", p.dispatchWidth);
    kv("|issueWidth=", p.issueWidth);
    kv("|commitWidth=", p.commitWidth);
    kv("|intIssue=", p.intIssue);
    kv("|loadIssue=", p.loadIssue);
    kv("|branchIssue=", p.branchIssue);
    kv("|robEntries=", p.robEntries);
    kv("|iqEntries=", p.iqEntries);
    kv("|numPhysRegs=", p.numPhysRegs);
    kv("|renameCheckpoints=", p.renameCheckpoints);
    kv("|frontendDepth=", p.frontendDepth);
    kv("|mispredictRedirect=", p.mispredictRedirect);
    kv("|rexTransit=", p.rexTransit);
    kv("|dcachePorts=", p.dcachePorts);
    kv("|bpred.hybridEntries=", p.bpred.hybridEntries);
    kv("|bpred.btbEntries=", p.bpred.btbEntries);
    kv("|bpred.btbAssoc=", p.bpred.btbAssoc);
    kv("|bpred.rasEntries=", p.bpred.rasEntries);
    cache("|mem.l1i=", p.mem.l1i);
    cache("|mem.l1d=", p.mem.l1d);
    cache("|mem.l2=", p.mem.l2);
    kv("|mem.memLatency=", p.mem.memLatency);
    kv("|mem.l2BusCyclesPerLine=", p.mem.l2BusCyclesPerLine);
    kv("|mem.memBusCyclesPerLine=", p.mem.memBusCyclesPerLine);
    kv("|mem.l1dBanks=", p.mem.l1dBanks);
    kv("|lsu.lqEntries=", p.lsu.lqEntries);
    kv("|lsu.sqEntries=", p.lsu.sqEntries);
    kv("|lsu.nlq=", p.lsu.nlq);
    kv("|lsu.ssq=", p.lsu.ssq);
    kv("|lsu.fsqEntries=", p.lsu.fsqEntries);
    kv("|lsu.fsqPorts=", p.lsu.fsqPorts);
    kv("|lsu.fwdBufEntriesPerBank=", p.lsu.fwdBufEntriesPerBank);
    kv("|lsu.loadExtraLatency=", p.lsu.loadExtraLatency);
    kv("|lsu.lqValueCheck=", p.lsu.lqValueCheck);
    kv("|lsu.storeIssueWidth=", p.lsu.storeIssueWidth);
    kv("|lsu.steeringEntries=", p.lsu.steeringEntries);
    kv("|svw.enabled=", p.svw.enabled);
    kv("|svw.updateOnForward=", p.svw.updateOnForward);
    kv("|svw.ssnBits=", p.svw.ssnBits);
    kv("|svw.ssbf.entries=", p.svw.ssbf.entries);
    kv("|svw.ssbf.granularityBytes=", p.svw.ssbf.granularityBytes);
    kv("|svw.ssbf.dualHash=", p.svw.ssbf.dualHash);
    kv("|svw.ssbf.infinite=", p.svw.ssbf.infinite);
    kv("|svw.speculativeSsbfUpdate=", p.svw.speculativeSsbfUpdate);
    kv("|rex.enabled=", p.rex.enabled);
    kv("|rex.perfect=", p.rex.perfect);
    kv("|rex.width=", p.rex.width);
    kv("|rex.storeBufferEntries=", p.rex.storeBufferEntries);
    kv("|rex.cacheLatency=", p.rex.cacheLatency);
    kv("|rex.regfileReadLatency=", p.rex.regfileReadLatency);
    kv("|rex.svwReplacesReExecution=", p.rex.svwReplacesReExecution);
    kv("|rle.enabled=", p.rle.enabled);
    kv("|rle.itEntries=", p.rle.itEntries);
    kv("|rle.itAssoc=", p.rle.itAssoc);
    kv("|rle.squashReuse=", p.rle.squashReuse);
    kv("|rle.integrateAlu=", p.rle.integrateAlu);
    kv("|rle.maxPinnedRegs=", p.rle.maxPinnedRegs);
    kv("|nlqsm=", p.nlqsm);
}

std::string
cacheEntryToLine(const std::string &material, const RunResult &r)
{
    std::string out;
    out.reserve(material.size() + resultLineReserve);
    out += "{\"v\":1,\"material\":\"";
    appendEscaped(out, material);
    out += "\",\"result\":";
    appendRunResult(out, r);
    out += "}\n";
    return out;
}

bool
cacheEntryFromLine(const std::string &line, std::string &material,
                   RunResult &r)
{
    Cursor c{line.data(), line.data() + line.size()};
    std::uint64_t version = 0;
    std::string mat;
    RunResult res;
    bool sawMaterial = false, sawResult = false;
    if (!c.consume('{'))
        return false;
    do {
        std::string key;
        if (!parseString(c, key) || !c.consume(':'))
            return false;
        bool good;
        if (key == "v") {
            good = parseU64(c, version);
        } else if (key == "material") {
            good = parseString(c, mat);
            sawMaterial = good;
        } else if (key == "result") {
            good = parseRunResultObject(c, res);
            sawResult = good;
        } else {
            good = skipValue(c);
        }
        if (!good)
            return false;
    } while (c.consume(','));
    if (!c.consume('}') || version != 1 || !sawMaterial || !sawResult)
        return false;
    material = std::move(mat);
    r = res;
    return true;
}

} // namespace svw::harness
