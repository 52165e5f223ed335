#include "harness/serialize.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

namespace svw::harness {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonDouble(double v)
{
    // Non-finite doubles as distinguished strings: %.17g would emit
    // bare nan/inf tokens, which are not JSON, and the result cache
    // persists these lines for external tools to read.
    if (std::isnan(v))
        return "\"NaN\"";
    if (std::isinf(v))
        return v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
runResultToJson(const RunResult &r)
{
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(r.workload) << "\""
       << ",\"config\":\"" << jsonEscape(r.config) << "\""
       << ",\"halted\":" << (r.halted ? "true" : "false")
       << ",\"golden_ok\":" << (r.goldenOk ? "true" : "false")
       << ",\"cycles\":" << r.cycles
       << ",\"insts\":" << r.insts
       << ",\"loads\":" << r.loads
       << ",\"stores\":" << r.stores
       << ",\"ipc\":" << jsonDouble(r.ipc)
       << ",\"loads_marked\":" << r.loadsMarked
       << ",\"loads_reexecuted\":" << r.loadsReExecuted
       << ",\"loads_filtered_by_svw\":" << r.loadsFilteredBySvw
       << ",\"rex_flushes\":" << r.rexFlushes
       << ",\"rex_rate\":" << jsonDouble(r.rexRate)
       << ",\"marked_rate\":" << jsonDouble(r.markedRate)
       << ",\"elim_rate\":" << jsonDouble(r.elimRate)
       << ",\"bypass_share\":" << jsonDouble(r.bypassShare)
       << ",\"fsq_load_share\":" << jsonDouble(r.fsqLoadShare)
       << ",\"branch_squashes\":" << r.branchSquashes
       << ",\"ordering_squashes\":" << r.orderingSquashes
       << ",\"wrap_drains\":" << r.wrapDrains;
    // Profile attribution keys ("prof_<stage>_ns") are emitted only
    // for profiled runs: profiled results never enter the result
    // cache, and unprofiled lines stay byte-identical to the pre-
    // profiler wire format.
    if (r.profTicks) {
        for (unsigned s = 0; s < prof::NumStages; ++s) {
            os << ",\"prof_" << prof::stageName(prof::Stage(s))
               << "_ns\":" << r.profStageNs[s];
        }
        os << ",\"prof_ticks\":" << r.profTicks
           << ",\"prof_cell_ns\":" << r.profCellNs;
    }
    os << "}";
    return os.str();
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
// update coreParamsKeyText (and, for RunResult, the JSON
// writer/parser: parseValueInto tolerates missing keys, so an
// unlisted new metric would re-parse from old cache entries as its
// default) AND bump resultCacheCodeVersion (harness/sweep.hh) if the
// change alters results. The sizes are ABI-specific, so the tripwire
// is pinned to the toolchain CI enforces rather than breaking other
// builds over std::string layout.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(CoreParams) == 280,
              "CoreParams changed: revisit coreParamsKeyText and the "
              "result-cache code version");
static_assert(sizeof(RunResult) == 288,
              "RunResult changed: update the JSON writer/parser and "
              "bump the result-cache code version");
#endif

std::string
coreParamsKeyText(const CoreParams &p)
{
    std::ostringstream os;
    auto cache = [&os](const char *name, const CacheParams &c) {
        os << '|' << name << '=' << c.sizeBytes << '/' << c.assoc << '/'
           << c.lineBytes << '/' << c.latency;
    };
    os << "fetchWidth=" << p.fetchWidth
       << "|dispatchWidth=" << p.dispatchWidth
       << "|issueWidth=" << p.issueWidth
       << "|commitWidth=" << p.commitWidth
       << "|intIssue=" << p.intIssue
       << "|loadIssue=" << p.loadIssue
       << "|branchIssue=" << p.branchIssue
       << "|robEntries=" << p.robEntries
       << "|iqEntries=" << p.iqEntries
       << "|numPhysRegs=" << p.numPhysRegs
       << "|renameCheckpoints=" << p.renameCheckpoints
       << "|frontendDepth=" << p.frontendDepth
       << "|mispredictRedirect=" << p.mispredictRedirect
       << "|rexTransit=" << p.rexTransit
       << "|dcachePorts=" << p.dcachePorts
       << "|bpred.hybridEntries=" << p.bpred.hybridEntries
       << "|bpred.btbEntries=" << p.bpred.btbEntries
       << "|bpred.btbAssoc=" << p.bpred.btbAssoc
       << "|bpred.rasEntries=" << p.bpred.rasEntries;
    cache("mem.l1i", p.mem.l1i);
    cache("mem.l1d", p.mem.l1d);
    cache("mem.l2", p.mem.l2);
    os << "|mem.memLatency=" << p.mem.memLatency
       << "|mem.l2BusCyclesPerLine=" << p.mem.l2BusCyclesPerLine
       << "|mem.memBusCyclesPerLine=" << p.mem.memBusCyclesPerLine
       << "|mem.l1dBanks=" << p.mem.l1dBanks
       << "|lsu.lqEntries=" << p.lsu.lqEntries
       << "|lsu.sqEntries=" << p.lsu.sqEntries
       << "|lsu.nlq=" << p.lsu.nlq
       << "|lsu.ssq=" << p.lsu.ssq
       << "|lsu.fsqEntries=" << p.lsu.fsqEntries
       << "|lsu.fsqPorts=" << p.lsu.fsqPorts
       << "|lsu.fwdBufEntriesPerBank=" << p.lsu.fwdBufEntriesPerBank
       << "|lsu.loadExtraLatency=" << p.lsu.loadExtraLatency
       << "|lsu.lqValueCheck=" << p.lsu.lqValueCheck
       << "|lsu.storeIssueWidth=" << p.lsu.storeIssueWidth
       << "|lsu.steeringEntries=" << p.lsu.steeringEntries
       << "|svw.enabled=" << p.svw.enabled
       << "|svw.updateOnForward=" << p.svw.updateOnForward
       << "|svw.ssnBits=" << p.svw.ssnBits
       << "|svw.ssbf.entries=" << p.svw.ssbf.entries
       << "|svw.ssbf.granularityBytes=" << p.svw.ssbf.granularityBytes
       << "|svw.ssbf.dualHash=" << p.svw.ssbf.dualHash
       << "|svw.ssbf.infinite=" << p.svw.ssbf.infinite
       << "|svw.speculativeSsbfUpdate=" << p.svw.speculativeSsbfUpdate
       << "|rex.enabled=" << p.rex.enabled
       << "|rex.perfect=" << p.rex.perfect
       << "|rex.width=" << p.rex.width
       << "|rex.storeBufferEntries=" << p.rex.storeBufferEntries
       << "|rex.cacheLatency=" << p.rex.cacheLatency
       << "|rex.regfileReadLatency=" << p.rex.regfileReadLatency
       << "|rex.svwReplacesReExecution=" << p.rex.svwReplacesReExecution
       << "|rle.enabled=" << p.rle.enabled
       << "|rle.itEntries=" << p.rle.itEntries
       << "|rle.itAssoc=" << p.rle.itAssoc
       << "|rle.squashReuse=" << p.rle.squashReuse
       << "|rle.integrateAlu=" << p.rle.integrateAlu
       << "|rle.maxPinnedRegs=" << p.rle.maxPinnedRegs
       << "|nlqsm=" << p.nlqsm;
    return os.str();
}

std::string
cacheEntryToLine(const std::string &material, const RunResult &r)
{
    std::ostringstream os;
    os << "{\"v\":1"
       << ",\"material\":\"" << jsonEscape(material) << "\""
       << ",\"result\":" << runResultToJson(r)
       << "}\n";
    return os.str();
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
