#include "prog/workloads/workloads.hh"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "prog/synth.hh"
#include "prog/trace.hh"

namespace svw::workloads {

namespace {

struct Entry
{
    const char *name;
    Program (*make)(std::uint64_t iters);
    /** Rough dynamic instructions per main-loop iteration, used to turn a
     * dynamic-instruction target into a trip count. */
    std::uint64_t instsPerIter;
};

Program makeEonC(std::uint64_t i) { return makeEon(i, 0); }
Program makeEonK(std::uint64_t i) { return makeEon(i, 1); }
Program makeEonR(std::uint64_t i) { return makeEon(i, 2); }
Program makePerlD(std::uint64_t i) { return makePerl(i, 0); }
Program makePerlS(std::uint64_t i) { return makePerl(i, 1); }
Program makeVprP(std::uint64_t i) { return makeVpr(i, 0); }
Program makeVprR(std::uint64_t i) { return makeVpr(i, 1); }

constexpr const char *synthPrefix = "synth:";
constexpr const char *tracePrefix = "trace:";

bool
hasPrefix(const std::string &name, const char *prefix)
{
    return name.rfind(prefix, 0) == 0;
}

const Entry table[] = {
    {"bzip2",  makeBzip2,  24},
    {"crafty", makeCrafty, 30},
    {"eon.c",  makeEonC,   60},
    {"eon.k",  makeEonK,   60},
    {"eon.r",  makeEonR,   60},
    {"gap",    makeGap,    18},
    {"gcc",    makeGcc,    40},
    {"gzip",   makeGzip,   16},
    {"mcf",    makeMcf,    14},
    {"parser", makeParser, 45},
    {"perl.d", makePerlD,  55},
    {"perl.s", makePerlS,  55},
    {"twolf",  makeTwolf,  30},
    {"vortex", makeVortex, 45},
    {"vpr.p",  makeVprP,   28},
    {"vpr.r",  makeVprR,   28},
};

} // namespace

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Entry &e : table)
            v.push_back(e.name);
        return v;
    }();
    return names;
}

const std::vector<std::string> &
fig8Names()
{
    static const std::vector<std::string> names = {
        "crafty", "gcc", "perl.d", "vortex", "vpr.r",
    };
    return names;
}

const std::vector<std::string> &
synthSuiteNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const std::string &kind : synth::kindNames())
            v.push_back(std::string(synthPrefix) + kind + ":1");
        return v;
    }();
    return names;
}

bool
validate(const std::string &name, std::string &err)
{
    if (hasPrefix(name, synthPrefix)) {
        synth::SynthParams p;
        return synth::parseName(name, p, err);
    }
    if (hasPrefix(name, tracePrefix))
        return trace::probeFile(name.substr(std::strlen(tracePrefix)), err);
    for (const Entry &e : table)
        if (name == e.name)
            return true;
    err = "unknown workload '" + name + "'";
    return false;
}

bool
isKnown(const std::string &name)
{
    std::string err;
    return validate(name, err);
}

namespace {

/** A trace workload's augment for payload checksum @p sum. */
std::string
traceAugment(std::uint64_t sum)
{
    std::ostringstream os;
    os << "|trace.version=" << trace::traceVersion
       << "|trace.payload=" << std::hex << std::setfill('0') << std::setw(16)
       << sum;
    return os.str();
}

} // namespace

std::string
cacheKeyAugment(const std::string &name)
{
    if (!hasPrefix(name, tracePrefix))
        return "";
    return traceAugment(
        trace::fileChecksum(name.substr(std::strlen(tracePrefix))));
}

Program
make(const std::string &name, std::uint64_t targetInsts,
     std::string &augment)
{
    if (!hasPrefix(name, tracePrefix)) {
        augment.clear();
        return make(name, targetInsts);
    }
    std::uint64_t sum = 0;
    Program prog =
        trace::loadProgram(name.substr(std::strlen(tracePrefix)), &sum);
    augment = traceAugment(sum);
    return prog;
}

Program
make(const std::string &name, std::uint64_t targetInsts)
{
    if (hasPrefix(name, synthPrefix))
        return synth::make(name, targetInsts);
    if (hasPrefix(name, tracePrefix))
        return trace::loadProgram(name.substr(std::strlen(tracePrefix)));
    for (const Entry &e : table) {
        if (name == e.name) {
            std::uint64_t iters =
                std::max<std::uint64_t>(1, targetInsts / e.instsPerIter);
            return e.make(iters);
        }
    }
    svw_fatal("unknown workload '", name, "'");
}

} // namespace svw::workloads
