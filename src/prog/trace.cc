#include "prog/trace.hh"

#include <cstring>
#include <fstream>

#include "base/logging.hh"

namespace svw::trace {

namespace {

constexpr char traceMagic[8] = {'S', 'V', 'W', 'T', 'R', 'A', 'C', 'E'};

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** Bounds-checked little-endian reader over a byte span. */
struct Reader
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t pos = 0;
    bool bad = false;

    bool need(std::size_t n)
    {
        if (len - pos < n) { bad = true; return false; }
        return true;
    }

    std::uint8_t u8()
    {
        if (!need(1)) return 0;
        return p[pos++];
    }

    std::uint32_t u32()
    {
        if (!need(4)) return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[pos++]) << (8 * i);
        return v;
    }

    std::uint64_t u64()
    {
        if (!need(8)) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
        return v;
    }

    std::uint64_t varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (!need(1)) return 0;
            std::uint8_t b = p[pos++];
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80)) return v;
        }
        bad = true;  // varint longer than 64 bits
        return 0;
    }

    std::string str(std::size_t n)
    {
        if (!need(n)) return {};
        std::string s(reinterpret_cast<const char *>(p + pos), n);
        pos += n;
        return s;
    }

    std::vector<std::uint8_t> bytes(std::size_t n)
    {
        if (!need(n)) return {};
        std::vector<std::uint8_t> v(p + pos, p + pos + n);
        pos += n;
        return v;
    }
};

std::vector<std::uint8_t>
encodePayload(const TraceData &t)
{
    std::vector<std::uint8_t> pay;
    putU32(pay, traceVersion);

    putU64(pay, t.sourceWorkload.size());
    pay.insert(pay.end(), t.sourceWorkload.begin(), t.sourceWorkload.end());

    putU64(pay, t.program.entry());
    putU64(pay, t.program.stackTop());

    putU64(pay, t.program.textSize());
    for (const StaticInst &si : t.program.text()) {
        pay.push_back(static_cast<std::uint8_t>(si.op));
        pay.push_back(si.rd);
        pay.push_back(si.rs1);
        pay.push_back(si.rs2);
        putU64(pay, static_cast<std::uint64_t>(si.imm));
    }

    putU64(pay, t.program.segments().size());
    for (const Program::Segment &seg : t.program.segments()) {
        putU64(pay, seg.base);
        putU64(pay, seg.bytes.size());
        pay.insert(pay.end(), seg.bytes.begin(), seg.bytes.end());
    }

    putU64(pay, t.insts);
    putU64(pay, t.counts.insts);
    putU64(pay, t.counts.loads);
    putU64(pay, t.counts.stores);
    putU64(pay, t.counts.branches);
    putU64(pay, t.counts.takenBranches);
    putU64(pay, t.counts.silentStores);
    for (std::uint64_t r : t.finalRegs)
        putU64(pay, r);

    // Committed-PC stream: first PC, then alternating sequential-run
    // lengths and zigzag deltas of each discontinuity from fall-through.
    std::vector<std::uint8_t> stream;
    const std::vector<std::uint64_t> &pcs = t.committedPcs;
    if (!pcs.empty()) {
        putVarint(stream, pcs[0]);
        std::size_t i = 1;
        while (i < pcs.size()) {
            std::uint64_t run = 0;
            while (i < pcs.size() && pcs[i] == pcs[i - 1] + 1) {
                ++run;
                ++i;
            }
            putVarint(stream, run);
            if (i < pcs.size()) {
                std::int64_t delta =
                    static_cast<std::int64_t>(pcs[i]) -
                    static_cast<std::int64_t>(pcs[i - 1] + 1);
                putVarint(stream, zigzag(delta));
                ++i;
            }
        }
    }
    putU64(pay, stream.size());
    pay.insert(pay.end(), stream.begin(), stream.end());

    return pay;
}

/** Parse a whole file image; @return false with a reason on any defect. */
bool
decodeFile(const std::vector<std::uint8_t> &file, TraceData &out,
           std::string &err)
{
    if (file.size() < sizeof(traceMagic) + 16) {
        err = "file too short to be a trace";
        return false;
    }
    if (std::memcmp(file.data(), traceMagic, sizeof(traceMagic)) != 0) {
        err = "bad magic (not an SVWTRACE file)";
        return false;
    }

    Reader hdr{file.data() + sizeof(traceMagic),
               file.size() - sizeof(traceMagic)};
    std::uint64_t payLen = hdr.u64();
    if (hdr.bad || file.size() != sizeof(traceMagic) + 8 + payLen + 8) {
        err = "truncated trace (payload length does not match file size)";
        return false;
    }

    const std::uint8_t *pay = file.data() + sizeof(traceMagic) + 8;
    Reader tail{pay + payLen, 8};
    std::uint64_t stored = tail.u64();
    if (fnv1a(pay, payLen) != stored) {
        err = "checksum mismatch (trace is corrupt)";
        return false;
    }

    Reader r{pay, payLen};
    std::uint32_t version = r.u32();
    if (r.bad) { err = "truncated trace payload"; return false; }
    if (version != traceVersion) {
        err = "trace format version " + std::to_string(version) +
              " (expected " + std::to_string(traceVersion) + ")";
        return false;
    }

    out = TraceData{};
    out.sourceWorkload = r.str(r.u64());
    out.program = Program(out.sourceWorkload);
    out.program.setEntry(r.u64());
    out.program.setStackTop(r.u64());

    std::uint64_t textCount = r.u64();
    if (r.bad || textCount > payLen) {  // 12 bytes/inst; cheap sanity bound
        err = "truncated trace payload";
        return false;
    }
    out.program.text().reserve(textCount);
    for (std::uint64_t i = 0; i < textCount && !r.bad; ++i) {
        StaticInst si;
        std::uint8_t op = r.u8();
        if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes)) {
            err = "bad opcode in trace text";
            return false;
        }
        si.op = static_cast<Opcode>(op);
        si.rd = r.u8();
        si.rs1 = r.u8();
        si.rs2 = r.u8();
        si.imm = static_cast<std::int64_t>(r.u64());
        if (si.rd >= numArchRegs || si.rs1 >= numArchRegs ||
            si.rs2 >= numArchRegs) {
            err = "bad register in trace text";
            return false;
        }
        out.program.text().push_back(si);
    }

    std::uint64_t segCount = r.u64();
    if (r.bad || segCount > payLen) {
        err = "truncated trace payload";
        return false;
    }
    for (std::uint64_t i = 0; i < segCount && !r.bad; ++i) {
        std::uint64_t base = r.u64();
        std::uint64_t len = r.u64();
        if (len > payLen) { err = "truncated trace payload"; return false; }
        out.program.addSegment(base, r.bytes(len));
    }

    out.insts = r.u64();
    out.counts.insts = r.u64();
    out.counts.loads = r.u64();
    out.counts.stores = r.u64();
    out.counts.branches = r.u64();
    out.counts.takenBranches = r.u64();
    out.counts.silentStores = r.u64();
    for (std::uint64_t &reg : out.finalRegs)
        reg = r.u64();

    std::uint64_t streamBytes = r.u64();
    if (r.bad || streamBytes != payLen - r.pos) {
        err = "truncated trace payload";
        return false;
    }

    if (out.insts > 0) {
        out.committedPcs.reserve(out.insts);
        out.committedPcs.push_back(r.varint());
        while (out.committedPcs.size() < out.insts && !r.bad) {
            std::uint64_t run = r.varint();
            if (run > out.insts - out.committedPcs.size()) {
                err = "corrupt committed-PC stream";
                return false;
            }
            for (std::uint64_t i = 0; i < run; ++i)
                out.committedPcs.push_back(out.committedPcs.back() + 1);
            if (out.committedPcs.size() < out.insts) {
                std::int64_t delta = unzigzag(r.varint());
                out.committedPcs.push_back(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(out.committedPcs.back() + 1) +
                    delta));
            }
        }
    }
    if (r.bad || r.pos != payLen) {
        err = "corrupt committed-PC stream";
        return false;
    }
    for (std::uint64_t pc : out.committedPcs) {
        if (pc >= textCount) {
            err = "committed PC out of text range";
            return false;
        }
    }
    if (out.insts != out.counts.insts) {
        err = "inconsistent instruction counts";
        return false;
    }
    if (textCount == 0 || out.program.entry() >= textCount) {
        err = "bad program entry in trace";
        return false;
    }
    return true;
}

bool
readWhole(const std::string &path, std::vector<std::uint8_t> &out,
          std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open trace file '" + path + "'";
        return false;
    }
    in.seekg(0, std::ios::end);
    std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(out.data()), size);
    if (!in) {
        err = "cannot read trace file '" + path + "'";
        return false;
    }
    return true;
}

} // namespace

TraceData
record(const Program &prog, const std::string &sourceWorkload,
       std::uint64_t maxInsts)
{
    prog.validate();

    TraceData t;
    t.sourceWorkload = sourceWorkload;
    t.program = prog;
    t.program.setName(sourceWorkload);

    Interp interp(prog);
    while (!interp.halted()) {
        if (t.committedPcs.size() >= maxInsts) {
            svw_fatal("workload '", sourceWorkload, "' did not halt within ",
                      maxInsts, " instructions; refusing to record an "
                      "unbounded trace");
        }
        t.committedPcs.push_back(interp.pc());
        interp.step();
    }

    t.counts = interp.counts();
    t.insts = t.counts.insts;
    for (unsigned r = 0; r < numArchRegs; ++r)
        t.finalRegs[r] = interp.reg(static_cast<RegIndex>(r));
    svw_assert(t.committedPcs.size() == t.insts,
               "trace stream/count mismatch for ", sourceWorkload);
    return t;
}

void
writeFile(const std::string &path, const TraceData &t)
{
    std::vector<std::uint8_t> pay = encodePayload(t);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        svw_fatal("cannot open '", path, "' for writing");
    out.write(traceMagic, sizeof(traceMagic));
    std::vector<std::uint8_t> lenAndSum;
    putU64(lenAndSum, pay.size());
    out.write(reinterpret_cast<const char *>(lenAndSum.data()), 8);
    out.write(reinterpret_cast<const char *>(pay.data()),
              static_cast<std::streamsize>(pay.size()));
    lenAndSum.clear();
    putU64(lenAndSum, fnv1a(pay.data(), pay.size()));
    out.write(reinterpret_cast<const char *>(lenAndSum.data()), 8);
    out.flush();
    if (!out)
        svw_fatal("failed writing trace file '", path, "'");
}

namespace {

/** Read and fully verify @p path (fatal on a defect); @return the
 * payload checksum stored in its tail (decodeFile verified it matches
 * the payload, so it is the payload's content identity). */
std::uint64_t
readVerified(const std::string &path, TraceData &t)
{
    std::vector<std::uint8_t> file;
    std::string err;
    if (!readWhole(path, file, err))
        svw_fatal(err);
    if (!decodeFile(file, t, err))
        svw_fatal("trace file '", path, "': ", err);
    Reader tail{file.data() + file.size() - 8, 8};
    return tail.u64();
}

} // namespace

TraceData
readFile(const std::string &path)
{
    TraceData t;
    readVerified(path, t);
    return t;
}

bool
probeFile(const std::string &path, std::string &err)
{
    std::vector<std::uint8_t> file;
    if (!readWhole(path, file, err))
        return false;
    TraceData t;
    if (!decodeFile(file, t, err)) {
        err = "trace file '" + path + "': " + err;
        return false;
    }
    return true;
}

Program
loadProgram(const std::string &path, std::uint64_t *checksum)
{
    TraceData t;
    const std::uint64_t sum = readVerified(path, t);
    if (checksum)
        *checksum = sum;
    Program prog = std::move(t.program);
    prog.setName("trace:" + path);
    prog.validate();
    return prog;
}

std::uint64_t
fileChecksum(const std::string &path)
{
    TraceData t;
    return readVerified(path, t);
}

} // namespace svw::trace
