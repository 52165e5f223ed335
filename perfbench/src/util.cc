#include "util.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace perfbench {

double
now()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

double
percentile(std::vector<double> samples, std::size_t failures, double q)
{
    const std::size_t n = samples.size() + failures;
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * double(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (rank > samples.size())
        return std::numeric_limits<double>::infinity();
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<double>
partBests(const std::vector<std::vector<double>> &passes)
{
    if (passes.empty())
        return {};
    std::vector<double> best = passes.front();
    for (const auto &p : passes) {
        if (p.size() != best.size())
            return {};
        for (std::size_t i = 0; i < p.size(); ++i)
            best[i] = std::min(best[i], p[i]);
    }
    return best;
}

double
sumOfBests(const std::vector<std::vector<double>> &passes)
{
    const std::vector<double> best = partBests(passes);
    if (best.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return std::accumulate(best.begin(), best.end(), 0.0);
}

namespace {
/** Keeps the calibration walk observable, so it is not optimised away. */
volatile std::uint64_t calibrationSink;
} // namespace

double
calibrationKernel()
{
    // A dependent walk with hashing and a data-dependent branch over a
    // 1 MB table: cache- and branch-bound integer work, like the
    // simulator's tick loop. Frozen: see HostSpeed.
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> t(1u << 18);
        std::uint64_t x = 88172645463325252ull;
        for (std::uint32_t &v : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<std::uint32_t>(x) & (t.size() - 1);
        }
        return t;
    }();
    const double t0 = now();
    std::uint32_t p = 0;
    std::uint64_t h = 0;
    for (std::uint32_t i = 0; i < 400'000; ++i) {
        p = next[p] ^ (i & 7);
        h = (h ^ p) * 0x100000001b3ull;
        if (h & 1)
            p = (p + 1) & (next.size() - 1);
    }
    const double dt = now() - t0;
    calibrationSink = h;
    return dt;
}

void
HostSpeed::sample(unsigned times)
{
    for (unsigned i = 0; i < times; ++i)
        add(calibrationKernel());
}

double
HostSpeed::median() const
{
    return percentile(samples_, 0, 0.5);
}

double
HostSpeed::best() const
{
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return *std::min_element(samples_.begin(), samples_.end());
}

double
HostSpeed::factor() const
{
    return samples_.empty() ? 1.0 : referenceSeconds / median();
}

std::uint64_t
Spans::add(const std::string &name, double start, double end,
           std::uint64_t parent, std::uint64_t request)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::uint64_t
Spans::open(const std::string &name, std::uint64_t parent,
            std::uint64_t request)
{
    const double t = now();
    return add(name, t, t, parent, request);
}

void
Spans::close(std::uint64_t id)
{
    if (enabled_ && id != 0 && id <= spans_.size())
        spans_[id - 1].end = now();
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].push_back({s.start, s.end});

    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curLo = 0.0, curHi = 0.0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start);
                hi = std::min(hi, s.end);
                if (hi <= lo)
                    continue;
                if (open && lo <= curHi) {
                    curHi = std::max(curHi, hi);
                } else {
                    if (open)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                    open = true;
                }
            }
            if (open)
                covered += curHi - curLo;
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

std::string
Spans::chromeTrace() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                      i ? "," : "", s.name.c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

void
ChunkedReader::feed(const char *data, std::size_t n)
{
    raw_ += n;
    if (state_ == State::Done || state_ == State::Error)
        return;
    buf_.append(data, n);
    step();
}

void
ChunkedReader::step()
{
    for (;;) {
        switch (state_) {
          case State::Head: {
            const std::size_t end = buf_.find("\r\n\r\n");
            if (end == std::string::npos)
                return;
            const std::string head = buf_.substr(0, end + 2);
            buf_.erase(0, end + 4);
            if (head.rfind("HTTP/1.", 0) != 0 || head.size() < 12) {
                state_ = State::Error;
                return;
            }
            status_ = std::atoi(head.c_str() + 9);
            std::string lower = head;
            for (char &c : lower)
                c = static_cast<char>(std::tolower(
                    static_cast<unsigned char>(c)));
            if (lower.find("transfer-encoding: chunked") !=
                std::string::npos) {
                state_ = State::ChunkSize;
            } else if (auto p = lower.find("content-length:");
                       p != std::string::npos) {
                need_ = std::strtoull(lower.c_str() + p + 15, nullptr, 10);
                state_ = State::Fixed;
            } else {
                state_ = State::Error;
                return;
            }
            break;
          }
          case State::Fixed: {
            const std::size_t take = std::min(need_, buf_.size());
            body_.append(buf_, 0, take);
            buf_.erase(0, take);
            need_ -= take;
            if (need_ != 0)
                return;
            state_ = State::Done;
            return;
          }
          case State::ChunkSize: {
            const std::size_t eol = buf_.find("\r\n");
            if (eol == std::string::npos)
                return;
            char *endp = nullptr;
            need_ = std::strtoull(buf_.c_str(), &endp, 16);
            if (eol == 0 || endp != buf_.c_str() + eol) {
                state_ = State::Error;
                return;
            }
            buf_.erase(0, eol + 2);
            state_ = need_ == 0 ? State::Trailer : State::ChunkData;
            break;
          }
          case State::ChunkData: {
            const std::size_t take = std::min(need_, buf_.size());
            body_.append(buf_, 0, take);
            buf_.erase(0, take);
            need_ -= take;
            if (need_ != 0)
                return;
            state_ = State::ChunkEnd;
            break;
          }
          case State::ChunkEnd:
          case State::Trailer:
            if (buf_.size() < 2)
                return;
            if (buf_.compare(0, 2, "\r\n") != 0) {
                state_ = State::Error;
                return;
            }
            buf_.erase(0, 2);
            state_ = state_ == State::Trailer ? State::Done
                                              : State::ChunkSize;
            if (state_ == State::Done)
                return;
            break;
          case State::Done:
          case State::Error:
            return;
        }
    }
}

} // namespace perfbench
