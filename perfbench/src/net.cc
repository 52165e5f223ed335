#include "net.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string
sweepRequest(const std::string &form)
{
    return "POST /sweep HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/x-www-form-urlencoded\r\n"
           "Content-Length: " + std::to_string(form.size()) +
           "\r\nConnection: close\r\n\r\n" + form;
}

std::string
getRequest(const std::string &path)
{
    return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Connection: close\r\n\r\n";
}

Exchange::~Exchange()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Exchange::start(unsigned port, std::string request, double schedTime)
{
    sched = schedTime;
    sent = now();
    out_ = std::move(request);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        finish();
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
        finish();
        return false;
    }
    return true;
}

short
Exchange::events() const
{
    if (finished_)
        return 0;
    return outOff_ < out_.size() ? POLLOUT : POLLIN;
}

void
Exchange::finish()
{
    finished_ = true;
    last = now();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Exchange::scanLines()
{
    const std::string &b = rd_.body();
    for (;;) {
        const std::size_t eol = b.find('\n', scanned_);
        if (eol == std::string::npos)
            return;
        if (b.compare(scanned_, 15, "{\"event\":\"done\"") == 0)
            doneTimes.push_back(last);
        scanned_ = eol + 1;
    }
}

bool
Exchange::onEvent(short revents)
{
    if (finished_)
        return true;
    if (outOff_ < out_.size()) {
        if (revents & (POLLERR | POLLHUP)) {
            finish();
            return true;
        }
        if (!(revents & POLLOUT))
            return false;
        const ssize_t n = ::send(fd_, out_.data() + outOff_,
                                 out_.size() - outOff_, MSG_NOSIGNAL);
        if (n > 0)
            outOff_ += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EINTR)
            finish();
        return finished_;
    }
    if (!(revents & (POLLIN | POLLERR | POLLHUP)))
        return false;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            last = now();
            if (firstByte == 0.0)
                firstByte = last;
            rd_.feed(buf, static_cast<std::size_t>(n));
            scanLines();
            if (rd_.done() || rd_.error()) {
                finish();
                return true;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            return false;
        finish();  // EOF before the terminating chunk, or an error
        return true;
    }
}

void
runBlocking(Exchange &ex, unsigned port, const std::string &request,
            double timeoutS)
{
    if (!ex.start(port, request, now()))
        return;
    // Busy-poll: the client's CPU never idles, so a response is never
    // delayed by waking a halted virtual CPU (ms-scale stalls on a
    // loaded host). The client has a CPU of its own.
    const double deadline = ex.sent + timeoutS;
    while (!ex.finished() && now() < deadline) {
        pollfd p{ex.fd(), ex.events(), 0};
        if (::poll(&p, 1, 0) < 0 && errno != EINTR)
            break;
        if (p.revents)
            ex.onEvent(p.revents);
    }
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

void
pinTo(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

HostCpu
hostCpu()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    HostCpu h;
    f >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; ++i) {
        double v = 0.0;
        f >> v;
        h.total += v;
        if (i == 7)
            h.steal = v;
    }
    return h;
}

std::string
cpuList(const std::vector<int> &cpus)
{
    std::string s;
    for (std::size_t i = 0; i < cpus.size();) {
        std::size_t j = i;
        while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1)
            ++j;
        if (!s.empty())
            s += ",";
        s += std::to_string(cpus[i]);
        if (j > i)
            s += "-" + std::to_string(cpus[j]);
        i = j + 1;
    }
    return s;
}

Daemon::Daemon(const std::string &exe, const std::vector<int> &cpus)
{
    int errPipe[2];
    if (::pipe2(errPipe, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        // Take the daemon down with the benchmark if it dies first.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        pinTo(cpus);
        ::dup2(errPipe[1], 2);
        const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
        if (devnull >= 0)
            ::dup2(devnull, 1);
        ::execl(exe.c_str(), exe.c_str(), "--port=0", "--quiet",
                static_cast<char *>(nullptr));
        std::fprintf(stderr, "exec %s: %s\n", exe.c_str(),
                     std::strerror(errno));
        ::_exit(127);
    }
    ::close(errPipe[1]);
    errFd_ = errPipe[0];

    // sweepd announces "sweepd: listening on 127.0.0.1:<port>" on
    // stderr once bound (port 0 lets the kernel pick a free one).
    std::string text;
    char buf[256];
    const char *tag = "listening on 127.0.0.1:";
    auto announced = [&] {
        const std::size_t at = text.find(tag);
        return at != std::string::npos &&
            text.find('\n', at) != std::string::npos;
    };
    while (!announced()) {
        pollfd p{errFd_, POLLIN, 0};
        if (::poll(&p, 1, 30000) <= 0)
            break;
        const ssize_t n = ::read(errFd_, buf, sizeof(buf));
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t at = text.find(tag);
    if (at != std::string::npos)
        port_ = static_cast<unsigned>(
            std::strtoul(text.c_str() + at + std::strlen(tag), nullptr, 10));
    if (port_ == 0) {
        stop();
        throw std::runtime_error("sweepd did not start: " + text);
    }
}

Daemon::~Daemon()
{
    stop();
}

namespace {

/** Fields 3 onwards of /proc/<pid>/stat, those after the
 * parenthesised command name; field n is at index n - 3. */
std::vector<std::string>
statFields(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(f, line);
    std::vector<std::string> fields;
    const std::size_t rp = line.rfind(')');
    if (rp == std::string::npos)
        return fields;
    std::istringstream in(line.substr(rp + 2));
    for (std::string field; in >> field;)
        fields.push_back(field);
    return fields;
}

} // namespace

double
Daemon::cpuSeconds() const
{
    // utime and stime are fields 14 and 15.
    const std::vector<std::string> f = statFields(pid_);
    if (f.size() < 13)
        return 0.0;
    return double(std::stoull(f[11]) + std::stoull(f[12])) /
        double(::sysconf(_SC_CLK_TCK));
}

int
Daemon::lastCpu() const
{
    // "processor" is field 39.
    const std::vector<std::string> f = statFields(pid_);
    return f.size() < 37 ? -1 : std::stoi(f[36]);
}

double
Daemon::peakRssMb() const
{
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

bool
Daemon::stop()
{
    if (pid_ <= 0)
        return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now() + 20.0;
    pid_t r = 0;
    char buf[512];
    while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0) {
        if (now() > deadline) {
            ::kill(pid_, SIGKILL);
            r = ::waitpid(pid_, &status, 0);
            break;
        }
        // Keep stderr drained so the daemon's exit message never
        // blocks on a full pipe.
        pollfd p{errFd_, POLLIN, 0};
        if (::poll(&p, 1, 20) > 0 && ::read(errFd_, buf, sizeof(buf)) <= 0)
            ::usleep(1000);
    }
    pid_ = -1;
    ::close(errFd_);
    errFd_ = -1;
    return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace perfbench
