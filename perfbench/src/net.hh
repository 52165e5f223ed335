/**
 * @file
 * The benchmark's client side of sweepd: non-blocking one-request HTTP
 * exchanges that record when each byte milestone arrived, and the
 * daemon process itself (spawned pinned, stopped with SIGTERM, and
 * read through /proc for CPU time and peak RSS).
 */

#ifndef PERFBENCH_NET_HH
#define PERFBENCH_NET_HH

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "util.hh"

namespace perfbench {

/** A POST /sweep request for the form body @p form. */
std::string sweepRequest(const std::string &form);

/** A GET request for @p path. */
std::string getRequest(const std::string &path);

/**
 * One request on its own connection (sweepd serves one request per
 * connection). Drive it with events() / onEvent() from a poll loop, or
 * run it to completion with runBlocking().
 */
class Exchange
{
  public:
    Exchange() = default;
    ~Exchange();
    Exchange(const Exchange &) = delete;
    Exchange &operator=(const Exchange &) = delete;

    /** Connect to 127.0.0.1:@p port and queue @p request. @p sched is
     * the time the request was due (latency is measured from it). */
    bool start(unsigned port, std::string request, double sched);

    int fd() const { return fd_; }
    /** poll() interest for the current phase. */
    short events() const;
    /** Handle poll() results. @return true once finished. */
    bool onEvent(short revents);

    bool finished() const { return finished_; }
    /** Finished with a complete 200 response. */
    bool ok() const { return finished_ && rd_.done() && rd_.status() == 200; }

    const ChunkedReader &reader() const { return rd_; }

    double sched = 0.0;      ///< when the request was due
    double sent = 0.0;       ///< connect() issued
    double firstByte = 0.0;  ///< first response byte
    double last = 0.0;       ///< response complete (or failed)
    /** Arrival time of each streamed {"event":"done"} line. */
    std::vector<double> doneTimes;

  private:
    void finish();
    void scanLines();

    int fd_ = -1;
    std::string out_;
    std::size_t outOff_ = 0;
    std::size_t scanned_ = 0;
    ChunkedReader rd_;
    bool finished_ = false;
};

/** Run @p request to completion (or @p timeoutS) on a fresh
 * connection; the exchange records the milestones. */
void runBlocking(Exchange &ex, unsigned port, const std::string &request,
                 double timeoutS = 60.0);

/** CPUs this process may run on. */
std::vector<int> allowedCpus();

/** Pin the calling thread's process to @p cpus (no-op when empty). */
void pinTo(const std::vector<int> &cpus);

/** Host-wide CPU time from /proc/stat: all states, and stolen by the
 * hypervisor (the guest's vCPUs were runnable but not running). */
struct HostCpu
{
    double total = 0.0, steal = 0.0;  ///< clock ticks
};
HostCpu hostCpu();

/** "0-2" / "3" style rendering of a CPU list. */
std::string cpuList(const std::vector<int> &cpus);

/** A running sweepd, started by the constructor, stopped by stop()
 * or the destructor. */
class Daemon
{
  public:
    /** Start @p exe --port=0 --quiet pinned to @p cpus and wait until
     * it listens. Throws std::runtime_error on failure. */
    Daemon(const std::string &exe, const std::vector<int> &cpus);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    unsigned port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** User + system CPU seconds so far (/proc/<pid>/stat). */
    double cpuSeconds() const;
    /** The CPU its main thread last ran on (/proc/<pid>/stat). */
    int lastCpu() const;
    /** Peak resident set in MB (/proc/<pid>/status VmHWM). */
    double peakRssMb() const;

    /** SIGTERM, wait for the drain. @return true on exit status 0. */
    bool stop();

  private:
    pid_t pid_ = -1;
    int errFd_ = -1;
    unsigned port_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_NET_HH
