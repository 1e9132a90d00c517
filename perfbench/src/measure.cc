#include "measure.hh"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "stats/json.hh"

namespace perfbench {

double
wallSec()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

namespace {

Usage
usageOf(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    Usage u;
    u.cpuSec = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.vcsw = ru.ru_nvcsw;
    u.ivcsw = ru.ru_nivcsw;
    u.maxRssKb = ru.ru_maxrss;
    return u;
}

} // namespace

Usage
selfUsage()
{
    return usageOf(RUSAGE_SELF);
}

Usage
childrenUsage()
{
    return usageOf(RUSAGE_CHILDREN);
}

CpuStat
readCpuStat()
{
    CpuStat s;
    std::ifstream in("/proc/stat");
    std::string tag;
    if (!(in >> tag) || tag != "cpu")
        return s;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    std::uint64_t v[8] = {};
    for (auto &x : v)
        in >> x;
    for (auto x : v)
        s.total += x;
    s.idle = v[3] + v[4];
    s.steal = v[7];
    return s;
}

HostShares
hostShares(const CpuStat &before, const CpuStat &after)
{
    HostShares h;
    const double total =
        static_cast<double>(after.total) - static_cast<double>(before.total);
    if (total <= 0.0)
        return h;
    h.stealPct = 100.0 * static_cast<double>(after.steal - before.steal) /
                 total;
    h.idlePct = 100.0 * static_cast<double>(after.idle - before.idle) / total;
    return h;
}

std::uint64_t
readUdpRcvbufErrors()
{
    // Two "Udp:" lines: a header naming the columns, then the values.
    std::ifstream in("/proc/net/snmp");
    std::string line;
    std::vector<std::string> names;
    while (std::getline(in, line)) {
        if (line.rfind("Udp:", 0) != 0)
            continue;
        std::istringstream ss(line.substr(4));
        std::vector<std::string> cols;
        std::string c;
        while (ss >> c)
            cols.push_back(c);
        if (names.empty()) {
            names = cols;
            continue;
        }
        for (std::size_t i = 0; i < names.size() && i < cols.size(); ++i)
            if (names[i] == "RcvbufErrors")
                return std::strtoull(cols[i].c_str(), nullptr, 10);
        break;
    }
    return 0;
}

double
supportedQuantile(std::uint64_t count, double q, std::uint64_t minBeyond)
{
    static const double ladder[] = {0.999, 0.99, 0.9, 0.5};
    for (double rung : ladder) {
        if (rung > q + 1e-12)
            continue;
        const double beyond = static_cast<double>(count) * (1.0 - rung);
        if (beyond + 1e-9 >= static_cast<double>(minBeyond))
            return rung;
    }
    return 0.0;
}

Percentile
percentile(std::vector<double> &samples, double q, std::uint64_t minBeyond)
{
    Percentile p;
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const double rung = supportedQuantile(samples.size(), q, minBeyond);
    p.ok = rung > 0.0;
    p.q = p.ok ? rung : 0.5;
    // Nearest-rank: the smallest sample with at least q of the data at
    // or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p.q * static_cast<double>(samples.size())));
    p.value = samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
    return p;
}

Percentile
percentile(const hyperplane::stats::LogHistogram &h, double q,
           std::uint64_t minBeyond)
{
    Percentile p;
    if (h.count() == 0)
        return p;
    const double rung = supportedQuantile(h.count(), q, minBeyond);
    p.ok = rung > 0.0;
    p.q = p.ok ? rung : 0.5;
    p.value = h.quantile(p.q);
    return p;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
LossReport::identityHolds() const
{
    return attempted == answered + shed + lost &&
           lost == sendFail + serverDrops + kernelRcvbuf + unattributed;
}

LossReport
attributeLoss(std::uint64_t attempted, std::uint64_t answered,
              std::uint64_t shed, std::uint64_t sendFail,
              std::uint64_t serverDrops, std::uint64_t kernelRcvbuf)
{
    LossReport r;
    r.attempted = attempted;
    r.answered = answered;
    r.shed = shed;
    if (answered + shed > attempted)
        return r; // lost stays 0; identityHolds() reports the breach
    r.lost = attempted - answered - shed;
    std::uint64_t left = r.lost;
    const auto credit = [&left](std::uint64_t n) {
        const std::uint64_t c = std::min(n, left);
        left -= c;
        return c;
    };
    r.sendFail = credit(sendFail);
    r.serverDrops = credit(serverDrops);
    r.kernelRcvbuf = credit(kernelRcvbuf);
    r.unattributed = left;
    return r;
}

Child
spawnSelf(const std::vector<std::string> &args)
{
    Child c;
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0)
        return c;
    if (pipe2(out, O_CLOEXEC) != 0) {
        close(in[0]);
        close(in[1]);
        return c;
    }
    // Build argv before fork: the child of a threaded parent may only
    // make async-signal-safe calls until exec.
    std::vector<char *> argv;
    static char self[] = "perfbench";
    argv.push_back(self);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid == 0) {
        dup2(in[0], STDIN_FILENO);
        dup2(out[1], STDOUT_FILENO);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(in[0]);
    close(out[1]);
    if (pid < 0) {
        close(in[1]);
        close(out[0]);
        return c;
    }
    c.pid = pid;
    c.toChild = in[1];
    c.fromChild = out[0];
    return c;
}

CpuPin::CpuPin()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            saved_.push_back(c);
    if (saved_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(saved_.back(), &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0)
        cpu_ = saved_.back();
}

CpuPin::~CpuPin()
{
    if (cpu_ < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : saved_)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

bool
readLine(int fd, std::string &line)
{
    line.clear();
    char ch;
    for (;;) {
        const ssize_t n = read(fd, &ch, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return !line.empty();
        if (ch == '\n')
            return true;
        line.push_back(ch);
    }
}

bool
writeLine(int fd, const std::string &line)
{
    const std::string s = line + "\n";
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

int
finishChild(Child &c)
{
    if (c.toChild >= 0)
        close(c.toChild);
    if (c.fromChild >= 0)
        close(c.fromChild);
    c.toChild = c.fromChild = -1;
    if (c.pid <= 0)
        return -1;
    int status = 0;
    while (waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    c.pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    items_.push_back({name, {value, unit}});
}

double
Metrics::get(const std::string &name) const
{
    for (const auto &it : items_)
        if (it.first == name)
            return it.second.first;
    return 0.0;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
Metrics::json() const
{
    using hyperplane::stats::jsonString;
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(items_[i].first) + ": {\"value\": " +
               num(items_[i].second.first) +
               ", \"unit\": " + jsonString(items_[i].second.second) + "}";
    }
    return out + "}";
}

} // namespace perfbench
