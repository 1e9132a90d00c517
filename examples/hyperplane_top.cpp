/**
 * @file
 * Minimal "top" for a running udp_server: polls the metrics endpoint
 * and prints the key rates and stage tails as a refreshing one-liner
 * table.
 *
 * Scrapes /metrics with a plain HTTP/1.0 GET.
 *
 *   ./udp_server --port 9000 --metrics-port 9100 &
 *   ./hyperplane_top --port 9100            # refresh every second
 *   ./hyperplane_top --port 9100 --once     # single scrape, for CI
 *
 * Flags:
 *   --host A       endpoint address (default 127.0.0.1)
 *   --port P       endpoint port (required)
 *   --interval S   refresh period, seconds (default 1.0)
 *   --once         scrape once, print totals, exit (exit 1 if
 *                  unreachable)
 *   --raw          dump the raw Prometheus page instead of the table
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness/export.hh"

namespace {

std::string
httpScrape(const std::string &host, std::uint16_t port,
           const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string req = "GET " + path +
                            " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
    if (::send(fd, req.data(), req.size(), 0) < 0) {
        ::close(fd);
        return {};
    }
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    const auto split = resp.find("\r\n\r\n");
    return split == std::string::npos ? std::string()
                                      : resp.substr(split + 4);
}

/** Parse "name value" exposition lines (labels and comments skipped). */
std::map<std::string, double>
parsePage(const std::string &page)
{
    std::map<std::string, double> out;
    std::size_t start = 0;
    while (start < page.size()) {
        std::size_t end = page.find('\n', start);
        if (end == std::string::npos)
            end = page.size();
        const std::string line = page.substr(start, end - start);
        start = end + 1;
        if (line.empty() || line[0] == '#' ||
            line.find('{') != std::string::npos)
            continue;
        const auto sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        out[line.substr(0, sp)] =
            std::atof(line.c_str() + sp + 1);
    }
    return out;
}

double
get(const std::map<std::string, double> &m, const char *k)
{
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

/**
 * One table row: served and tx are per-second rates on a refresh and
 * totals under --once; shed sums every reject flavour.
 */
void
printRow(const std::map<std::string, double> &m, double served, double tx)
{
    std::printf("%10.0f %10.0f %8.0f %8.1fu %8.1fu %8.1fu %7.0f\n", served,
                tx, get(m, "hyperplane_server_backlog"),
                get(m, "hyperplane_server_stage_e2e_p50_ns") / 1e3,
                get(m, "hyperplane_server_stage_e2e_p99_ns") / 1e3,
                get(m, "hyperplane_server_stage_e2e_p999_ns") / 1e3,
                get(m, "hyperplane_server_shed_watermark") +
                    get(m, "hyperplane_server_shed_rate_limited") +
                    get(m, "hyperplane_server_shed_queue_full"));
    std::fflush(stdout);
}

/** Kernel variant name from the numeric level metric (0/1/2). */
const char *
variantName(double level, bool crc)
{
    const int l = static_cast<int>(level);
    if (l <= 0)
        return "scalar";
    if (l == 1)
        return crc ? "sse4.2" : "sse2";
    return "avx2";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hyperplane;
    std::string host = "127.0.0.1";
    if (const char *v = harness::argValue(argc, argv, "--host"))
        host = v;
    const char *portArg = harness::argValue(argc, argv, "--port");
    if (portArg == nullptr) {
        std::fputs("usage: hyperplane_top --port P [--host A] "
                   "[--interval S] [--once] [--raw]\n",
                   stderr);
        return 2;
    }
    const auto port = static_cast<std::uint16_t>(std::atoi(portArg));
    double interval = 1.0;
    if (const char *v = harness::argValue(argc, argv, "--interval"))
        interval = std::atof(v);
    const bool once = harness::argPresent(argc, argv, "--once");
    const bool raw = harness::argPresent(argc, argv, "--raw");

    double prevServed = 0.0, prevTx = 0.0;
    bool first = true;
    for (;;) {
        const std::string page = httpScrape(host, port, "/metrics");
        if (page.empty()) {
            std::fprintf(stderr,
                         "hyperplane_top: no response from %s:%u\n",
                         host.c_str(), port);
            if (once)
                return 1;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval));
            continue;
        }
        if (raw) {
            std::fputs(page.c_str(), stdout);
            if (once)
                return 0;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval));
            continue;
        }
        const auto m = parsePage(page);
        const double served = get(m, "hyperplane_server_requests_served");
        const double tx = get(m, "hyperplane_server_tx_packets");
        if (first) {
            // One-time provenance line: which SIMD kernels the server
            // dispatched and how big its zero-copy frame pool is.
            std::printf(
                "kernels: checksum=%s crc32c=%s header=%s%s | "
                "pool: %.0f frames (%.0f free) | payload copies: %.0f\n",
                variantName(
                    get(m, "hyperplane_server_simd_checksum_level"),
                    false),
                variantName(
                    get(m, "hyperplane_server_simd_crc32c_level"),
                    true),
                variantName(
                    get(m, "hyperplane_server_simd_header_level"),
                    false),
                get(m, "hyperplane_server_simd_force_scalar") != 0.0
                    ? " (forced scalar)"
                    : "",
                get(m, "hyperplane_server_pool_frames_total"),
                get(m, "hyperplane_server_pool_frames_free"),
                get(m, "hyperplane_server_payload_copies"));
            std::printf("%10s %10s %8s %9s %9s %9s %7s\n",
                        "served/s", "tx/s", "backlog", "e2e p50",
                        "e2e p99", "e2e p999", "shed");
            first = false;
        } else {
            printRow(m, (served - prevServed) / interval,
                     (tx - prevTx) / interval);
        }
        if (once) {
            // --once prints totals, not rates (there is no delta yet).
            printRow(m, served, tx);
            return 0;
        }
        prevServed = served;
        prevTx = tx;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}
