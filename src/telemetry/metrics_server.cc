#include "telemetry/metrics_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"

namespace hyperplane {
namespace telemetry {

namespace {

int
bindSocket(int type, const std::string &ip, std::uint16_t port)
{
    int fd = ::socket(AF_INET, type, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1 ||
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

std::uint16_t
boundPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        return 0;
    }
    return ntohs(addr.sin_port);
}

bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

MetricsServer::~MetricsServer()
{
    stop();
}

bool
MetricsServer::start(const std::string &ip, std::uint16_t port,
                     Handler handler)
{
    if (running())
        return false;
    tcpFd_ = bindSocket(SOCK_STREAM, ip, port);
    if (tcpFd_ < 0) {
        hp_warn("MetricsServer: cannot bind tcp %s:%u: %s", ip.c_str(),
                port, std::strerror(errno));
        return false;
    }
    if (::listen(tcpFd_, 8) != 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
        return false;
    }
    port_ = port != 0 ? port : boundPort(tcpFd_);
    udpFd_ = bindSocket(SOCK_DGRAM, ip, port_);
    if (udpFd_ < 0) {
        hp_warn("MetricsServer: cannot bind udp %s:%u: %s", ip.c_str(),
                port_, std::strerror(errno));
        ::close(tcpFd_);
        tcpFd_ = -1;
        return false;
    }
    handler_ = std::move(handler);
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { loop(); });
    return true;
}

void
MetricsServer::stop()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    stopping_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
    if (udpFd_ >= 0)
        ::close(udpFd_);
    tcpFd_ = udpFd_ = -1;
    running_.store(false, std::memory_order_release);
}

void
MetricsServer::loop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd fds[2];
        fds[0] = {tcpFd_, POLLIN, 0};
        fds[1] = {udpFd_, POLLIN, 0};
        const int n = ::poll(fds, 2, 100);
        if (n <= 0)
            continue;
        if (fds[0].revents & POLLIN)
            serveTcp();
        if (fds[1].revents & POLLIN)
            serveUdp();
    }
}

void
MetricsServer::serveTcp()
{
    int fd = ::accept(tcpFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    // Bound the time a stalled client can hold the serving thread.
    timeval tv{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    std::string req;
    char buf[2048];
    while (req.find("\r\n") == std::string::npos &&
           req.size() < 8192) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        req.append(buf, static_cast<std::size_t>(n));
    }

    std::string path = "/";
    std::istringstream line(req.substr(0, req.find("\r\n")));
    std::string method;
    line >> method >> path;

    std::string status = "200 OK";
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
    if (method != "GET") {
        status = "405 Method Not Allowed";
        body = "method not allowed\n";
    } else {
        body = handler_(path, contentType);
        if (body.empty()) {
            status = "404 Not Found";
            body = "not found\n";
        }
    }

    std::ostringstream hdr;
    hdr << "HTTP/1.0 " << status << "\r\nContent-Type: " << contentType
        << "\r\nContent-Length: " << body.size()
        << "\r\nConnection: close\r\n\r\n";
    const std::string h = hdr.str();
    if (writeAll(fd, h.data(), h.size()))
        writeAll(fd, body.data(), body.size());
    // Count before the close that ends the client's read, so a client
    // that has its answer always sees it counted.
    served_.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
}

void
MetricsServer::serveUdp()
{
    char buf[512];
    sockaddr_in peer{};
    socklen_t peerLen = sizeof(peer);
    const ssize_t n =
        ::recvfrom(udpFd_, buf, sizeof(buf), 0,
                   reinterpret_cast<sockaddr *>(&peer), &peerLen);
    if (n < 0)
        return;
    std::string path(buf, static_cast<std::size_t>(n));
    // Trim whitespace/newlines so `echo /metrics | nc -u` works.
    while (!path.empty() &&
           (path.back() == '\n' || path.back() == '\r' ||
            path.back() == ' ')) {
        path.pop_back();
    }
    if (path.empty())
        path = "/metrics";

    std::string contentType;
    std::string body = handler_(path, contentType);
    if (body.empty())
        body = "not found\n";
    for (std::size_t off = 0; off < body.size(); off += kUdpChunk) {
        const std::size_t len =
            std::min(kUdpChunk, body.size() - off);
        ::sendto(udpFd_, body.data() + off, len, 0,
                 reinterpret_cast<sockaddr *>(&peer), peerLen);
    }
    // Empty terminator datagram marks end-of-body; count the request
    // first, as for HTTP.
    served_.fetch_add(1, std::memory_order_relaxed);
    ::sendto(udpFd_, "", 0, 0, reinterpret_cast<sockaddr *>(&peer),
             peerLen);
}

} // namespace telemetry
} // namespace hyperplane
