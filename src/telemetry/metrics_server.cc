#include "telemetry/metrics_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"

namespace hyperplane {
namespace telemetry {

namespace {

int
bindSocket(const std::string &ip, std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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
    tcpFd_ = bindSocket(ip, port);
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
    // A shut-down listening socket fails the blocked accept() and every
    // later one, so the thread sees stopping_ whenever it gets there.
    ::shutdown(tcpFd_, SHUT_RDWR);
    if (thread_.joinable())
        thread_.join();
    ::close(tcpFd_);
    tcpFd_ = -1;
    running_.store(false, std::memory_order_release);
}

void
MetricsServer::loop()
{
    for (;;) {
        const int fd = ::accept(tcpFd_, nullptr, nullptr);
        if (fd >= 0)
            serve(fd);
        else if (stopping_.load(std::memory_order_acquire))
            return;
    }
}

void
MetricsServer::serve(int fd)
{
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

} // namespace telemetry
} // namespace hyperplane
