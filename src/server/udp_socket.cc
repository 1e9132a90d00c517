#include "server/udp_socket.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/wire.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace server {

namespace {

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/**
 * Receive buffer every socket asks for.  The kernel default (208 KB)
 * queues 256 small datagrams on loopback, about 13 ms at 20k/s, so a
 * receiving thread that waits that long for a CPU loses datagrams to
 * RcvbufErrors.  The kernel caps the request at net.core.rmem_max;
 * memory is charged only for datagrams actually queued.
 */
constexpr int rcvBufBytes = 4 << 20;

} // namespace

UdpSocket::~UdpSocket()
{
    close();
}

UdpSocket::UdpSocket(UdpSocket &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

UdpSocket &
UdpSocket::operator=(UdpSocket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
UdpSocket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::optional<UdpSocket>
UdpSocket::open()
{
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0)
        return std::nullopt;
    if (!setNonBlocking(fd)) {
        ::close(fd);
        return std::nullopt;
    }
    // Best effort: a smaller cap only means less slack, so a refusal
    // is not an error.
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvBufBytes,
                       sizeof(rcvBufBytes));
    return UdpSocket(fd);
}

std::optional<UdpSocket>
UdpSocket::bind(const std::string &ip, std::uint16_t port, bool reusePort)
{
    const auto addr = parseIpv4(ip);
    if (!addr)
        return std::nullopt;
    auto sock = open();
    if (!sock)
        return std::nullopt;
    if (reusePort) {
        const int one = 1;
        if (::setsockopt(sock->fd(), SOL_SOCKET, SO_REUSEPORT, &one,
                         sizeof(one)) != 0) {
            return std::nullopt;
        }
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(*addr);
    sa.sin_port = htons(port);
    if (::bind(sock->fd(), reinterpret_cast<sockaddr *>(&sa),
               sizeof(sa)) != 0) {
        return std::nullopt;
    }
    return sock;
}

std::uint16_t
UdpSocket::localPort() const
{
    if (fd_ < 0)
        return 0;
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&sa), &len) != 0)
        return 0;
    return ntohs(sa.sin_port);
}

std::uint32_t
UdpSocket::localIp() const
{
    if (fd_ < 0)
        return 0;
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&sa), &len) != 0)
        return 0;
    return ntohl(sa.sin_addr.s_addr);
}

std::size_t
UdpSocket::recvBatch(std::vector<Datagram> &out, unsigned maxBatch)
{
    if (fd_ < 0 || maxBatch == 0)
        return 0;
    constexpr unsigned maxVec = 64;
    if (maxBatch > maxVec)
        maxBatch = maxVec;

    std::uint8_t bufs[maxVec][wire::maxDatagramBytes];
    sockaddr_in peers[maxVec];
    iovec iovs[maxVec];
    mmsghdr msgs[maxVec];
    std::memset(msgs, 0, sizeof(mmsghdr) * maxBatch);
    for (unsigned i = 0; i < maxBatch; ++i) {
        iovs[i].iov_base = bufs[i];
        iovs[i].iov_len = wire::maxDatagramBytes;
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
        msgs[i].msg_hdr.msg_name = &peers[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(peers[i]);
    }
    const int n = ::recvmmsg(fd_, msgs, maxBatch, 0, nullptr);
    if (n <= 0)
        return 0;
    out.reserve(out.size() + static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Datagram d;
        d.peer = peers[i];
        d.bytes.assign(bufs[i], bufs[i] + msgs[i].msg_len);
        out.push_back(std::move(d));
    }
    return static_cast<std::size_t>(n);
}

std::size_t
UdpSocket::recvBatch(RxSlot *slots, unsigned count)
{
    if (fd_ < 0 || count == 0)
        return 0;
    constexpr unsigned maxVec = 64;
    if (count > maxVec)
        count = maxVec;

    iovec iovs[maxVec];
    mmsghdr msgs[maxVec];
    std::memset(msgs, 0, sizeof(mmsghdr) * count);
    for (unsigned i = 0; i < count; ++i) {
        iovs[i].iov_base = slots[i].data;
        iovs[i].iov_len = slots[i].cap;
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
        msgs[i].msg_hdr.msg_name = &slots[i].peer;
        msgs[i].msg_hdr.msg_namelen = sizeof(slots[i].peer);
    }
    const int n = ::recvmmsg(fd_, msgs, count, 0, nullptr);
    if (n <= 0)
        return 0;
    for (int i = 0; i < n; ++i)
        slots[i].len = msgs[i].msg_len;
    return static_cast<std::size_t>(n);
}

std::size_t
UdpSocket::sendBatch(const TxView *views, std::size_t count)
{
    if (fd_ < 0 || count == 0)
        return 0;
    constexpr std::size_t maxVec = 64;
    std::size_t sent = 0;
    while (sent < count) {
        const std::size_t chunk = std::min(count - sent, maxVec);
        iovec iovs[maxVec];
        mmsghdr hdrs[maxVec];
        std::memset(hdrs, 0, sizeof(mmsghdr) * chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
            const TxView &v = views[sent + i];
            iovs[i].iov_base = const_cast<std::uint8_t *>(v.data);
            iovs[i].iov_len = v.len;
            hdrs[i].msg_hdr.msg_iov = &iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
            hdrs[i].msg_hdr.msg_name =
                const_cast<sockaddr_in *>(v.peer);
            hdrs[i].msg_hdr.msg_namelen = sizeof(*v.peer);
        }
        const int n =
            ::sendmmsg(fd_, hdrs, static_cast<unsigned>(chunk), 0);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                continue; // loopback buffers drain fast; retry
            break;
        }
        sent += static_cast<std::size_t>(n);
    }
    return sent;
}

std::size_t
UdpSocket::sendBatch(const Datagram *msgs, std::size_t count)
{
    if (fd_ < 0 || count == 0)
        return 0;
    constexpr std::size_t maxVec = 64;
    std::size_t sent = 0;
    while (sent < count) {
        const std::size_t chunk = std::min(count - sent, maxVec);
        iovec iovs[maxVec];
        mmsghdr hdrs[maxVec];
        std::memset(hdrs, 0, sizeof(mmsghdr) * chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
            const Datagram &d = msgs[sent + i];
            iovs[i].iov_base =
                const_cast<std::uint8_t *>(d.bytes.data());
            iovs[i].iov_len = d.bytes.size();
            hdrs[i].msg_hdr.msg_iov = &iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
            hdrs[i].msg_hdr.msg_name =
                const_cast<sockaddr_in *>(&d.peer);
            hdrs[i].msg_hdr.msg_namelen = sizeof(d.peer);
        }
        const int n =
            ::sendmmsg(fd_, hdrs, static_cast<unsigned>(chunk), 0);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                continue; // loopback buffers drain fast; retry
            break;
        }
        sent += static_cast<std::size_t>(n);
    }
    return sent;
}

bool
UdpSocket::sendTo(const sockaddr_in &peer, const std::uint8_t *data,
                  std::size_t len)
{
    if (fd_ < 0)
        return false;
    for (;;) {
        const ssize_t n = ::sendto(
            fd_, data, len, 0,
            reinterpret_cast<const sockaddr *>(&peer), sizeof(peer));
        if (n == static_cast<ssize_t>(len))
            return true;
        if (n < 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
            continue;
        return false;
    }
}

EpollWaiter::EpollWaiter()
    : epfd_(::epoll_create1(EPOLL_CLOEXEC)),
      wakeFd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)), valid_(add(wakeFd_))
{
}

EpollWaiter::~EpollWaiter()
{
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (epfd_ >= 0)
        ::close(epfd_);
}

bool
EpollWaiter::add(int fd)
{
    if (epfd_ < 0)
        return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool
EpollWaiter::wait(int timeoutMs)
{
    if (epfd_ < 0)
        return false;
    epoll_event evs[16];
    return ::epoll_wait(epfd_, evs, 16, timeoutMs) > 0;
}

void
EpollWaiter::wake()
{
    // Never read back, so the eventfd stays readable: level-triggered
    // epoll then reports it to this and every later wait().
    const std::uint64_t one = 1;
    if (valid_ && ::write(wakeFd_, &one, sizeof(one)) < 0)
        hp_warn("EpollWaiter: eventfd write failed: %s",
                std::strerror(errno));
}

std::optional<std::uint32_t>
parseIpv4(const std::string &ip)
{
    in_addr a{};
    if (::inet_pton(AF_INET, ip.c_str(), &a) != 1)
        return std::nullopt;
    return ntohl(a.s_addr);
}

} // namespace server
} // namespace hyperplane
