/**
 * @file
 * Thin RAII wrappers over the kernel UDP fast path: batched sockets
 * (recvmmsg / sendmmsg, SO_REUSEPORT sharding) and an epoll waiter.
 *
 * These are the only files in the repository that talk to real sockets;
 * everything above them works in parsed datagrams.  All calls degrade
 * gracefully — a sandbox that forbids sockets makes open()/bind()
 * return std::nullopt and the callers (tests, benches) skip with an
 * annotation instead of failing.
 */

#ifndef HYPERPLANE_SERVER_UDP_SOCKET_HH
#define HYPERPLANE_SERVER_UDP_SOCKET_HH

#include <netinet/in.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hyperplane {
namespace server {

/** One received or outgoing datagram with its peer address. */
struct Datagram
{
    sockaddr_in peer{};
    std::vector<std::uint8_t> bytes;
};

/**
 * One receive slot for the zero-copy RX path: the caller points
 * @ref data at a frame and recvmmsg scatters straight into it (no
 * intermediate buffer, no copy).  On return, @ref len and @ref peer
 * describe the datagram received into the slot.
 */
struct RxSlot
{
    std::uint8_t *data = nullptr;
    std::uint32_t cap = 0;
    std::uint32_t len = 0;
    sockaddr_in peer{};
};

/**
 * One send view for the zero-copy TX path: sendmmsg gathers directly
 * from @ref data (a response built in place in a pool frame).
 */
struct TxView
{
    const std::uint8_t *data = nullptr;
    std::uint32_t len = 0;
    const sockaddr_in *peer = nullptr;
};

/** Nonblocking UDP socket with batched I/O. */
class UdpSocket
{
  public:
    UdpSocket() = default;
    ~UdpSocket();

    UdpSocket(UdpSocket &&other) noexcept;
    UdpSocket &operator=(UdpSocket &&other) noexcept;
    UdpSocket(const UdpSocket &) = delete;
    UdpSocket &operator=(const UdpSocket &) = delete;

    /**
     * Open an unbound nonblocking UDP socket (client / TX side).
     * @return std::nullopt if sockets are unavailable.
     */
    static std::optional<UdpSocket> open();

    /**
     * Open a nonblocking UDP socket bound to @p ip : @p port.
     *
     * @param ip        Dotted-quad bind address ("127.0.0.1").
     * @param port      Port, 0 for an ephemeral one.
     * @param reusePort Join an SO_REUSEPORT group (RX sharding).
     * @return std::nullopt if sockets are unavailable or the bind fails.
     */
    static std::optional<UdpSocket>
    bind(const std::string &ip, std::uint16_t port, bool reusePort);

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Port actually bound (after an ephemeral bind). 0 if unbound. */
    std::uint16_t localPort() const;

    /** Local bound address in host byte order. 0 if unbound. */
    std::uint32_t localIp() const;

    /**
     * Receive up to @p maxBatch datagrams (recvmmsg, nonblocking).
     * Received datagrams are appended to @p out.
     *
     * @return Number received; 0 when the socket has nothing pending.
     */
    std::size_t recvBatch(std::vector<Datagram> &out,
                          unsigned maxBatch);

    /**
     * Receive up to @p count datagrams directly into the caller's
     * slots (recvmmsg scattering into slot.data, zero-copy).  Slots
     * [0, return) are filled in order.
     *
     * @return Number received; 0 when nothing is pending.
     */
    std::size_t recvBatch(RxSlot *slots, unsigned count);

    /**
     * Send @p count datagrams (sendmmsg).
     * @return Number fully handed to the kernel.
     */
    std::size_t sendBatch(const Datagram *msgs, std::size_t count);

    /**
     * Send @p count datagrams gathered straight from the caller's
     * buffers (sendmmsg, zero-copy).  Same retry contract as the
     * Datagram overload.
     */
    std::size_t sendBatch(const TxView *views, std::size_t count);

    /** Send one datagram. @return true on success. */
    bool sendTo(const sockaddr_in &peer, const std::uint8_t *data,
                std::size_t len);

    void close();

  private:
    explicit UdpSocket(int fd) : fd_(fd) {}

    int fd_ = -1;
};

/** Level-triggered epoll wrapper for read-readiness; its own eventfd
 *  lets another thread end a wait that has no timeout. */
class EpollWaiter
{
  public:
    EpollWaiter();
    ~EpollWaiter();

    EpollWaiter(const EpollWaiter &) = delete;
    EpollWaiter &operator=(const EpollWaiter &) = delete;

    bool valid() const { return valid_; }

    /** Watch @p fd for readability. @return true on success. */
    bool add(int fd);

    /**
     * Wait up to @p timeoutMs (-1: no limit) for a readable fd or a
     * wake().  @return false on timeout or error.
     */
    bool wait(int timeoutMs);

    /** Make this and every later wait() return at once (any thread). */
    void wake();

  private:
    int epfd_ = -1;
    int wakeFd_ = -1;
    bool valid_ = false; ///< both fds exist and wakeFd_ is watched
};

/** Parse a dotted-quad IPv4 string to host byte order. */
std::optional<std::uint32_t> parseIpv4(const std::string &ip);

} // namespace server
} // namespace hyperplane

#endif // HYPERPLANE_SERVER_UDP_SOCKET_HH
