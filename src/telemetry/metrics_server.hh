/**
 * @file
 * Minimal metrics endpoint: a single-threaded HTTP/1.0 listener.
 *
 * It answers GET requests (curl, Prometheus scrapers, the
 * hyperplane_top example) with handler-provided bodies.  One
 * background thread blocks in accept() with no timeout, so an idle
 * endpoint never wakes; stop() shuts the listening socket down to
 * release it.  Requests are served strictly serially, which is plenty
 * for a scrape endpoint and keeps the implementation trivial to reason
 * about.
 */

#ifndef HYPERPLANE_TELEMETRY_METRICS_SERVER_HH
#define HYPERPLANE_TELEMETRY_METRICS_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace hyperplane {
namespace telemetry {

class MetricsServer
{
  public:
    /**
     * Maps a request path to a response body; sets @p contentType.
     * An empty return means 404.
     */
    using Handler = std::function<std::string(const std::string &path,
                                              std::string &contentType)>;

    MetricsServer() = default;
    ~MetricsServer();

    MetricsServer(const MetricsServer &) = delete;
    MetricsServer &operator=(const MetricsServer &) = delete;

    /**
     * Bind @p ip:@p port (TCP; port 0 picks an ephemeral port) and
     * start the serving thread.
     * @return false if the socket could not be bound or listen.
     */
    bool start(const std::string &ip, std::uint16_t port,
               Handler handler);

    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Bound port (valid after a successful start()). */
    std::uint16_t port() const { return port_; }

    /** HTTP requests answered. */
    std::uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

  private:
    void loop();
    void serve(int fd);

    Handler handler_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> served_{0};
    int tcpFd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace telemetry
} // namespace hyperplane

#endif // HYPERPLANE_TELEMETRY_METRICS_SERVER_HH
