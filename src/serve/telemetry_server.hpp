/**
 * @file
 * Dependency-free HTTP exporter for the serving telemetry.
 *
 * A TelemetryServer binds a loopback TCP port and answers:
 *   GET /metrics      Prometheus text exposition (format 0.0.4)
 *   GET /statusz      JSON snapshot of the same instruments
 *   GET /healthz      "ok" liveness probe
 *   GET /quitquitquit acknowledge, then release waitForQuit()
 *
 * of one MetricsRegistry. Implementation is plain blocking POSIX
 * sockets on a single accept thread: a scrape is a few milliseconds of
 * rendering once every scrape interval, so an event loop would be
 * machinery without a workload. Each connection gets a fixed 2 s
 * whole-request deadline (answered 400 on expiry), so one stalled
 * client cannot block the others. Scrapes never touch engine locks —
 * rendering reads lock-free instruments plus the registry's
 * registration mutex.
 *
 * Port 0 (the default) binds an ephemeral port; port() reports the
 * real one, which is how tests and the CI smoke job avoid port
 * collisions.
 */

#ifndef DLIS_SERVE_TELEMETRY_SERVER_HPP
#define DLIS_SERVE_TELEMETRY_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace dlis::obs {
class MetricsRegistry;
} // namespace dlis::obs

namespace dlis::serve {

/** Loopback /metrics + /statusz exporter; see file comment. */
class TelemetryServer
{
  public:
    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) and start serving
     * @p registry. Throws FatalError if the port cannot be bound.
     * The registry must outlive the server.
     */
    explicit TelemetryServer(obs::MetricsRegistry &registry,
                             uint16_t port = 0);

    /** Stops and joins the accept thread. */
    ~TelemetryServer();

    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** The bound port (the ephemeral one when constructed with 0). */
    uint16_t port() const { return port_; }

    /** Stop serving and join (idempotent; releases waitForQuit()). */
    void stop();

    /** Block until GET /quitquitquit arrives or stop() is called. */
    void waitForQuit();

    /**
     * Dispatch one request path to its response body + content type.
     * Exposed for tests; the accept loop routes through this.
     * @return false for unknown paths (the caller answers 404).
     */
    bool handlePath(const std::string &path, std::string &body,
                    std::string &contentType);

  private:
    void acceptLoop();
    void serveClient(int fd);

    obs::MetricsRegistry &registry_;
    uint16_t port_ = 0;
    int listenFd_ = -1;
    std::thread thread_;
    /** Server lifecycle flags, not metrics.
     *  dlis-lint: allow(serve-atomic) */
    std::atomic<bool> stopping_{false}; // dlis-lint: allow(serve-atomic)
    std::mutex quitMutex_;
    std::condition_variable quitCv_;
    bool quitRequested_ = false;
};

} // namespace dlis::serve

#endif // DLIS_SERVE_TELEMETRY_SERVER_HPP
