#include "serve/telemetry_server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "obs/registry.hpp"

namespace dlis::serve {

namespace {

/**
 * Whole-request deadline. The server answers one connection at a
 * time, so a client that never finishes its request would otherwise
 * hold every other scraper (and stop()) hostage.
 */
constexpr std::chrono::milliseconds kRequestDeadline{2000};

/**
 * Read until the end of the request headers (or the peer closes).
 * Empty when the deadline passes first: the deadline covers the whole
 * request, so a client trickling one byte at a time cannot extend it.
 */
std::string
readRequest(int fd)
{
    const auto deadline =
        std::chrono::steady_clock::now() + kRequestDeadline;
    std::string request;
    char buf[2048];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < 16 * 1024) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            return "";
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0)
            return ""; // deadline
        if (ready < 0)
            break;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue; // signal mid-read, not a peer close: retry
        if (n <= 0)
            break;
        request.append(buf, static_cast<size_t>(n));
    }
    return request;
}

void
writeAll(int fd, const std::string &data)
{
    size_t sent = 0;
    while (sent < data.size()) {
        // MSG_NOSIGNAL: a scraper that disconnects mid-response turns
        // the send into an EPIPE return instead of a process-killing
        // SIGPIPE (the server installs no signal handlers, and must
        // not — it shares the process with the serving engine).
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // signal mid-scrape must not truncate /metrics
        if (n <= 0)
            return; // peer gone (EPIPE/ECONNRESET) or socket error
        sent += static_cast<size_t>(n);
    }
}

std::string
httpResponse(const std::string &status, const std::string &contentType,
             const std::string &body)
{
    std::string out = "HTTP/1.1 " + status + "\r\n";
    out += "Content-Type: " + contentType + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += body;
    return out;
}

/** Path of "GET <path> HTTP/1.x"; empty when unparseable. */
std::string
requestPath(const std::string &request)
{
    if (request.rfind("GET ", 0) != 0)
        return "";
    const size_t end = request.find(' ', 4);
    if (end == std::string::npos)
        return "";
    return request.substr(4, end - 4);
}

} // namespace

TelemetryServer::TelemetryServer(obs::MetricsRegistry &registry,
                                 uint16_t port)
    : registry_(registry)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DLIS_CHECK(listenFd_ >= 0, "telemetry: socket() failed");

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("telemetry: cannot bind 127.0.0.1:", port, " — ",
              std::strerror(errno));
    }
    if (::listen(listenFd_, 16) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("telemetry: listen() failed — ", std::strerror(errno));
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    thread_ = std::thread([this] { acceptLoop(); });
    inform("telemetry: serving /metrics and /statusz on 127.0.0.1:",
           port_);
}

TelemetryServer::~TelemetryServer()
{
    stop();
}

void
TelemetryServer::stop()
{
    if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
        // Unblock the accept(2) call: shutdown() fails the pending
        // accept on Linux; close() then releases the fd.
        if (listenFd_ >= 0) {
            ::shutdown(listenFd_, SHUT_RDWR);
            ::close(listenFd_);
        }
    }
    if (thread_.joinable())
        thread_.join();
    listenFd_ = -1;
    {
        std::lock_guard<std::mutex> lock(quitMutex_);
        quitRequested_ = true;
    }
    quitCv_.notify_all();
}

void
TelemetryServer::waitForQuit()
{
    std::unique_lock<std::mutex> lock(quitMutex_);
    quitCv_.wait(lock, [this] { return quitRequested_; });
}

bool
TelemetryServer::handlePath(const std::string &path, std::string &body,
                            std::string &contentType)
{
    if (path == "/metrics") {
        body = registry_.renderPrometheus();
        contentType = "text/plain; version=0.0.4; charset=utf-8";
        return true;
    }
    if (path == "/statusz") {
        body = registry_.renderStatusJson();
        contentType = "application/json";
        return true;
    }
    if (path == "/healthz") {
        body = "ok\n";
        contentType = "text/plain";
        return true;
    }
    if (path == "/quitquitquit") {
        body = "bye\n";
        contentType = "text/plain";
        {
            std::lock_guard<std::mutex> lock(quitMutex_);
            quitRequested_ = true;
        }
        quitCv_.notify_all();
        return true;
    }
    return false;
}

void
TelemetryServer::serveClient(int fd)
{
    const std::string path = requestPath(readRequest(fd));
    std::string body;
    std::string contentType;
    if (path.empty()) {
        writeAll(fd, httpResponse("400 Bad Request", "text/plain",
                                  "bad request\n"));
    } else if (handlePath(path, body, contentType)) {
        writeAll(fd, httpResponse("200 OK", contentType, body));
    } else {
        writeAll(fd, httpResponse("404 Not Found", "text/plain",
                                  "not found\n"));
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
}

void
TelemetryServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_acquire))
                return;
            if (errno == EINTR)
                continue;
            return; // listen socket gone; nothing left to serve
        }
        serveClient(fd);
    }
}

} // namespace dlis::serve
