#pragma once

/// \file http_server.hpp
/// Minimal embedded HTTP/1.1 server for the admin plane.
///
/// `qplace simulate --metrics-port` serves `/metrics`, `/healthz` and
/// `/report` from a long-lived run (docs/OBSERVABILITY.md §8) -- the seed
/// of the ROADMAP `qplace serve` admin endpoint, modeled on the scaliendb
/// HTTPConnection idea but deliberately smaller: pure POSIX sockets, no
/// external dependencies, one blocking accept loop on a background thread,
/// one connection served at a time, `Connection: close` on every response.
/// That is exactly enough for a scraper or a curl probe and keeps the
/// server out of the simulator's hot path entirely (handlers read shared
/// state through their own synchronization; the server itself holds no
/// locks while the sim thread runs).
///
/// Only GET is answered (anything else gets 405). Query strings are
/// stripped before routing; unknown paths get 404; a throwing handler is
/// converted to a 500 carrying the exception text.

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace qp::net {

struct HttpRequest {
  std::string method;  ///< e.g. "GET"
  std::string path;    ///< decoded target without the query string
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Blocking-accept HTTP server bound to 127.0.0.1.
///
/// Lifecycle: construct, handle() for each route, start(), ... stop().
/// stop() (also run by the destructor) wakes the accept loop and joins the
/// serving thread; it is idempotent. Handlers run on the serving thread and
/// must synchronize internally with whatever state they read.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers \p handler for exact-match \p path. Must be called before
  /// start().
  void handle(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:\p port (0 picks an ephemeral port -- see port()) and
  /// launches the accept loop.
  /// \throws std::runtime_error on socket/bind/listen failure or if already
  ///         started.
  void start(int port);

  /// Port actually bound, host byte order; 0 before start().
  int port() const { return port_; }
  bool running() const { return listen_fd_.load() >= 0; }

  void stop();

 private:
  void serve_loop(int listen_fd);
  void serve_connection(int fd);

  std::map<std::string, Handler> handlers_;
  std::thread thread_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
};

}  // namespace qp::net
