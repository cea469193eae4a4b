#ifndef DBSHERLOCK_SERVICE_SERVER_H_
#define DBSHERLOCK_SERVICE_SERVER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "fleet/event_loop.h"
#include "service/service.h"
#include "service/wire.h"

namespace dbsherlock::service {

/// The TCP frontend of dbsherlockd. Each request line is parsed with
/// wire.h, dispatched into the Service, and answered with exactly one
/// response line. The server owns no diagnosis logic — backpressure and
/// queueing decisions all come from Service::Append.
///
/// Connections are multiplexed by one fleet::EventLoop (DESIGN.md §15):
/// one loop thread for every connection plus a fixed handler pool for
/// the verbs that may block. Accepts past max_connections are shed with a
/// RETRY_AFTER line.
class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read the real one from port().
    int port = 0;
    /// Connections beyond this are shed (RETRY_AFTER + close) at accept.
    size_t max_connections = 64;
    /// Delay advertised on the accept-shed RETRY_AFTER line.
    int accept_retry_after_ms = 50;
    /// Slow-loris guard: a connection that sends nothing for this long is
    /// closed (its fd is a finite resource). 0 = wait forever.
    int idle_timeout_ms = 0;
    /// Per-connection line-buffer cap; a longer request line gets
    /// ERR ParseError and the connection is closed.
    size_t max_line_bytes = 1 << 20;
    /// Workers running blocking verbs off the loop thread.
    size_t handler_threads = 4;
    /// The engine; required, not owned.
    Service* service = nullptr;
  };

  /// Binds, listens, and starts the event loop.
  static common::Result<std::unique_ptr<Server>> Start(Options options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves Options::port == 0).
  int port() const { return loop_->port(); }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, shuts down live connections, and waits for their
  /// handlers to finish. Does NOT stop the Service (its owner does).
  void Stop();

 private:
  explicit Server(Options options);

  /// One request line -> one response line (no trailing newline).
  /// Sets *quit on QUIT.
  std::string HandleLine(const std::string& line, bool* quit);
  /// True when `line` names a verb that may block (it then runs on the
  /// handler pool instead of the loop thread).
  static bool ShouldOffload(const std::string& line);

  Options options_;
  std::unique_ptr<fleet::EventLoop> loop_;
};

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_SERVER_H_
