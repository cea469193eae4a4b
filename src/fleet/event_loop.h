#ifndef DBSHERLOCK_FLEET_EVENT_LOOP_H_
#define DBSHERLOCK_FLEET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/status.h"

namespace dbsherlock::fleet {

/// Edge-triggered epoll event loop serving the dbsherlockd line protocol
/// (DESIGN.md §15): one loop thread multiplexes the listen socket and
/// every live connection through nonblocking I/O, so a connection costs
/// an fd and its buffers, never a blocked reader thread. Request lines are
/// reassembled from partial reads per connection; responses are written
/// through a per-connection output buffer that survives short writes.
///
/// Two dispatch paths keep the loop responsive:
///
///   inline    `handler` runs on the loop thread — only for requests the
///             owner promises never block (APPEND's bounded-queue path,
///             PING). One stalled inline handler stalls every connection,
///             which is exactly why `offload` exists.
///   offload   requests for which `offload(line)` returns true run on a
///             fixed worker pool (`handler_threads`); the response is
///             posted back to the loop through an eventfd wakeup. While a
///             connection has an offloaded request in flight, its later
///             lines wait in its pending queue — one request at a time
///             per connection, so responses keep wire order.
///
/// Connections past `max_connections` are shed at accept with a
/// RETRY_AFTER line (clients back off and try again) instead of holding
/// an fd or a thread. Oversized request lines get ERR ParseError and the
/// connection is closed, complete or partial. Connections idle past
/// `idle_timeout_ms` are closed by a periodic sweep.
class EventLoop {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 binds an ephemeral port
    size_t max_connections = 64;
    size_t max_line_bytes = 1 << 20;
    /// Connections idle (no bytes read) this long are closed. 0 = never.
    int idle_timeout_ms = 0;
    /// Response line (no trailing newline) written before closing a
    /// connection shed at accept past max_connections. The owner renders
    /// it with wire.h (RetryAfterLine) — the loop itself stays protocol
    /// agnostic so dbsherlock_fleet_core never depends on the service lib.
    std::string shed_response = "RETRY_AFTER 50";
    /// Response line for an oversized (complete or partial) request line;
    /// the connection closes after it flushes.
    std::string oversized_response = "ERR ParseError request line too long";
    /// Workers for offloaded (blocking) request handlers.
    size_t handler_threads = 4;
    /// One request line -> one response line (no trailing newline); sets
    /// *quit to close the connection after the response flushes. Must be
    /// thread-safe: it runs on the loop thread or a pool worker.
    std::function<std::string(const std::string& line, bool* quit)> handler;
    /// True when `line` may block and must leave the loop thread.
    /// Default (unset): every line is offloaded.
    std::function<bool(const std::string& line)> offload;
  };

  /// Binds, listens, and starts the loop thread.
  static common::Result<std::unique_ptr<EventLoop>> Start(Options options);

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, waits for in-flight offloaded handlers, closes every
  /// connection, and joins the loop thread. Idempotent.
  void Stop();

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string inbuf;              // bytes read, not yet split into lines
    std::deque<std::string> pending;  // complete lines awaiting dispatch
    std::string outbuf;             // response bytes not yet written
    bool in_flight = false;         // an offloaded handler owns the next
                                    // response slot
    bool close_after_flush = false;
    bool eof = false;  // peer half-closed; drain pending, then close
    int64_t last_active_us = 0;
  };

  struct Completion {
    uint64_t id = 0;
    std::string response;
    bool quit = false;
  };

  explicit EventLoop(Options options);

  void Run();
  void HandleAccepts();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Dispatches pending lines until one goes in flight (offload) or the
  /// queue empties, then flushes the output buffer.
  void Pump(Connection* conn);
  void QueueResponse(Connection* conn, std::string response, bool quit);
  void FlushOut(Connection* conn);
  void CloseConnection(uint64_t id);
  void SweepIdle();
  /// Thread-safe: posts an offload completion and wakes the loop.
  void Post(Completion completion);
  void ApplyCompletions();
  void UpdateBufferGauges();
  /// Publishes connections_.size() to the server.connections_live gauge.
  void UpdateLiveConnections();

  Options options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: offload completions and Stop
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;
  std::unique_ptr<common::ThreadPool> workers_;

  // Registry entries updated on every event, resolved once at
  // construction (a lookup takes the registry mutex). Rare-path counters
  // stay lazy so a STATS snapshot lists them only once they fire.
  common::Counter* connections_counter_ = nullptr;
  common::Counter* wakeups_counter_ = nullptr;
  common::Gauge* connections_live_gauge_ = nullptr;
  common::Gauge* read_buffer_gauge_ = nullptr;
  common::Gauge* write_buffer_gauge_ = nullptr;

  // Loop-thread state (no lock): connections keyed by id, never by fd, so
  // a recycled fd number can't alias a closed connection.
  uint64_t next_id_ = 2;  // 0 = listen sentinel, 1 = wakeup sentinel
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  size_t read_buffered_bytes_ = 0;
  size_t write_buffered_bytes_ = 0;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

}  // namespace dbsherlock::fleet

#endif  // DBSHERLOCK_FLEET_EVENT_LOOP_H_
