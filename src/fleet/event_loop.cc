#include "fleet/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/faultenv.h"
#include "common/metrics.h"

namespace dbsherlock::fleet {

namespace {

using common::Result;
using common::Status;

constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;
/// Output-buffer capacity a connection keeps once fully flushed.
constexpr size_t kMaxIdleOutbufCapacity = 64 << 10;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EventLoop::EventLoop(Options options) : options_(std::move(options)) {
  // Resolved before any Start failure path, which runs Stop from the
  // destructor and publishes through these.
  auto& metrics = common::MetricsRegistry::Global();
  connections_counter_ = metrics.GetCounter("server.connections");
  wakeups_counter_ = metrics.GetCounter("server.epoll_wakeups");
  connections_live_gauge_ = metrics.GetGauge("server.connections_live");
  read_buffer_gauge_ = metrics.GetGauge("server.read_buffer_bytes");
  write_buffer_gauge_ = metrics.GetGauge("server.write_buffer_bytes");
}

Result<std::unique_ptr<EventLoop>> EventLoop::Start(Options options) {
  if (!options.handler) {
    return Status::InvalidArgument("EventLoop needs a line handler");
  }
  auto loop = std::unique_ptr<EventLoop>(new EventLoop(std::move(options)));

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(loop->options_.port));
  if (::inet_pton(AF_INET, loop->options_.host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " +
                                   loop->options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status(common::StatusCode::kIoError,
                  std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    Status status(common::StatusCode::kIoError,
                  std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status(common::StatusCode::kIoError,
                  std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  loop->listen_fd_ = fd;
  loop->port_ = ntohs(addr.sin_port);

  loop->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop->epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  loop->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (loop->wake_fd_ < 0) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(loop->epoll_fd_, EPOLL_CTL_ADD, loop->listen_fd_, &ev) !=
      0) {
    return Status::IoError(std::string("epoll_ctl listen: ") +
                           std::strerror(errno));
  }
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(loop->epoll_fd_, EPOLL_CTL_ADD, loop->wake_fd_, &ev) != 0) {
    return Status::IoError(std::string("epoll_ctl wake: ") +
                           std::strerror(errno));
  }

  loop->workers_ = std::make_unique<common::ThreadPool>(
      std::max<size_t>(1, loop->options_.handler_threads));
  loop->loop_thread_ = std::thread([raw = loop.get()] { raw->Run(); });
  return loop;
}

EventLoop::~EventLoop() { Stop(); }

void EventLoop::Stop() {
  if (stopping_.exchange(true)) return;
  uint64_t one = 1;
  (void)::write(wake_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) loop_thread_.join();
  // The pool destructor drains in-flight offloaded handlers; their
  // completions Post into completions_ and are dropped with it: a
  // response racing shutdown is lost with its closing socket.
  workers_.reset();
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  connections_.clear();
  UpdateLiveConnections();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void EventLoop::Run() {
  epoll_event events[64];
  for (;;) {
    int timeout = -1;
    if (options_.idle_timeout_ms > 0) {
      timeout = std::min(options_.idle_timeout_ms, 250);
    }
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd torn down
    }
    wakeups_counter_->Increment();
    if (stopping_.load()) return;
    for (int i = 0; i < n; ++i) {
      uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        HandleAccepts();
        continue;
      }
      if (id == kWakeId) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        ApplyCompletions();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(id);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      // The read side may have closed the connection; re-check.
      if (connections_.find(id) == connections_.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) HandleWritable(conn);
    }
    // Completions can also arrive while we were busy with socket events.
    ApplyCompletions();
    if (options_.idle_timeout_ms > 0) SweepIdle();
  }
}

void EventLoop::HandleAccepts() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    if (connections_.size() >= options_.max_connections) {
      // Shed with a retry hint instead of queueing unboundedly: the
      // socket was just accepted, so this short write virtually always
      // lands; a client that misses it sees a clean close and backs off.
      std::string line = options_.shed_response + "\n";
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      common::MetricsRegistry::Global()
          .GetCounter("server.accepts_shed")
          ->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_id_++;
    conn->fd = fd;
    conn->last_active_us = NowMicros();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(conn->id, std::move(conn));
    connections_counter_->Increment();
    UpdateLiveConnections();
  }
}

void EventLoop::HandleReadable(Connection* conn) {
  auto& metrics = common::MetricsRegistry::Global();
  char chunk[4096];
  for (;;) {
    ssize_t r = common::faultenv::Recv("srv.recv", conn->fd, chunk,
                                       sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r == 0) {
      // Half-close: the peer finished sending (pipelined requests then
      // shutdown(WR) is a legal client pattern, and everything already
      // buffered gets its answer). Stop reading, but drain pending
      // requests and the write buffer before closing.
      conn->eof = true;
      break;
    }
    if (r < 0) {
      CloseConnection(conn->id);
      return;
    }
    conn->last_active_us = NowMicros();
    read_buffered_bytes_ += static_cast<size_t>(r);
    conn->inbuf.append(chunk, static_cast<size_t>(r));
    size_t newline;
    while (!conn->close_after_flush &&
           (newline = conn->inbuf.find('\n')) != std::string::npos) {
      std::string line = conn->inbuf.substr(0, newline);
      conn->inbuf.erase(0, newline + 1);
      read_buffered_bytes_ -= newline + 1;
      if (line.size() > options_.max_line_bytes) {
        metrics.GetCounter("server.oversized_lines")->Increment();
        conn->pending.clear();
        QueueResponse(conn, options_.oversized_response, /*quit=*/true);
        break;
      }
      conn->pending.push_back(std::move(line));
    }
    // A partial line past the cap can never complete into a valid
    // request; shed it before it eats the loop's memory.
    if (!conn->close_after_flush &&
        conn->inbuf.size() > options_.max_line_bytes) {
      metrics.GetCounter("server.oversized_lines")->Increment();
      read_buffered_bytes_ -= conn->inbuf.size();
      conn->inbuf.clear();
      conn->pending.clear();
      QueueResponse(conn, options_.oversized_response, /*quit=*/true);
    }
  }
  Pump(conn);
  UpdateBufferGauges();
}

void EventLoop::Pump(Connection* conn) {
  while (!conn->in_flight && !conn->close_after_flush &&
         !conn->pending.empty()) {
    std::string line = std::move(conn->pending.front());
    conn->pending.pop_front();
    bool offload = !options_.offload || options_.offload(line);
    if (offload) {
      conn->in_flight = true;
      workers_->Submit([this, id = conn->id, line = std::move(line)] {
        bool quit = false;
        std::string response = options_.handler(line, &quit);
        Post(Completion{id, std::move(response), quit});
      });
      break;
    }
    bool quit = false;
    std::string response = options_.handler(line, &quit);
    QueueResponse(conn, std::move(response), quit);
  }
  FlushOut(conn);
}

void EventLoop::QueueResponse(Connection* conn, std::string response,
                              bool quit) {
  write_buffered_bytes_ += response.size() + 1;
  if (conn->outbuf.empty()) {
    conn->outbuf = std::move(response);
  } else {
    conn->outbuf += response;
  }
  conn->outbuf += '\n';
  if (quit) {
    conn->close_after_flush = true;
    conn->pending.clear();
  }
}

void EventLoop::FlushOut(Connection* conn) {
  while (!conn->outbuf.empty()) {
    ssize_t w = common::faultenv::Send("srv.send", conn->fd,
                                       conn->outbuf.data(),
                                       conn->outbuf.size(), MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (w <= 0) {
      CloseConnection(conn->id);
      return;
    }
    write_buffered_bytes_ -= static_cast<size_t>(w);
    conn->outbuf.erase(0, static_cast<size_t>(w));
  }
  // A large response moved in as the buffer; do not keep its capacity
  // for the small lines that usually follow on the connection.
  if (conn->outbuf.capacity() > kMaxIdleOutbufCapacity) {
    std::string().swap(conn->outbuf);
  }
  if (!conn->in_flight &&
      (conn->close_after_flush || (conn->eof && conn->pending.empty()))) {
    CloseConnection(conn->id);
  }
}

void EventLoop::HandleWritable(Connection* conn) {
  FlushOut(conn);
  UpdateBufferGauges();
}

void EventLoop::CloseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  read_buffered_bytes_ -= conn->inbuf.size();
  write_buffered_bytes_ -= conn->outbuf.size();
  if (conn->in_flight) {
    // An offloaded handler still owns this id; keep a tombstone so its
    // completion finds nothing, but release the socket now.
    ::close(conn->fd);
    conn->fd = -1;
    conn->inbuf.clear();
    conn->outbuf.clear();
    conn->pending.clear();
    conn->close_after_flush = true;
    return;
  }
  ::close(conn->fd);
  connections_.erase(it);
  UpdateLiveConnections();
  UpdateBufferGauges();
}

void EventLoop::SweepIdle() {
  int64_t now = NowMicros();
  int64_t budget_us = static_cast<int64_t>(options_.idle_timeout_ms) * 1000;
  std::vector<uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn->fd >= 0 && !conn->in_flight && conn->outbuf.empty() &&
        now - conn->last_active_us > budget_us) {
      idle.push_back(id);
    }
  }
  if (!idle.empty()) {
    common::Counter* timeouts =
        common::MetricsRegistry::Global().GetCounter("server.idle_timeouts");
    for (uint64_t id : idle) {
      timeouts->Increment();
      CloseConnection(id);
    }
  }
}

void EventLoop::Post(Completion completion) {
  {
    std::lock_guard lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  uint64_t one = 1;
  (void)::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::ApplyCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = connections_.find(c.id);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    conn->in_flight = false;
    if (conn->fd < 0) {
      // Tombstone: the socket died while the handler ran.
      connections_.erase(it);
      UpdateLiveConnections();
      continue;
    }
    QueueResponse(conn, std::move(c.response), c.quit);
    Pump(conn);
  }
  UpdateBufferGauges();
}

void EventLoop::UpdateBufferGauges() {
  read_buffer_gauge_->Set(static_cast<double>(read_buffered_bytes_));
  write_buffer_gauge_->Set(static_cast<double>(write_buffered_bytes_));
}

void EventLoop::UpdateLiveConnections() {
  connections_live_gauge_->Set(static_cast<double>(connections_.size()));
}

}  // namespace dbsherlock::fleet
