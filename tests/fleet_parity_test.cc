// Wire parity of the server's event loop (fleet/event_loop.h behind
// service::Server) with the thread-per-connection engine it replaced.
// That engine's responses were recorded as literal transcripts; the loop
// must reproduce them byte for byte — for a pipelined script, the same
// script split into many small writes, and under a short-read/short-write
// fault schedule. Beside the transcripts: a half-closed (EOF-drain) peer
// is answered in full, a slow-loris client stalls nobody else, and
// accepts past max_connections are shed until a slot frees.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/faultenv.h"
#include "service/model_store.h"
#include "service/server.h"
#include "service/service.h"

namespace dbsherlock::service {
namespace {

/// A raw TCP client: exact bytes out, exact bytes in. The Client class
/// would hide the framing this test is about.
class RawConn {
 public:
  ~RawConn() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool SendAll(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      ssize_t w = ::send(fd_, bytes.data() + done, bytes.size() - done,
                         MSG_NOSIGNAL);
      if (w <= 0) return false;
      done += static_cast<size_t>(w);
    }
    return true;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF or `timeout_ms` of silence; returns the bytes seen.
  std::string ReadToEof(int timeout_ms = 5000) {
    std::string out;
    char chunk[4096];
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) break;
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) break;
      out.append(chunk, static_cast<size_t>(r));
    }
    return out;
  }

  /// Reads until `n` newline-terminated lines have arrived (or timeout).
  std::string ReadLines(size_t n, int timeout_ms = 5000) {
    std::string out;
    char chunk[4096];
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (static_cast<size_t>(
               std::count(out.begin(), out.end(), '\n')) < n) {
      int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (left <= 0) break;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, left) <= 0) break;
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) break;
      out.append(chunk, static_cast<size_t>(r));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// One self-contained daemon stack (volatile store + service + server),
/// with the knobs the transcripts were recorded under.
struct Stack {
  std::unique_ptr<DurableModelStore> store;
  std::unique_ptr<Service> service;
  std::unique_ptr<Server> server;

  static Stack Start(size_t max_connections = 16) {
    Stack s;
    auto store = DurableModelStore::Open({});
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    s.store = std::move(*store);
    Service::Options service_options;
    service_options.store = s.store.get();
    service_options.ingest_workers = 1;
    service_options.diagnosis_workers = 1;
    s.service = std::make_unique<Service>(service_options);
    Server::Options server_options;
    server_options.service = s.service.get();
    server_options.handler_threads = 2;
    server_options.max_connections = max_connections;
    auto server = Server::Start(server_options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    s.server = std::move(*server);
    return s;
  }

  int port() const { return server->port(); }

  void Stop() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Stop();
  }
};

/// A deterministic conversation: HELLO, fresh APPENDSEQs, FLUSH (so the
/// replays below observe a settled durable state), a resumed HELLO, an
/// idempotent replay, a parse error, and QUIT. Every response line is a
/// pure function of the script.
const char kScript[] =
    "PING\n"
    "HELLO t0 m0:num,m1:num\n"
    "APPENDSEQ t0 1 1 4,8\n"
    "APPENDSEQ t0 2 2 5,9\n"
    "APPENDSEQ t0 3 3 6,10\n"
    "FLUSH t0\n"
    "HELLO t0 m0:num,m1:num\n"
    "APPENDSEQ t0 2 2 5,9\n"
    "NO_SUCH_VERB at all\n"
    "FLUSH t0\n"
    "QUIT\n";
const size_t kScriptResponses = 11;

/// kScript's responses as the thread-per-connection engine wrote them.
const char kTranscript[] =
    "OK pong\n"
    "OK tenant t0 attrs 2\n"
    "OK 1\n"
    "OK 2\n"
    "OK 3\n"
    "OK flushed\n"
    "OK tenant t0 attrs 2\n"
    "OK 3 replayed\n"
    "ERR InvalidArgument unknown verb: NO_SUCH_VERB\n"
    "OK flushed\n"
    "OK bye\n";

/// Sends `segments` (with optional pauses between them) and returns all
/// response bytes until the server closes or goes quiet.
std::string Converse(int port,
                     const std::vector<std::pair<std::string, int>>& segments) {
  RawConn conn;
  EXPECT_TRUE(conn.Connect(port));
  for (const auto& [bytes, sleep_ms] : segments) {
    EXPECT_TRUE(conn.SendAll(bytes));
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::string out = conn.ReadLines(kScriptResponses);
  out += conn.ReadToEof(200);
  return out;
}

TEST(FleetParityTest, PipelinedScriptMatchesTranscript) {
  Stack stack = Stack::Start();
  EXPECT_EQ(Converse(stack.port(), {{kScript, 0}}), kTranscript);
  stack.Stop();
}

TEST(FleetParityTest, PartialLineWritesReassembleIdentically) {
  // The same script dribbled in awkward fragments — splits mid-verb,
  // mid-number, and between the '\r'-less line end and the next verb.
  Stack stack = Stack::Start();
  std::string script(kScript);
  std::vector<std::pair<std::string, int>> segments;
  const size_t kFragment = 7;
  for (size_t at = 0; at < script.size(); at += kFragment) {
    segments.emplace_back(script.substr(at, kFragment), 2);
  }
  EXPECT_EQ(Converse(stack.port(), segments), kTranscript);
  stack.Stop();
}

TEST(FleetParityTest, HalfClosedPeerStillGetsPipelinedAnswers) {
  // shutdown(SHUT_WR) right after the script: the server must drain the
  // buffered requests and answer them all before closing (EOF is not an
  // abort).
  Stack stack = Stack::Start();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(stack.port()));
  ASSERT_TRUE(conn.SendAll("PING\nPING\nPING\n"));
  conn.ShutdownWrite();
  EXPECT_EQ(conn.ReadToEof(), "OK pong\nOK pong\nOK pong\n");
  stack.Stop();
}

TEST(FleetParityTest, SlowLorisDoesNotStallOtherClients) {
  // A client dribbling one byte at a time holds a connection open for
  // seconds. That must cost an fd, not a thread: a normal client running
  // alongside finishes its requests at full speed.
  Stack stack = Stack::Start();
  std::atomic<bool> loris_ok{false};
  std::thread loris([&] {
    RawConn conn;
    if (!conn.Connect(stack.port())) return;
    const std::string line = "PING\n";
    for (char c : line) {
      if (!conn.SendAll(std::string(1, c))) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    loris_ok = conn.ReadLines(1) == "OK pong\n";
  });

  auto started = std::chrono::steady_clock::now();
  RawConn fast;
  ASSERT_TRUE(fast.Connect(stack.port()));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fast.SendAll("PING\n"));
    ASSERT_EQ(fast.ReadLines(1), "OK pong\n") << "iteration " << i;
  }
  double fast_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  // The loris needs ~750ms just to spell PING; 50 sequential round-trips
  // beside it finish far sooner unless it wedged a handler.
  EXPECT_LT(fast_ms, 500.0);
  loris.join();
  EXPECT_TRUE(loris_ok) << "slow-loris request was dropped, not served";
  stack.Stop();
}

TEST(FleetParityTest, AcceptShedBeyondMaxConnections) {
  Stack stack = Stack::Start(/*max_connections=*/2);
  RawConn a, b;
  ASSERT_TRUE(a.Connect(stack.port()));
  ASSERT_TRUE(a.SendAll("PING\n"));
  ASSERT_EQ(a.ReadLines(1), "OK pong\n");
  ASSERT_TRUE(b.Connect(stack.port()));
  ASSERT_TRUE(b.SendAll("PING\n"));
  ASSERT_EQ(b.ReadLines(1), "OK pong\n");

  // Third connection: shed with a RETRY_AFTER hint and closed, no thread
  // spawned, no silent hang.
  RawConn c;
  ASSERT_TRUE(c.Connect(stack.port()));
  EXPECT_EQ(c.ReadToEof(), "RETRY_AFTER 50\n");

  // Closing a live connection frees its slot — the gauge must track
  // closes, or this accept is shed too and the fleet never recovers.
  a.Close();
  for (int attempt = 0;; ++attempt) {
    RawConn d;
    ASSERT_TRUE(d.Connect(stack.port()));
    ASSERT_TRUE(d.SendAll("PING\n"));
    std::string got = d.ReadLines(1);
    if (got == "OK pong\n") break;
    ASSERT_LT(attempt, 50) << "slot never freed after close: " << got;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stack.Stop();
}

TEST(FleetParityTest, ShortReadWriteFaultScheduleKeepsParity) {
  // Short reads and short writes exercise the partial-I/O loops; the
  // conversation must still match the transcript byte for byte.
  ASSERT_TRUE(common::faultenv::InstallSchedule(
                  "seed=11;srv.recv=short@0.4;srv.send=short@0.4")
                  .ok());
  Stack stack = Stack::Start();
  EXPECT_EQ(Converse(stack.port(), {{kScript, 0}}), kTranscript);
  stack.Stop();
  ASSERT_TRUE(common::faultenv::InstallSchedule("").ok());
}

}  // namespace
}  // namespace dbsherlock::service
