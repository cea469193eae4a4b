// EventLoop output buffering (fleet/event_loop.h): a response far larger
// than the socket buffer, followed on the same connection by small ones,
// must reach the peer byte-exact and in order — whether the large response
// becomes the output buffer itself or lands behind bytes still unwritten,
// and after the loop releases the large buffer's capacity.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "fleet/event_loop.h"

namespace dbsherlock::fleet {
namespace {

constexpr size_t kBigBytes = 4 << 20;  // far above any socket buffer

std::string BigResponse() {
  std::string big(kBigBytes, 'x');
  for (size_t i = 0; i < big.size(); i += 4096) big[i] = 'a' + (i / 4096) % 26;
  return big;
}

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads exactly `n` bytes (or until EOF / 10 s of silence).
std::string ReadBytes(int fd, size_t n) {
  std::string out;
  char chunk[65536];
  while (out.size() < n) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 10000) <= 0) break;
    ssize_t r = ::recv(fd, chunk, std::min(sizeof(chunk), n - out.size()), 0);
    if (r <= 0) break;
    out.append(chunk, static_cast<size_t>(r));
  }
  return out;
}

TEST(EventLoopTest, LargeResponseThenSmallOnesKeepOrderAndBytes) {
  const std::string big = BigResponse();
  EventLoop::Options options;
  options.handler_threads = 2;
  options.handler = [&big](const std::string& line, bool*) -> std::string {
    if (line == "BIG") return big;
    return "small " + line;
  };
  // BIG runs on the pool, the rest inline: the small responses queued
  // right after the big completion land behind its unwritten bytes.
  options.offload = [](const std::string& line) { return line == "BIG"; };
  auto loop = EventLoop::Start(std::move(options));
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();

  int fd = ConnectTo((*loop)->port());
  ASSERT_GE(fd, 0);
  const std::string script = "BIG\nS1\nS2\n";
  const std::string want = big + "\nsmall S1\nsmall S2\n";
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    ASSERT_EQ(::send(fd, script.data(), script.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(script.size()));
    // Let the loop fill the socket buffer and park the rest of the big
    // response before anything is read.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::string got = ReadBytes(fd, want.size());
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "response bytes differ";
  }
  // After a full flush the connection still serves small lines.
  const std::string tail = "S3\n";
  ASSERT_EQ(::send(fd, tail.data(), tail.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(tail.size()));
  EXPECT_EQ(ReadBytes(fd, 9), "small S3\n");
  ::close(fd);
  (*loop)->Stop();
}

}  // namespace
}  // namespace dbsherlock::fleet
