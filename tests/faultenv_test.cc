// Schedule-driven fault injection (common/faultenv.h): grammar errors,
// per-kind syscall semantics (EIO/ENOSPC/short/torn/stall/reset), seeded
// determinism, after/limit arming, wildcard sites, and the disabled
// pass-through contract.

#include "common/faultenv.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace faultenv = dbsherlock::common::faultenv;

namespace {

/// Every test leaves the process-wide schedule clean.
class FaultenvTest : public testing::Test {
 protected:
  void TearDown() override { faultenv::Clear(); }
};

/// A scratch file fd, closed and unlinked on destruction.
struct TempFd {
  TempFd() {
    path = testing::TempDir() + "/faultenv_XXXXXX";
    fd = ::mkstemp(path.data());
  }
  ~TempFd() {
    if (fd >= 0) ::close(fd);
    ::unlink(path.c_str());
  }
  std::string path;
  int fd = -1;
};

TEST_F(FaultenvTest, DisabledPassesThrough) {
  ASSERT_FALSE(faultenv::Enabled());
  TempFd file;
  ASSERT_GE(file.fd, 0);
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "abcd", 4), 4);
  EXPECT_EQ(faultenv::Fsync("wal.fsync", file.fd), 0);
  ::lseek(file.fd, 0, SEEK_SET);
  char buf[8] = {};
  EXPECT_EQ(faultenv::Read("wal.read", file.fd, buf, sizeof(buf)), 4);
  EXPECT_EQ(std::string(buf, 4), "abcd");
  EXPECT_EQ(faultenv::ActiveSpec(), "");
  EXPECT_EQ(faultenv::InjectedCount(), 0u);
}

TEST_F(FaultenvTest, EmptySpecClears) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.write=eio@1").ok());
  EXPECT_TRUE(faultenv::Enabled());
  ASSERT_TRUE(faultenv::InstallSchedule("").ok());
  EXPECT_FALSE(faultenv::Enabled());
}

TEST_F(FaultenvTest, ParseErrorsRejectTheWholeSchedule) {
  const char* bad[] = {
      "wal.write",                      // no '='
      "wal.write=frob@0.5",             // unknown kind
      "wal.write=eio",                  // no probability
      "wal.write=eio@1.5",              // probability outside [0,1]
      "wal.write=eio@nope",             // unparseable probability
      "wal.write=eio@0.5,ms",           // option without value
      "wal.write=eio@0.5,bogus=3",      // unknown option
      "wal.write=eio@0.5,limit=-2",     // negative option value
      "seed=x;wal.write=eio@1",         // bad seed
  };
  for (const char* spec : bad) {
    auto status = faultenv::InstallSchedule(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_FALSE(faultenv::Enabled()) << spec;
  }
}

TEST_F(FaultenvTest, EioFailsWithoutWriting) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.write=eio@1").ok());
  TempFd file;
  errno = 0;
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "abcd", 4), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(::lseek(file.fd, 0, SEEK_END), 0);  // nothing landed
  EXPECT_EQ(faultenv::InjectedCount(), 1u);
}

TEST_F(FaultenvTest, EnospcOnFsync) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.fsync=enospc@1").ok());
  TempFd file;
  errno = 0;
  EXPECT_EQ(faultenv::Fsync("wal.fsync", file.fd), -1);
  EXPECT_EQ(errno, ENOSPC);
}

TEST_F(FaultenvTest, TornWriteLeavesHalfTheBytes) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.write=torn@1,limit=1").ok());
  TempFd file;
  errno = 0;
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "abcdefgh", 8), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(::lseek(file.fd, 0, SEEK_END), 4);  // the torn tail
  // limit=1: the next write goes through untouched.
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "ijkl", 4), 4);
}

TEST_F(FaultenvTest, ShortWriteAndShortRead) {
  ASSERT_TRUE(faultenv::InstallSchedule("io.write=short@1;io.read=short@1")
                  .ok());
  TempFd file;
  EXPECT_EQ(faultenv::Write("io.write", file.fd, "abcdefgh", 8), 4);
  ::lseek(file.fd, 0, SEEK_SET);
  char buf[8] = {};
  EXPECT_EQ(faultenv::Read("io.read", file.fd, buf, sizeof(buf)), 1);
  EXPECT_EQ(buf[0], 'a');
}

TEST_F(FaultenvTest, OpenStallsThenOpensAndOtherKindsFailWithEio) {
  TempFd file;
  ASSERT_GE(file.fd, 0);
  ASSERT_TRUE(
      faultenv::InstallSchedule("seg.open=stall@1,ms=1,limit=1;"
                                "seg.open=eio@1,after=1")
          .ok());
  int fd = faultenv::Open("seg.open", file.path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);  // a stall sleeps, then opens normally
  if (fd >= 0) ::close(fd);
  EXPECT_EQ(faultenv::Open("seg.open", file.path.c_str(), O_RDONLY), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(faultenv::InjectedCount(), 2u);
}

TEST_F(FaultenvTest, ResetOnSocketsAndRefusedAtConnect) {
  ASSERT_TRUE(
      faultenv::InstallSchedule("srv.send=reset@1;cli.connect=reset@1")
          .ok());
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  errno = 0;
  EXPECT_EQ(faultenv::Send("srv.send", pair[0], "x", 1, 0), -1);
  EXPECT_EQ(errno, ECONNRESET);
  errno = 0;
  EXPECT_EQ(faultenv::Connect("cli.connect", pair[0], nullptr, 0), -1);
  EXPECT_EQ(errno, ECONNREFUSED);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST_F(FaultenvTest, AfterArmsLate) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.write=eio@1,after=2").ok());
  TempFd file;
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "a", 1), 1);
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "b", 1), 1);
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "c", 1), -1);
  EXPECT_EQ(errno, EIO);
}

TEST_F(FaultenvTest, LimitCapsInjections) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.write=eio@1,limit=2").ok());
  TempFd file;
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "a", 1), -1);
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "b", 1), -1);
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "c", 1), 1);
  EXPECT_EQ(faultenv::InjectedCount(), 2u);
}

TEST_F(FaultenvTest, WildcardMatchesPrefix) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.*=eio@1").ok());
  TempFd file;
  EXPECT_EQ(faultenv::Write("wal.write", file.fd, "a", 1), -1);
  EXPECT_EQ(faultenv::Fsync("wal.fsync", file.fd), -1);
  EXPECT_EQ(faultenv::Write("seg.write", file.fd, "a", 1), 1);
  ASSERT_TRUE(faultenv::InstallSchedule("*=eio@1").ok());
  EXPECT_EQ(faultenv::Write("anything.at.all", file.fd, "a", 1), -1);
}

TEST_F(FaultenvTest, SeededDecisionsAreDeterministic) {
  auto run = [](const std::string& spec) {
    EXPECT_TRUE(faultenv::InstallSchedule(spec).ok());
    TempFd file;
    std::vector<bool> injected;
    for (int i = 0; i < 64; ++i) {
      injected.push_back(faultenv::Write("wal.write", file.fd, "x", 1) < 0);
    }
    return injected;
  };
  std::vector<bool> a = run("seed=7;wal.write=eio@0.5");
  std::vector<bool> b = run("seed=7;wal.write=eio@0.5");
  std::vector<bool> c = run("seed=8;wal.write=eio@0.5");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  size_t hits = static_cast<size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(hits, 16u);  // ~32 expected out of 64
  EXPECT_LT(hits, 48u);
}

TEST_F(FaultenvTest, StatsCountCallsAndInjections) {
  ASSERT_TRUE(faultenv::InstallSchedule("wal.write=eio@1,limit=1").ok());
  TempFd file;
  (void)faultenv::Write("wal.write", file.fd, "a", 1);
  (void)faultenv::Write("wal.write", file.fd, "b", 1);
  auto stats = faultenv::StatsJson();
  const dbsherlock::common::JsonValue* site = stats.Find("wal.write");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->GetNumber("calls").ValueOr(0), 2.0);
  EXPECT_EQ(site->GetNumber("injected").ValueOr(0), 1.0);
}

TEST_F(FaultenvTest, InstallFromEnvHonorsTheVariable) {
  ::setenv("DBSHERLOCK_FAULT_SCHEDULE", "wal.write=eio@1", 1);
  ASSERT_TRUE(faultenv::InstallFromEnv().ok());
  EXPECT_TRUE(faultenv::Enabled());
  EXPECT_EQ(faultenv::ActiveSpec(), "wal.write=eio@1");
  faultenv::Clear();
  ::setenv("DBSHERLOCK_FAULT_SCHEDULE", "wal.write=frob@1", 1);
  EXPECT_FALSE(faultenv::InstallFromEnv().ok());
  EXPECT_FALSE(faultenv::Enabled());
  ::unsetenv("DBSHERLOCK_FAULT_SCHEDULE");
}

}  // namespace
