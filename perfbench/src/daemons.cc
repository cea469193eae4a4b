#include "daemons.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/strings.h"

namespace perfbench {

namespace fs = std::filesystem;
using dbsherlock::common::JsonValue;
using dbsherlock::common::Result;
using dbsherlock::common::Status;

namespace {

constexpr int kListenTimeoutMs = 30000;
constexpr int kStopTimeoutMs = 60000;

// Shard ports are fixed so the consistent-hash placement of the fixed
// tenant names is the same on every run; a port already taken falls back
// to an ephemeral one (and the placement skew metric shows the change).
constexpr int kShardPorts[Fleet::kShards] = {39411, 39412};

// The one non-default shard flag. A closed loop acks rows faster than the
// drain (monitor + store) processes them, so the backlog grows until every
// tenant queue is full; at the default 1024 rows x 48 tenants that takes
// longer than a run and leaves a drain of many seconds. 128 rows per
// tenant reaches the drain-bound steady state within the warm-up. It bounds
// memory, not durability.
constexpr int kQueueCapacity = 128;

std::string LogTail(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text.size() > 2000 ? text.substr(text.size() - 2000) : text;
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  if (::access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound("daemon binary not found: " + binary);
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) return Status::IoError("cannot open " + log_path);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    ::close(log_fd);
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: a daemon never outlives the benchmark that started it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  ::close(pipe_fds[1]);
  int fd = pipe_fds[0];

  // Wait for "LISTENING <port>\n".
  std::string line;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(kListenTimeoutMs);
  bool done = false;
  while (!done) {
    int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    pollfd p{fd, POLLIN, 0};
    if (remaining <= 0 || ::poll(&p, 1, remaining) <= 0) break;
    char c;
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) break;
    if (c == '\n') {
      done = true;
    } else {
      line.push_back(c);
    }
  }
  int port = 0;
  if (done && line.rfind("LISTENING ", 0) == 0) {
    port = std::atoi(line.c_str() + 10);
  }
  if (port <= 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    ::close(fd);
    return Status::Internal("dbsherlockd did not start (" + line +
                            "); log tail:\n" + LogTail(log_path));
  }
  return std::unique_ptr<Daemon>(new Daemon(pid, fd, port, args));
}

Daemon::~Daemon() { (void)Stop(); }

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  int status = 0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(kStopTimeoutMs);
  pid_t waited = 0;
  while ((waited = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Status result = Status::OK();
  if (waited == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    result = Status::DeadlineExceeded("dbsherlockd did not drain in time");
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result = Status::Internal(dbsherlock::common::StrFormat(
        "dbsherlockd exited with status %d", status));
  }
  ::close(stdout_fd_);
  return result;
}

Result<std::unique_ptr<Fleet>> Fleet::Start(const std::string& binary,
                                            const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  std::unique_ptr<Fleet> fleet(new Fleet());
  fleet->dir_ = dir;
  for (size_t i = 0; i < kShards; ++i) {
    std::string log = dir + "/shard" + std::to_string(i) + ".log";
    fs::create_directories(dir + "/shard" + std::to_string(i), ec);
    auto args = [&](int port) {
      return std::vector<std::string>{
          "serve",
          "--port",
          std::to_string(port),
          "--store-dir",
          fleet->store_dir(i),
          "--wal-dir",
          fleet->wal_dir(i),
          "--queue-capacity",
          std::to_string(kQueueCapacity)};
    };
    auto shard = Daemon::Start(binary, args(kShardPorts[i]), log);
    if (!shard.ok()) shard = Daemon::Start(binary, args(0), log);
    if (!shard.ok()) return shard.status();
    fleet->shards_.push_back(std::move(*shard));
  }
  std::string shards;
  for (const std::string& address : fleet->shard_addresses()) {
    if (!shards.empty()) shards += ",";
    shards += address;
  }
  auto router = Daemon::Start(binary, {"route", "--port", "0", "--shards", shards},
                              dir + "/router.log");
  if (!router.ok()) return router.status();
  fleet->router_ = std::move(*router);
  return fleet;
}

Fleet::~Fleet() { (void)Stop(); }

std::vector<std::string> Fleet::shard_addresses() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) out.push_back(shard->address());
  return out;
}

std::string Fleet::store_dir(size_t shard) const {
  return dir_ + "/shard" + std::to_string(shard) + "/store";
}

std::string Fleet::wal_dir(size_t shard) const {
  return dir_ + "/shard" + std::to_string(shard) + "/wal";
}

double Fleet::PeakRssMb() const {
  double total = router_ != nullptr ? router_->PeakRssMb() : 0.0;
  for (const auto& shard : shards_) total += shard->PeakRssMb();
  return total;
}

JsonValue Fleet::DescribeJson() const {
  auto argv = [this](const Daemon& d) {
    std::string out = "dbsherlockd";
    for (const std::string& arg : d.args()) {
      out += " " + (arg.rfind(dir_, 0) == 0 ? "<run>" + arg.substr(dir_.size())
                                             : arg);
    }
    return out;
  };
  JsonValue::Object out;
  JsonValue::Array shards;
  for (const auto& shard : shards_) shards.push_back(argv(*shard));
  out["shards"] = JsonValue(std::move(shards));
  if (router_ != nullptr) out["router"] = argv(*router_);
  JsonValue::Object durability;
  durability["model_wal_fsync_each_teach"] = true;
  durability["segment_fsync_on_seal"] = true;
  durability["seal_rows"] = 512;
  durability["retention"] = "unlimited";
  out["queue_capacity"] = kQueueCapacity;
  out["durability"] = JsonValue(std::move(durability));
  return JsonValue(std::move(out));
}

Status Fleet::Stop() {
  Status first = Status::OK();
  if (router_ != nullptr) first = router_->Stop();
  for (auto& shard : shards_) {
    Status status = shard->Stop();
    if (first.ok()) first = status;
  }
  return first;
}

uint64_t SegmentBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".dbs") {
      total += it->file_size(ec);
    }
  }
  return total;
}

}  // namespace perfbench
