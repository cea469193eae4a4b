#ifndef PERFBENCH_DAEMONS_H_
#define PERFBENCH_DAEMONS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace perfbench {

/// One dbsherlockd subprocess. Start blocks until the daemon prints
/// "LISTENING <port>"; Stop sends SIGTERM (a clean drain that seals every
/// tenant's active segment) and waits for the exit. The destructor stops a
/// daemon that is still running.
class Daemon {
 public:
  static dbsherlock::common::Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }
  const std::vector<std::string>& args() const { return args_; }

  /// Peak resident set (VmHWM) in MiB; 0 once stopped.
  double PeakRssMb() const;

  /// SIGTERM and wait; an exit other than 0 is an error.
  dbsherlock::common::Status Stop();

 private:
  Daemon(pid_t pid, int stdout_fd, int port, std::vector<std::string> args)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port), args_(std::move(args)) {}

  pid_t pid_;
  int stdout_fd_;
  int port_;
  std::vector<std::string> args_;
};

/// The deployment every workload runs against: one `dbsherlockd route` in
/// front of two `dbsherlockd serve` shards. Each shard keeps its tenant
/// history under <dir>/shardN/store and its causal-model WAL under
/// <dir>/shardN/wal, with the daemon's default durability (WAL fsync on
/// every TEACH, fsync on every segment seal). Every other flag is at its
/// default except --queue-capacity (see daemons.cc).
class Fleet {
 public:
  static constexpr size_t kShards = 2;

  /// Starts shards then router under a fresh `dir`.
  static dbsherlock::common::Result<std::unique_ptr<Fleet>> Start(
      const std::string& binary, const std::string& dir);

  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int router_port() const { return router_->port(); }
  int shard_port(size_t i) const { return shards_[i]->port(); }
  /// Shard addresses in ring order, exactly as the router was given them.
  std::vector<std::string> shard_addresses() const;
  std::string store_dir(size_t shard) const;
  std::string wal_dir(size_t shard) const;

  /// Sum of VmHWM over router and shards, MiB.
  double PeakRssMb() const;

  /// The daemons' command lines and durability policy, for the result
  /// stamp.
  dbsherlock::common::JsonValue DescribeJson() const;

  /// Stops router then shards; the first error wins.
  dbsherlock::common::Status Stop();

 private:
  Fleet() = default;

  std::string dir_;
  std::vector<std::unique_ptr<Daemon>> shards_;
  std::unique_ptr<Daemon> router_;
};

/// Bytes of every sealed segment file (*.dbs) under `dir`, recursively.
uint64_t SegmentBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMONS_H_
