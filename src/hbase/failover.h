// Region-server membership, failure detection and region reassignment.
//
// The simulated cluster has no wall clock, so heartbeats are driven by
// *virtual activity*: every client RPC ticks the FailoverManager, and every
// `heartbeat_every_rpcs` ticks runs one heartbeat round. A round asks the
// fault injector whether a server crashes (server-crash) or a live server's
// heartbeat is lost (heartbeat-loss), refreshes the heartbeat counter of
// every responsive server, expires the lease of servers that missed
// `lease_missed_rounds` consecutive rounds, and incrementally reassigns the
// regions of declared-dead servers to live ones.
//
// Failure taxonomy:
//   - crashed: the process died (stores wiped; region WALs survive). Until
//     the lease expires the master doesn't know, and RPCs to its regions
//     fail retryably. After detection, each region is moved to a live
//     server and its edit log replayed, so no acknowledged write is lost.
//   - fenced: the server is alive but silent (heartbeat loss). Its store is
//     intact, so reassignment moves the regions *without* replay (replaying
//     into an intact store would duplicate versions). Until a region moves,
//     reads may be served degraded (bounded staleness — the fenced server
//     cannot accept new writes) while writes queue behind the client's
//     retry deadline.
//
// Retry backoffs pump virtual time into the tick counter
// (PumpVirtualTime), so a single blocked client's exponential backoff
// advances failure detection the same way a busy cluster's RPC stream does.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "hbase/region.h"
#include "obs/metrics.h"

namespace synergy::fault {
class FaultInjector;
}  // namespace synergy::fault

namespace synergy::hbase {

class Cluster;

struct FailoverConfig {
  int heartbeat_every_rpcs = 32;     // ticks per heartbeat round
  int lease_missed_rounds = 3;       // missed rounds before declared dead
  int reassign_regions_per_round = 8;  // staggered batch; <= 0 freezes sweep
  double us_per_tick = 900.0;        // backoff-µs → ticks (≈ one RPC each)
};

enum class ServerState {
  kLive,     // heartbeating, serving
  kCrashed,  // process gone (store wiped), lease not yet expired
  kDead,     // lease expired; regions are being / have been reassigned
};

/// Verdict for one RPC against one region during (possible) failover.
struct RegionAccess {
  Status status;          // non-OK: refuse the RPC (always retryable)
  bool degraded = false;  // OK but served at bounded staleness
};

class FailoverManager {
 public:
  FailoverManager(Cluster* cluster, int num_servers,
                  FailoverConfig config = {});

  const FailoverConfig& config() const { return config_; }

  /// Called by the cluster at every RPC entry point. Cheap (one atomic
  /// increment) except every heartbeat_every_rpcs-th call.
  void OnRpc();

  /// Credits `us` virtual µs of elapsed time (a retry backoff) to the tick
  /// counter and runs any heartbeat rounds that interval covers, so blocked
  /// clients waiting out a backoff still advance failure detection.
  void PumpVirtualTime(double us);

  /// Gate an RPC to `region`. One relaxed load when the whole cluster is
  /// healthy.
  RegionAccess CheckAccess(const Region* region, bool is_write);

  /// Directly crash a server (bench/test API): wipes its region stores as
  /// the server-crash fault point would. Refuses to crash the last live
  /// server; returns whether the crash happened.
  bool CrashServer(int server_id);

  /// Directly silence a server's heartbeats (permanent heartbeat loss): the
  /// lease expires naturally and the regions move without replay.
  void FenceServer(int server_id);

  bool AllHealthy() const {
    return !any_server_down_.load(std::memory_order_relaxed);
  }
  int LiveServerCount() const;
  ServerState state(int server_id) const;
  int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  struct ServerInfo {
    ServerState state = ServerState::kLive;
    int64_t last_beat_round = 0;
    bool muted = false;  // FenceServer: heartbeats never arrive again
  };

  void HeartbeatRound();
  // All *Locked helpers require mutex_.
  bool CrashLocked(int server_id);
  int CountLiveLocked() const;
  int NextLiveTargetLocked();
  void SweepLocked();

  Cluster* cluster_;
  FailoverConfig config_;
  std::atomic<int64_t> ticks_{0};
  // Fast-path flag: false until any server leaves kLive (never unset — dead
  // servers stay dead, and a table created later may still be placed on
  // one, so the sweep keeps running).
  std::atomic<bool> any_server_down_{false};
  // Lock order: mutex_ -> Cluster::tables_mutex_ (shared, via AllRegions)
  // -> Region::mutex_. Client RPC paths acquire mutex_ only while holding
  // no table/region locks.
  mutable std::mutex mutex_;
  std::vector<ServerInfo> servers_;
  int64_t rounds_ = 0;
  int next_target_ = 0;  // round-robin cursor over live servers
  // Registry handles, resolved from cluster->metrics() at construction.
  obs::Counter* c_heartbeat_rounds_;
  obs::Counter* c_crashes_;
  obs::Counter* c_fenced_;
  obs::Counter* c_regions_reassigned_;
  obs::Counter* c_edits_replayed_;
  obs::Counter* c_writes_rejected_;
  obs::Gauge* g_live_servers_;
};

}  // namespace synergy::hbase
