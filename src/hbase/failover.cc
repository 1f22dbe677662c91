#include "hbase/failover.h"

#include <algorithm>
#include <string>

#include "hbase/cluster.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {

FailoverManager::FailoverManager(Cluster* cluster, int num_servers,
                                 FailoverConfig config)
    : cluster_(cluster), config_(config),
      servers_(static_cast<size_t>(std::max(num_servers, 1))) {
  obs::MetricsRegistry& r = cluster_->metrics();
  c_heartbeat_rounds_ = r.GetCounter("hbase_failover_heartbeat_rounds_total",
                                     "virtual-time heartbeat rounds run");
  c_crashes_ = r.GetCounter("hbase_failover_crashes_total",
                            "region servers that lost their store");
  c_fenced_ = r.GetCounter("hbase_failover_fenced_total",
                           "servers declared dead with store intact");
  c_regions_reassigned_ = r.GetCounter(
      "hbase_failover_regions_reassigned_total",
      "regions moved off dead servers");
  c_edits_replayed_ = r.GetCounter("hbase_failover_edits_replayed_total",
                                   "region-WAL entries replayed");
  c_writes_rejected_ = r.GetCounter("hbase_failover_writes_rejected_total",
                                    "writes refused mid-reassignment");
  g_live_servers_ = r.GetGauge("hbase_live_region_servers",
                               "region servers currently in the kLive state");
  g_live_servers_->Set(static_cast<double>(servers_.size()));
}

void FailoverManager::OnRpc() {
  const int64_t t = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (t % config_.heartbeat_every_rpcs == 0) HeartbeatRound();
}

void FailoverManager::PumpVirtualTime(double us) {
  if (us <= 0.0) return;
  const auto n = static_cast<int64_t>(
      std::max(1.0, us / std::max(config_.us_per_tick, 1.0)));
  const int64_t before = ticks_.fetch_add(n, std::memory_order_relaxed);
  const int64_t every = config_.heartbeat_every_rpcs;
  int64_t rounds = (before + n) / every - before / every;
  // A huge backoff covers many rounds, but after a few the cluster state is
  // quiescent again; cap the catch-up work.
  rounds = std::min<int64_t>(rounds, 16);
  for (int64_t i = 0; i < rounds; ++i) HeartbeatRound();
}

int FailoverManager::CountLiveLocked() const {
  int live = 0;
  for (const ServerInfo& s : servers_) {
    if (s.state == ServerState::kLive) ++live;
  }
  return live;
}

bool FailoverManager::CrashLocked(int server_id) {
  ServerInfo& info = servers_[static_cast<size_t>(server_id)];
  if (info.state != ServerState::kLive) return false;
  // Never crash the last live server: with nowhere to reassign, the cluster
  // could not make progress again and every retry budget would be lost.
  if (CountLiveLocked() <= 1) return false;
  info.state = ServerState::kCrashed;
  any_server_down_.store(true, std::memory_order_relaxed);
  c_crashes_->Inc();
  g_live_servers_->Set(static_cast<double>(CountLiveLocked()));
  for (Region* region : cluster_->AllRegions()) {
    if (region->server_id() == server_id) region->DropStore();
  }
  return true;
}

bool FailoverManager::CrashServer(int server_id) {
  if (server_id < 0 || server_id >= static_cast<int>(servers_.size())) {
    return false;
  }
  std::lock_guard lock(mutex_);
  return CrashLocked(server_id);
}

void FailoverManager::FenceServer(int server_id) {
  if (server_id < 0 || server_id >= static_cast<int>(servers_.size())) return;
  std::lock_guard lock(mutex_);
  servers_[static_cast<size_t>(server_id)].muted = true;
}

int FailoverManager::NextLiveTargetLocked() {
  const int n = static_cast<int>(servers_.size());
  for (int i = 0; i < n; ++i) {
    const int candidate = (next_target_ + i) % n;
    if (servers_[static_cast<size_t>(candidate)].state == ServerState::kLive) {
      next_target_ = (candidate + 1) % n;
      return candidate;
    }
  }
  return -1;
}

void FailoverManager::SweepLocked() {
  // A non-positive batch freezes reassignment entirely, holding regions in
  // the declared-dead-but-unmoved window (tests rely on this to probe the
  // degraded-read path deterministically).
  if (config_.reassign_regions_per_round <= 0) return;
  int moved = 0;
  for (Region* region : cluster_->AllRegions()) {
    const int sid = region->server_id();
    if (sid < 0 || sid >= static_cast<int>(servers_.size())) continue;
    if (servers_[static_cast<size_t>(sid)].state != ServerState::kDead) {
      continue;
    }
    const int target = NextLiveTargetLocked();
    if (target < 0) return;  // no live server; wait for a later round
    if (region->store_lost()) {
      c_edits_replayed_->Inc(static_cast<uint64_t>(region->EditLogSize()));
      region->ReplayEdits();  // rebuild before clients can reach it
    }
    region->set_server_id(target);
    c_regions_reassigned_->Inc();
    if (++moved >= config_.reassign_regions_per_round) return;
  }
}

void FailoverManager::HeartbeatRound() {
  std::lock_guard lock(mutex_);
  ++rounds_;
  c_heartbeat_rounds_->Inc();
  fault::FaultInjector* inj = cluster_->fault_injector();
  const int n = static_cast<int>(servers_.size());
  // 1. Fault-driven crashes (the server-crash point, per live server).
  if (inj != nullptr) {
    for (int s = 0; s < n; ++s) {
      if (servers_[static_cast<size_t>(s)].state != ServerState::kLive) {
        continue;
      }
      fault::FaultSite site;
      site.server_id = s;
      if (inj->ShouldFire(fault::FaultPoint::kRegionServerCrash, site)) {
        CrashLocked(s);
      }
    }
  }
  // 2. Heartbeats from live, unmuted servers (heartbeat-loss may drop one).
  bool any_down = false;
  for (int s = 0; s < n; ++s) {
    ServerInfo& info = servers_[static_cast<size_t>(s)];
    if (info.state != ServerState::kLive) {
      any_down = true;
      continue;
    }
    bool lost = info.muted;
    if (!lost && inj != nullptr) {
      fault::FaultSite site;
      site.server_id = s;
      lost = inj->ShouldFire(fault::FaultPoint::kHeartbeatLoss, site);
    }
    if (!lost) info.last_beat_round = rounds_;
  }
  // 3. Lease expiry: silent too long => declared dead.
  for (int s = 0; s < n; ++s) {
    ServerInfo& info = servers_[static_cast<size_t>(s)];
    if (info.state == ServerState::kDead) continue;
    if (rounds_ - info.last_beat_round >= config_.lease_missed_rounds) {
      // A live-but-silent server is *fenced*: store intact, no replay. Keep
      // one live server even if every heartbeat is lost.
      if (info.state == ServerState::kLive && CountLiveLocked() <= 1) continue;
      if (info.state == ServerState::kLive) c_fenced_->Inc();
      info.state = ServerState::kDead;
      any_server_down_.store(true, std::memory_order_relaxed);
      g_live_servers_->Set(static_cast<double>(CountLiveLocked()));
      any_down = true;
    }
  }
  // 4. Staggered reassignment of dead servers' regions (also catches
  // tables created on a dead server later).
  if (any_down || any_server_down_.load(std::memory_order_relaxed)) {
    SweepLocked();
  }
}

RegionAccess FailoverManager::CheckAccess(const Region* region,
                                          bool is_write) {
  if (!any_server_down_.load(std::memory_order_relaxed)) return {};
  std::lock_guard lock(mutex_);
  const int sid = region->server_id();
  if (sid < 0 || sid >= static_cast<int>(servers_.size())) return {};
  const ServerInfo& info = servers_[static_cast<size_t>(sid)];
  switch (info.state) {
    case ServerState::kLive:
      return {};
    case ServerState::kCrashed:
      // The master hasn't noticed yet; clients just see a dead endpoint.
      return {Status::Unavailable("region server " + std::to_string(sid) +
                                  " not responding (failure detection "
                                  "pending)"),
              false};
    case ServerState::kDead:
      if (is_write) {
        c_writes_rejected_->Inc();
        return {Status::Unavailable("region moving off dead server " +
                                    std::to_string(sid) +
                                    " (reassignment in progress)"),
                false};
      }
      if (!region->store_lost()) {
        return {Status::Ok(), /*degraded=*/true};
      }
      return {Status::Unavailable("region store lost with server " +
                                  std::to_string(sid) +
                                  "; WAL replay in progress"),
              false};
  }
  return {};
}

int FailoverManager::LiveServerCount() const {
  std::lock_guard lock(mutex_);
  return CountLiveLocked();
}

ServerState FailoverManager::state(int server_id) const {
  std::lock_guard lock(mutex_);
  return servers_[static_cast<size_t>(server_id)].state;
}

}  // namespace synergy::hbase
