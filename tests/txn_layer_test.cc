#include "txn/txn_layer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "testing/fault_injector.h"

namespace synergy::txn {
namespace {

class TxnLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.CreateTable({.name = "data"}).ok());
    locks_ = std::make_unique<LockManager>(&cluster_);
    ASSERT_TRUE(locks_->CreateLockTable("Root").ok());
    layer_ = std::make_unique<TxnLayer>(&cluster_, locks_.get(), 2);
    cluster_.SetFaultInjector(&faults_);
  }

  /// Arms a crash-before-execute on the next `count` writes (one per slave).
  void CrashNextWrites(int count) {
    faults_.Arm(fault::FaultPoint::kCrashBeforeExecute, /*skip_hits=*/0,
                /*max_fires=*/count);
  }

  WriteBody PutBody(const std::string& key, const std::string& value) {
    return [this, key, value](hbase::Session& s) {
      return cluster_.Put(s, "data", key, {{"v", value}});
    };
  }

  std::string ReadData(const std::string& key) {
    hbase::Session s(&cluster_);
    auto row = cluster_.Get(s, "data", key);
    if (!row.ok()) return "<missing>";
    return row->columns.at("v");
  }

  hbase::Cluster cluster_;
  fault::FaultInjector faults_{42};
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TxnLayer> layer_;
};

TEST_F(TxnLayerTest, WriteGoesThroughWalAndCommits) {
  hbase::Session s(&cluster_);
  auto id = layer_->SubmitWrite(s, "put k1 v1",
                                LockSpec{"Root", "rk"}, PutBody("k1", "v1"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(ReadData("k1"), "v1");
  // Lock released after commit.
  auto held = locks_->IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);
}

TEST_F(TxnLayerTest, WritesWithoutLockSpecAlsoWork) {
  hbase::Session s(&cluster_);
  ASSERT_TRUE(
      layer_->SubmitWrite(s, "put k2 v2", std::nullopt, PutBody("k2", "v2"))
          .ok());
  EXPECT_EQ(ReadData("k2"), "v2");
}

TEST_F(TxnLayerTest, RoundRobinAcrossSlaves) {
  hbase::Session s(&cluster_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(layer_
                    ->SubmitWrite(s, "w" + std::to_string(i), std::nullopt,
                                  PutBody("k" + std::to_string(i), "v"))
                    .ok());
  }
  EXPECT_GE(layer_->slave(0)->wal()->size() +
                layer_->slave(1)->wal()->size(),
            4u);
  EXPECT_GT(layer_->slave(0)->wal()->size(), 0u);
  EXPECT_GT(layer_->slave(1)->wal()->size(), 0u);
}

TEST_F(TxnLayerTest, CrashLeavesLockHeldUntilRecovery) {
  hbase::Session s(&cluster_);
  CrashNextWrites(1);
  // The slave that takes this write crashes holding the lock.
  auto result = layer_->SubmitWrite(s, "put kc vc", LockSpec{"Root", "rk"},
                                    PutBody("kc", "vc"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  auto held = locks_->IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);  // read-committed preserved during failure (§VIII-C)
  EXPECT_EQ(ReadData("kc"), "<missing>");

  // Master failover: replay the WAL suffix, then release the lock the
  // entry recorded.
  ASSERT_TRUE(layer_
                  ->DetectAndRecover(
                      s,
                      [&](hbase::Session& rs, const std::string& payload) {
                        EXPECT_EQ(payload, "put kc vc");
                        return cluster_.Put(rs, "data", "kc", {{"v", "vc"}});
                      })
                  .ok());
  EXPECT_EQ(ReadData("kc"), "vc");
  held = locks_->IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);
}

TEST_F(TxnLayerTest, RecoveredLayerAcceptsNewWrites) {
  hbase::Session s(&cluster_);
  CrashNextWrites(2);
  (void)layer_->SubmitWrite(s, "w", std::nullopt, PutBody("k", "v"));
  (void)layer_->SubmitWrite(s, "w2", std::nullopt, PutBody("k2", "v2"));
  ASSERT_TRUE(layer_
                  ->DetectAndRecover(
                      s,
                      [&](hbase::Session& rs, const std::string&) {
                        return cluster_.Put(rs, "data", "replayed",
                                            {{"v", "1"}});
                      })
                  .ok());
  ASSERT_TRUE(
      layer_->SubmitWrite(s, "w3", std::nullopt, PutBody("k3", "v3")).ok());
  EXPECT_EQ(ReadData("k3"), "v3");
}

TEST_F(TxnLayerTest, AllSlavesDownIsUnavailable) {
  hbase::Session s(&cluster_);
  CrashNextWrites(2);
  (void)layer_->SubmitWrite(s, "a", std::nullopt, PutBody("a", "1"));
  (void)layer_->SubmitWrite(s, "b", std::nullopt, PutBody("b", "1"));
  auto r = layer_->SubmitWrite(s, "c", std::nullopt, PutBody("c", "1"));
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST_F(TxnLayerTest, WalRecordsCommitState) {
  hbase::Session s(&cluster_);
  ASSERT_TRUE(
      layer_->SubmitWrite(s, "ok-write", std::nullopt, PutBody("k", "v")).ok());
  size_t committed = 0, total = 0;
  for (int i = 0; i < layer_->num_slaves(); ++i) {
    for (const WalEntry& e : layer_->slave(i)->wal()->AllEntries()) {
      ++total;
      if (e.committed) ++committed;
    }
  }
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(committed, 1u);
}

TEST_F(TxnLayerTest, WriteBodyRunsOnCallingThread) {
  hbase::Session s(&cluster_);
  std::thread::id body_thread;
  ASSERT_TRUE(layer_
                  ->SubmitWrite(s, "w", LockSpec{"Root", "rk"},
                                [&](hbase::Session&) {
                                  body_thread = std::this_thread::get_id();
                                  return Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST_F(TxnLayerTest, FailedLockAcquireIsNotReplayedAtFailover) {
  // Regression: a write whose root-lock acquire timed out once stayed
  // uncommitted in the WAL, so a later crash of its (live) slave replayed
  // it after newer writes to the same rows, without its lock held.
  TxnLayer layer(&cluster_, locks_.get(), 1);
  hbase::Session holder(&cluster_);
  ASSERT_TRUE(locks_->Acquire(holder, "Root", "rk").ok());

  hbase::Session s(&cluster_);
  auto blocked = layer.SubmitWrite(s, "put k old", LockSpec{"Root", "rk"},
                                   PutBody("k", "old"));
  EXPECT_EQ(blocked.status().code(), StatusCode::kAborted) << blocked.status();
  EXPECT_FALSE(layer.slave(0)->failed());

  ASSERT_TRUE(locks_->Release(holder, "Root", "rk").ok());
  ASSERT_TRUE(layer
                  .SubmitWrite(s, "put k new", LockSpec{"Root", "rk"},
                               PutBody("k", "new"))
                  .ok());
  EXPECT_EQ(ReadData("k"), "new");

  faults_.Arm(fault::FaultPoint::kCrashAfterWalAppend, /*skip_hits=*/0,
              /*max_fires=*/1);
  EXPECT_EQ(layer.SubmitWrite(s, "put z 1", std::nullopt, PutBody("z", "1"))
                .status()
                .code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(layer.slave(0)->failed());

  ASSERT_TRUE(layer
                  .DetectAndRecover(
                      s,
                      [&](hbase::Session& rs, const std::string& payload) {
                        // "put <key> <value>"
                        const size_t k = payload.find(' ') + 1;
                        const size_t v = payload.find(' ', k);
                        return cluster_.Put(rs, "data",
                                            payload.substr(k, v - k),
                                            {{"v", payload.substr(v + 1)}});
                      })
                  .ok());
  EXPECT_EQ(ReadData("z"), "1");
  EXPECT_EQ(ReadData("k"), "new");
}

// Shared scaffolding for the backpressure tests: a single-slave layer whose
// slave is wedged executing a body that blocks until released, with
// kQueueCapacity callers waiting behind it.
class SlaveBackpressureTest : public TxnLayerTest {
 protected:
  void StartStuckLayer(Status release_status) {
    layer1_ = std::make_unique<TxnLayer>(&cluster_, locks_.get(), 1);
    release_status_ = release_status;
    blocker_ = std::thread([this] {
      hbase::Session s(&cluster_);
      WriteBody body = [this](hbase::Session&) {
        slave_blocked_.store(true);
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return released_; });
        return release_status_;
      };
      blocker_result_ = layer1_->SubmitWrite(s, "stuck", std::nullopt, body);
    });
    while (!slave_blocked_.load()) std::this_thread::yield();

    // With the slave wedged, exactly kQueueCapacity concurrent callers wait
    // for it.
    filler_status_.resize(SlaveNode::kQueueCapacity, Status::Ok());
    for (size_t i = 0; i < SlaveNode::kQueueCapacity; ++i) {
      fillers_.emplace_back([this, i] {
        hbase::Session s(&cluster_);
        filler_status_[i] =
            layer1_
                ->SubmitWrite(s, "fill" + std::to_string(i), std::nullopt,
                              PutBody("f" + std::to_string(i), "v"))
                .status();
      });
    }
    while (layer1_->slave(0)->QueueDepth() < SlaveNode::kQueueCapacity) {
      std::this_thread::yield();
    }
  }

  void ReleaseSlave() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  void TearDown() override {
    if (!released_) ReleaseSlave();
    if (blocker_.joinable()) blocker_.join();
    for (auto& t : fillers_) {
      if (t.joinable()) t.join();
    }
  }

  std::unique_ptr<TxnLayer> layer1_;
  std::thread blocker_;
  std::vector<std::thread> fillers_;
  std::vector<Status> filler_status_;
  StatusOr<int64_t> blocker_result_ = Status::Internal("not run");
  Status release_status_ = Status::Ok();
  std::atomic<bool> slave_blocked_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST_F(SlaveBackpressureTest, FullQueueRejectsWithResourceExhausted) {
  // Regression: a saturated slave once blocked callers indefinitely; the
  // bounded backlog must convert that into an overload rejection the
  // client's retry/deadline machinery can act on, while the slave is still
  // wedged.
  StartStuckLayer(Status::Ok());
  obs::Counter* rejected = cluster_.metrics().GetCounter(
      "txn_slave_backpressure_rejected_total", "");
  const uint64_t rejected_before = rejected->Value();

  hbase::Session s(&cluster_);
  auto late =
      layer1_->SubmitWrite(s, "late", std::nullopt, PutBody("late", "v"));
  EXPECT_EQ(late.status().code(), StatusCode::kResourceExhausted)
      << late.status();
  EXPECT_EQ(rejected->Value(), rejected_before + 1);
  EXPECT_EQ(layer1_->slave(0)->QueueDepth(), SlaveNode::kQueueCapacity);

  // Once the slave unwedges, the waiting writes all commit: shedding the
  // overflow lost nothing that was already accepted.
  ReleaseSlave();
  blocker_.join();
  for (auto& t : fillers_) t.join();
  EXPECT_TRUE(blocker_result_.ok()) << blocker_result_.status();
  for (const Status& st : filler_status_) EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(ReadData("f0"), "v");
  EXPECT_EQ(ReadData("f" + std::to_string(SlaveNode::kQueueCapacity - 1)),
            "v");
  EXPECT_EQ(ReadData("late"), "<missing>");
}

TEST_F(SlaveBackpressureTest, SlaveCrashFailsWaitingCallers) {
  // The executing body crashes the slave: every caller waiting behind it,
  // and every caller arriving afterwards, gets kUnavailable (retryable, so
  // the root loop can route around the corpse), not kResourceExhausted.
  StartStuckLayer(Status::Unavailable("injected mid-body crash"));
  ReleaseSlave();  // body returns kUnavailable -> the slave crashes
  blocker_.join();
  for (auto& t : fillers_) t.join();

  EXPECT_TRUE(layer1_->slave(0)->failed());
  EXPECT_EQ(blocker_result_.status().code(), StatusCode::kUnavailable);
  for (const Status& st : filler_status_) {
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  }
  hbase::Session s(&cluster_);
  EXPECT_EQ(layer1_->SubmitWrite(s, "after", std::nullopt, PutBody("a", "v"))
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(layer1_->slave(0)
                ->ProcessWrite(s, "after", std::nullopt, PutBody("a", "v"))
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ReadData("f0"), "<missing>");
}

TEST_F(TxnLayerTest, BodyFailurePropagates) {
  hbase::Session s(&cluster_);
  auto r = layer_->SubmitWrite(s, "bad", LockSpec{"Root", "rk"},
                               [](hbase::Session&) {
                                 return Status::InvalidArgument("boom");
                               });
  EXPECT_FALSE(r.ok());
  // The lock guard still released the lock.
  auto held = locks_->IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);
}

TEST_F(TxnLayerTest, BodyShedUnderOverloadIsReplayedNotDropped) {
  // An RPC shed mid-body may leave part of the write applied (in Synergy,
  // view rows still marked): like a lost store, only a replay settles it.
  hbase::Session s(&cluster_);
  auto r = layer_->SubmitWrite(
      s, "put ks vs", LockSpec{"Root", "rk"}, [this](hbase::Session& bs) {
        (void)cluster_.Put(bs, "data", "ks", {{"v", "partial"}});
        return Status::ResourceExhausted("shed");
      });
  EXPECT_FALSE(r.ok());
  auto held = locks_->IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);  // the slave died holding the lock

  // A replay that is shed in turn leaves the entry for the next attempt.
  EXPECT_EQ(layer_
                ->DetectAndRecover(s,
                                   [](hbase::Session&, const std::string&) {
                                     return Status::ResourceExhausted("shed");
                                   })
                .code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(layer_
                  ->DetectAndRecover(
                      s,
                      [&](hbase::Session& rs, const std::string& payload) {
                        EXPECT_EQ(payload, "put ks vs");
                        return cluster_.Put(rs, "data", "ks", {{"v", "vs"}});
                      })
                  .ok());
  EXPECT_EQ(ReadData("ks"), "vs");
  held = locks_->IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);
}

}  // namespace
}  // namespace synergy::txn
