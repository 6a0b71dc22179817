#ifndef CACHEKV_REPL_REPLICATION_H_
#define CACHEKV_REPL_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "net/protocol.h"
#include "repl/repl_log.h"
#include "util/status.h"

namespace cachekv {
namespace net {
class Client;  // net/client.h; only the follower thread dials out.
}  // namespace net

namespace repl {

/// How many followers must acknowledge a committed write before the
/// primary acks the client (docs/REPLICATION.md "Ack policies").
enum class AckPolicy {
  kNone,    // ack as soon as the primary committed (async replication)
  kQuorum,  // floor((replicas + 1) / 2) follower acks
  kAll,     // every configured replica must have applied the write
};

const char* AckPolicyName(AckPolicy policy);
bool ParseAckPolicy(const std::string& name, AckPolicy* out);

/// Longest a server holds a follower's REPLBATCH that finds nothing new
/// before answering it empty (docs/REPLICATION.md "Threading"). The
/// follower counts every answered fetch as contact with its primary, so
/// this stays far below any --auto-promote-ms.
constexpr int kFetchHoldMs = 50;

struct ReplOptions {
  AckPolicy ack = AckPolicy::kNone;
  /// How long a committed write may wait for follower acks before the
  /// server answers kReplTimeout (the write IS committed locally).
  int ack_timeout_ms = 2'000;
  /// Byte budget of each shard's in-memory replication log; beyond it
  /// the oldest records are evicted and lagging followers fall back to
  /// a snapshot bootstrap.
  size_t log_bytes_per_shard = 64u << 20;
  /// Follower pull sizing.
  uint32_t pull_batch_max = 256;
  uint32_t snapshot_page = 512;
  /// Backoff after a failed connect/pull against the primary, or a
  /// failed local apply of a pulled record.
  int reconnect_backoff_ms = 50;
  /// Follower self-promotion after this long without a successful
  /// exchange with the primary. 0 disables (PROMOTE op only).
  int auto_promote_ms = 0;
  /// Replica endpoints ("host:port") this server streams to, identical
  /// for every shard (process-level replication: one follower process
  /// mirrors all shards). Empty = unreplicated.
  std::vector<std::string> replicas;
  /// When non-empty this server starts as a follower of that primary
  /// for every shard.
  std::string primary_endpoint;
};

/// ReplHub owns the replication state of one server process: per-shard
/// role (primary/follower) and epoch, the per-shard replication logs,
/// the wire-op handlers the server delegates to, and — on a follower —
/// the background pull thread that subscribes to the primary, applies
/// batches in log order, and acks progress.
///
/// Epoch fencing rule, applied uniformly to every repl request: a
/// request carrying a NEWER epoch makes the receiver adopt it (and
/// step down if it believed itself primary — this is how a promoted
/// follower fences its deposed predecessor); a request carrying an
/// OLDER epoch is rejected with kStaleEpoch.
///
/// Thread safety: handlers and the commit path are safe to call from
/// any server worker, and nothing a server worker calls blocks on a
/// follower (the blocking WaitCommitAcked is for callers outside the
/// event loop); Start/Stop are main-thread lifecycle calls.
class ReplHub {
 public:
  /// `dbs` are the server's per-shard stores (borrowed, not owned);
  /// repl.* metrics register into each shard's registry. The hub
  /// starts as primary for every shard unless `options.primary_endpoint`
  /// is set, in which case it starts as a follower for every shard.
  ReplHub(const ReplOptions& options, std::vector<DB*> dbs);
  ~ReplHub();

  ReplHub(const ReplHub&) = delete;
  ReplHub& operator=(const ReplHub&) = delete;

  /// This server's own advertised "host:port"; used as the follower id
  /// in the pull protocol and filtered out of advertised replica sets.
  void SetSelfEndpoint(const std::string& endpoint);

  /// Installs the commit hook on every shard DB (call before serving)
  /// so committed batches land in the shard's replication log.
  void AttachCommitHooks();

  /// Starts the follower pull thread (no-op unless primary_endpoint is
  /// configured). Stop() joins it; the destructor also stops.
  void Start();
  void Stop();

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const ReplOptions& options() const { return options_; }
  bool IsPrimary(uint32_t shard) const;
  uint64_t Epoch(uint32_t shard) const;

  /// Commit-path tap (runs on the writer thread via DB::CommitHook).
  void OnCommit(uint32_t shard, const std::vector<KVStore::BatchOp>& ops,
                uint64_t last_db_seq);

  /// Follower acks one commit needs under the ack policy; 0 under kNone
  /// or with no replicas, when a commit is acked as soon as it applied.
  uint32_t AcksNeeded() const;

  /// Blocks until the log record covering DB sequence `db_seq` (the
  /// caller's own commit, as DB::MultiPut reports it) satisfies the ack
  /// policy — NOT the log head, so concurrent later writes never extend
  /// the wait. `db_seq` == 0 waits on the newest record instead
  /// (ReplLog::WaitCommit, the blocking form of the predicate the
  /// server polls). OK when
  /// satisfied (immediately under kNone or with no replicas); Busy
  /// after ack_timeout_ms (the server answers kReplTimeout: the write is
  /// committed locally but under-replicated); IOError when a concurrent
  /// promotion reset the log mid-wait. The server never calls this: it
  /// parks the write and polls a CommitWait instead.
  Status WaitCommitAcked(uint32_t shard, uint64_t db_seq = 0);

  /// One shard's ack wait for the caller's own commit, in the form an
  /// event loop polls instead of blocking on (see WaitCommitAcked).
  struct CommitWait {
    uint32_t shard = 0;
    uint64_t db_seq = 0;
    uint64_t run_id = 0;  // the log lifetime the wait began in
    bool settled = false;
    Status status;  // once settled: what WaitCommitAcked would return
  };
  CommitWait BeginCommitWait(uint32_t shard, uint64_t db_seq) const;
  /// Evaluates `wait` with ReplLog::CheckCommit, the predicate
  /// WaitCommitAcked blocks on, and settles it when acked, when the log
  /// was reset, or — still unacked — when `expired`; failures are
  /// counted as WaitCommitAcked counts them. Returns wait->settled.
  bool PollCommitWait(CommitWait* wait, bool expired);

  /// Installs `wake` on every shard's log (ReplLog::SetListener: it runs
  /// under the log's lock after each append, advancing ack and reset);
  /// null removes it. The server uses it to wake the event loops whose
  /// connections are parked on replication.
  void SetWaker(std::function<void()> wake);

  /// True when `req`, a REPLBATCH from the follower `follower_id`, would
  /// find nothing new and may be held until the log moves (at most
  /// kFetchHoldMs): this server is primary for the shard at the
  /// request's epoch, and the follower has acked the head of every
  /// shard this server is primary for. The follower pulls every shard
  /// over one connection, so a fetch is never held while another shard
  /// has records the follower has not acked; an append to any shard or
  /// a log reset makes this false again.
  bool MayHoldFetch(const net::ReplBatchRequest& req,
                    const std::string& follower_id) const;

  // Wire-op handlers (see src/net/server.cc). Each returns the wire
  // code; on net::kOk `*payload` holds the response payload, otherwise
  // `*error` holds the error message.
  uint16_t HandleSubscribe(const net::ReplSubscribeRequest& req,
                           std::string* payload, std::string* error);
  uint16_t HandleBatch(const net::ReplBatchRequest& req,
                       std::string* payload, std::string* error);
  uint16_t HandleAck(const net::ReplAckRequest& req, std::string* payload,
                     std::string* error);
  uint16_t HandleSnapshot(const net::ReplSnapshotRequest& req,
                          std::string* payload, std::string* error);
  uint16_t HandlePromote(const net::PromoteRequest& req,
                         std::string* payload, std::string* error);

  /// Snapshot of the per-shard replication state for the SHARDMAP v2
  /// image (net/shard_router.h).
  void FillShardMapState(
      std::vector<uint64_t>* epochs, std::vector<uint8_t>* primaries,
      std::vector<std::vector<std::string>>* replicas) const;

  /// Test hook: the shard's log.
  ReplLog* log(uint32_t shard) { return shards_[shard]->log.get(); }

 private:
  struct Shard {
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> is_primary{true};
    std::unique_ptr<ReplLog> log;
    /// Follower side: highest log_seq applied to the local DB.
    std::atomic<uint64_t> applied_seq{0};
    /// Follower side: the primary's log head as of the last pull.
    std::atomic<uint64_t> primary_head{0};
    /// Follower side: run id of the primary log that `applied_seq`
    /// addresses; 0 until the first snapshot bootstrap completes. A
    /// fetch response carrying a different run id means the primary's
    /// log numbering restarted (process restart, promotion) and the
    /// cursor would alias unrelated records — forces a re-bootstrap.
    std::atomic<uint64_t> primary_run_id{0};
    /// Snapshot bootstrap in progress (keys may still be missing), so
    /// self-promotion must not make this shard serve reads.
    std::atomic<bool> bootstrapping{false};
  };

  /// Uniform fencing: adopts req_epoch when newer (stepping down if
  /// primary), rejects when older. Returns false -> respond kStaleEpoch.
  bool FenceEpoch(uint32_t shard, uint64_t req_epoch);
  /// Bumps the shard's epoch past `min_epoch`, flips it to primary, and
  /// resets its outbound log. Returns the new epoch.
  uint64_t PromoteShard(uint32_t shard, uint64_t min_epoch);
  void UpdateLagGauge(uint32_t shard);
  void PublishShardGauges(uint32_t shard);
  /// Counts a failed ack wait (repl.ack_resets after a reset,
  /// repl.ack_timeouts otherwise) and returns `s`.
  Status CountAckWait(uint32_t shard, Status s);

  void FollowerLoop();
  /// One pull round for one shard; false on any transport error (the
  /// caller reconnects). Applies records and acks progress.
  bool PullShard(net::Client* client, uint32_t shard);
  /// Cursor-paged snapshot bootstrap: converges the local store to
  /// exactly the primary's state (puts every snapshot entry AND sweeps
  /// local keys the snapshot does not carry — deletions and divergent
  /// suffixes do not survive it), then adopts the snapshot's log
  /// position and run id and acks them to the primary.
  bool BootstrapShard(net::Client* client, uint32_t shard);
  /// Deletes every live local key in (after, upto] — `upto` empty
  /// means to the end of the key space — that the sorted `keep` set
  /// (nullptr = keep nothing) does not contain. DB::Scan elides
  /// tombstones, so snapshot pages alone can never convey a deletion;
  /// this is the bootstrap's anti-entropy half.
  bool SweepLocalGap(uint32_t shard, const std::string& after,
                     const std::string& upto,
                     const std::vector<std::string>* keep);
  /// Best-effort fence of the deposed primary after self-promotion.
  void FenceOldPrimary();

  ReplOptions options_;
  std::vector<DB*> dbs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::string self_endpoint_;

  std::thread follower_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
};

}  // namespace repl
}  // namespace cachekv

#endif  // CACHEKV_REPL_REPLICATION_H_
