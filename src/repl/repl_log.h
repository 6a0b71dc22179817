#ifndef CACHEKV_REPL_REPL_LOG_H_
#define CACHEKV_REPL_REPL_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace cachekv {
namespace repl {

/// In-memory replication log for one shard (docs/REPLICATION.md).
///
/// The primary appends one record per committed write batch; followers
/// pull records by log sequence number (REPLBATCH) and report applied
/// progress (REPLACK). Records carry their own dense `log_seq`
/// numbering (1, 2, 3, ...) independent of DB sequence numbers — DB
/// seqnos can interleave across shards and are allocated before the
/// commit outcome is known, so they are recorded per batch
/// (`last_db_seq`) but never used for addressing.
///
/// Records every registered follower has acked serve nobody and are
/// trimmed as the acks arrive; a registered follower still at 0 keeps
/// them all. The byte budget caps what is left: when an append would
/// exceed it, the oldest records are evicted. Either way `start_seq`
/// advances, and a follower whose cursor falls behind it gets kNotFound
/// from Fetch and must bootstrap from a shard snapshot (REPLSNAPSHOT)
/// instead.
///
/// Every log carries a `run_id`: a random nonzero token drawn at
/// construction and redrawn by Reset(). Two logs (or two lifetimes of
/// the same log — a primary restart, a promotion) never share a run id,
/// so a follower comparing run ids across fetches detects that its
/// cursor addresses a numbering that no longer exists and must
/// snapshot-bootstrap instead of applying aliased records.
///
/// Thread safety: all methods are safe to call concurrently.
class ReplLog {
 public:
  struct Record {
    uint64_t log_seq = 0;
    uint64_t last_db_seq = 0;
    std::string ops_blob;  // EncodeReplOps format (net/protocol.h).
  };

  explicit ReplLog(size_t max_bytes);

  ReplLog(const ReplLog&) = delete;
  ReplLog& operator=(const ReplLog&) = delete;

  /// Appends a committed batch; assigns and returns its log_seq.
  uint64_t Append(std::string ops_blob, uint64_t last_db_seq);

  /// Copies up to `max` records with log_seq >= `from` into `out`.
  /// `*head_out` receives the current head on both success and failure.
  /// Returns NotFound when `from` precedes the truncated start (the
  /// caller must snapshot-bootstrap); OK with an empty `out` when
  /// `from` is past the head (caller waits and re-polls).
  Status Fetch(uint64_t from, uint32_t max, std::vector<Record>* out,
               uint64_t* head_out) const;

  /// First log_seq a Fetch can still serve: the oldest resident record,
  /// head + 1 once every record was trimmed, 0 before the first append.
  uint64_t start_seq() const;
  /// Highest log_seq ever assigned (0 = empty).
  uint64_t head_seq() const;
  /// Total bytes of resident ops blobs.
  uint64_t resident_bytes() const;
  /// This log lifetime's identity token (nonzero; new after Reset()).
  uint64_t run_id() const;

  /// Records that follower `id` has applied through `seq` (monotonic;
  /// stale acks are ignored), trims the records every registered
  /// follower has now acked, and wakes WaitCommit waiters. Ack(id, 0)
  /// registers a follower.
  void Ack(const std::string& id, uint64_t seq);
  /// Last acked position for `id` (0 if unknown).
  uint64_t AckedSeq(const std::string& id) const;
  /// True when `id` is registered and has acked the head.
  bool CaughtUp(const std::string& id) const;
  /// Number of distinct followers whose acked position is >= `seq`.
  uint32_t AckedCount(uint64_t seq) const;

  /// Where one write's ack wait stands (CheckCommit).
  enum class CommitState { kPending, kAcked, kReset };

  /// The predicate WaitCommit blocks on, evaluated once, for callers
  /// that must not block: kAcked once `needed` followers acked the
  /// record carrying the caller's own write (see WaitCommit), kReset
  /// once the log's run id is no longer `run_id` (read with run_id()
  /// when the wait began: a Reset() dropped the record), else kPending.
  CommitState CheckCommit(uint64_t db_seq, uint32_t needed,
                          uint64_t run_id) const;
  /// What a wait that ended in `state` returns: OK when acked, IOError
  /// after a reset, Busy (the timeout) while still pending.
  static Status CommitStatus(CommitState state);

  /// Blocks until at least `needed` followers have acked the record
  /// carrying the caller's own write, or `timeout_ms` elapses: the
  /// record whose `last_db_seq` >= `db_seq` with the smallest log_seq
  /// (`db_seq` == 0: the newest record when the wait begins). Appends
  /// arrive in DB-sequence order (the DB's commit-hook dispatcher
  /// guarantees it), so that record covers the write exactly — later
  /// concurrent writes never extend the wait. Once trimmed or evicted,
  /// the record is stood in for by the last record dropped, never by
  /// the first survivor (a later write). Blocks first for the record to
  /// be appended (hook dispatch can lag the caller's publish), then for
  /// the acks. Returns OK on success, Busy on timeout, and IOError when
  /// Reset() tore the log down mid-wait (the caller's record no longer
  /// exists; its replication fate is unknowable). `needed` == 0 returns
  /// OK immediately.
  Status WaitCommit(uint64_t db_seq, uint32_t needed, int timeout_ms);

  /// Drops all records and follower state and redraws the run id
  /// (promotion of a follower resets its outbound log; its DB state is
  /// the source of truth). In-flight WaitCommit callers wake with
  /// IOError, distinct from an ack timeout.
  void Reset();

  /// Installs `listener` (null removes it): it runs after every Append,
  /// every Ack that moves a follower, and every Reset, so a caller
  /// polling CheckCommit or CaughtUp learns when to look again. It runs
  /// under the log's lock, so it must be quick and must not call back
  /// into the log; once SetListener returns, the previous listener is
  /// not running and never runs again.
  void SetListener(std::function<void()> listener);

 private:
  void TruncateLocked();
  /// Drops the oldest record, remembering it in trimmed_*.
  void PopFrontLocked();
  uint32_t AckedCountLocked(uint64_t seq) const;
  CommitState CheckCommitLocked(uint64_t db_seq, uint32_t needed,
                                uint64_t run_id) const;

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::condition_variable ack_cv_;
  std::deque<Record> records_;
  uint64_t head_ = 0;               // Highest assigned log_seq.
  uint64_t bytes_ = 0;              // Sum of resident ops_blob sizes.
  uint64_t run_id_;                 // Nonzero; redrawn by Reset().
  uint64_t last_db_seq_ = 0;        // db seq of the newest append.
  uint64_t trimmed_seq_ = 0;        // log_seq of the newest dropped record.
  uint64_t trimmed_db_seq_ = 0;     // ... and its last_db_seq.
  std::map<std::string, uint64_t> acked_;  // follower id -> log_seq.
  std::function<void()> listener_;
};

}  // namespace repl
}  // namespace cachekv

#endif  // CACHEKV_REPL_REPL_LOG_H_
