#include "repl/repl_log.h"

#include <algorithm>
#include <chrono>
#include <random>

namespace cachekv {
namespace repl {

namespace {

/// A nonzero token that no two log lifetimes share (process restarts
/// included): followers use inequality, never ordering, so collision
/// resistance is all that matters.
uint64_t DrawRunId() {
  std::random_device rd;
  const uint64_t id =
      (static_cast<uint64_t>(rd()) << 32) ^ static_cast<uint64_t>(rd());
  return id == 0 ? 1 : id;
}

}  // namespace

ReplLog::ReplLog(size_t max_bytes)
    : max_bytes_(max_bytes), run_id_(DrawRunId()) {}

uint64_t ReplLog::Append(std::string ops_blob, uint64_t last_db_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  Record rec;
  rec.log_seq = ++head_;
  rec.last_db_seq = last_db_seq;
  bytes_ += ops_blob.size();
  rec.ops_blob = std::move(ops_blob);
  records_.push_back(std::move(rec));
  last_db_seq_ = std::max(last_db_seq_, last_db_seq);
  TruncateLocked();
  // WaitCommit callers may be parked waiting for their own record to
  // land (hook dispatch runs behind the writer's publish).
  ack_cv_.notify_all();
  if (listener_) listener_();
  return head_;
}

void ReplLog::TruncateLocked() {
  // Keep at least the newest record resident even if it alone exceeds
  // the budget — a log that evicts its own head can never be fetched.
  while (records_.size() > 1 && bytes_ > max_bytes_) {
    PopFrontLocked();
  }
}

void ReplLog::PopFrontLocked() {
  const Record& front = records_.front();
  trimmed_seq_ = front.log_seq;
  trimmed_db_seq_ = front.last_db_seq;
  bytes_ -= front.ops_blob.size();
  records_.pop_front();
}

Status ReplLog::Fetch(uint64_t from, uint32_t max,
                      std::vector<Record>* out, uint64_t* head_out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (head_out != nullptr) *head_out = head_;
  out->clear();
  if (from == 0) from = 1;
  if (from > head_) return Status::OK();  // Caught up; nothing new.
  if (!records_.empty() && from < records_.front().log_seq) {
    return Status::NotFound("repl log truncated before cursor");
  }
  if (records_.empty()) {
    // head_ > 0 but nothing resident: fully truncated.
    return Status::NotFound("repl log truncated before cursor");
  }
  // Records are dense: index of `from` is from - front.log_seq.
  size_t idx = static_cast<size_t>(from - records_.front().log_seq);
  for (; idx < records_.size() && out->size() < max; idx++) {
    out->push_back(records_[idx]);
  }
  return Status::OK();
}

uint64_t ReplLog::start_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!records_.empty()) return records_.front().log_seq;
  return head_ == 0 ? 0 : head_ + 1;
}

uint64_t ReplLog::head_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

uint64_t ReplLog::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t ReplLog::run_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_id_;
}

void ReplLog::Ack(const std::string& id, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& pos = acked_[id];
  if (seq <= pos) return;  // Stale or duplicate ack, or a registration.
  pos = seq;
  // Trim what every registered follower has applied; the byte budget
  // still caps whatever a lagging follower holds back.
  uint64_t min_acked = pos;
  for (const auto& [follower, acked] : acked_) {
    (void)follower;
    min_acked = std::min(min_acked, acked);
  }
  while (!records_.empty() && records_.front().log_seq <= min_acked) {
    PopFrontLocked();
  }
  ack_cv_.notify_all();
  if (listener_) listener_();
}

uint64_t ReplLog::AckedSeq(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = acked_.find(id);
  return it == acked_.end() ? 0 : it->second;
}

bool ReplLog::CaughtUp(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = acked_.find(id);
  return it != acked_.end() && it->second >= head_;
}

uint32_t ReplLog::AckedCountLocked(uint64_t seq) const {
  uint32_t n = 0;
  for (const auto& [id, pos] : acked_) {
    if (pos >= seq) n++;
  }
  return n;
}

uint32_t ReplLog::AckedCount(uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  return AckedCountLocked(seq);
}

ReplLog::CommitState ReplLog::CheckCommitLocked(uint64_t db_seq,
                                                uint32_t needed,
                                                uint64_t run_id) const {
  if (run_id_ != run_id) return CommitState::kReset;
  if (last_db_seq_ < db_seq) return CommitState::kPending;  // not appended
  // The caller's record: first one with last_db_seq >= db_seq (appends
  // are db-seq ordered, so records_ is sorted by last_db_seq). Once it
  // was dropped, the last dropped record stands in for it: a follower
  // acking that far either applied the caller's record or bootstrapped
  // from a snapshot containing the write. The first survivor would not
  // do: it is a later write, and waiting on it extends the wait.
  uint64_t target = head_;
  if (db_seq <= trimmed_db_seq_) {
    target = trimmed_seq_;
  } else {
    auto it = std::lower_bound(
        records_.begin(), records_.end(), db_seq,
        [](const Record& r, uint64_t v) { return r.last_db_seq < v; });
    if (it != records_.end()) target = it->log_seq;
  }
  return AckedCountLocked(target) >= needed ? CommitState::kAcked
                                            : CommitState::kPending;
}

ReplLog::CommitState ReplLog::CheckCommit(uint64_t db_seq, uint32_t needed,
                                          uint64_t run_id) const {
  if (needed == 0) return CommitState::kAcked;
  std::lock_guard<std::mutex> lock(mu_);
  return CheckCommitLocked(db_seq, needed, run_id);
}

Status ReplLog::CommitStatus(CommitState state) {
  switch (state) {
    case CommitState::kAcked: return Status::OK();
    case CommitState::kReset:
      return Status::IOError("replication log reset during ack wait");
    case CommitState::kPending: break;
  }
  return Status::Busy("replication ack timeout");
}

Status ReplLog::WaitCommit(uint64_t db_seq, uint32_t needed,
                           int timeout_ms) {
  if (needed == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t run = run_id_;
  if (db_seq == 0) db_seq = last_db_seq_;
  CommitState state = CommitState::kPending;
  ack_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    state = CheckCommitLocked(db_seq, needed, run);
    return state != CommitState::kPending;
  });
  return CommitStatus(state);
}

void ReplLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  acked_.clear();
  head_ = 0;
  bytes_ = 0;
  last_db_seq_ = 0;
  trimmed_seq_ = 0;
  trimmed_db_seq_ = 0;
  // Waiters detect the reset by the run id alone, so it must change.
  const uint64_t old_run = run_id_;
  do {
    run_id_ = DrawRunId();
  } while (run_id_ == old_run);
  ack_cv_.notify_all();
  if (listener_) listener_();
}

void ReplLog::SetListener(std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = std::move(listener);
}

}  // namespace repl
}  // namespace cachekv
