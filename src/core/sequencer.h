#ifndef CACHEKV_CORE_SEQUENCER_H_
#define CACHEKV_CORE_SEQUENCER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/kvstore.h"
#include "lsm/dbformat.h"

namespace cachekv {

/// Orders the writes of one DB. A writer reserves a block of sequence
/// numbers, publishes its records, then settles the block as committed or
/// failed. Blocks retire in reservation order under the lock, which yields
/// the *visible* watermark (every sequence at or below it has committed or
/// failed) and the commit hook's order. Only WaitVisible ever waits.
class Sequencer {
 public:
  using Ops = std::vector<KVStore::BatchOp>;
  using Hook = std::function<void(const Ops& ops, SequenceNumber last_seq)>;

  /// A reserved block. The deque keeps it in place until it retires.
  struct Block {
    SequenceNumber first, last;
    bool settled = false;
    std::unique_ptr<Ops> pending = nullptr;  // committed, hook waits
  };

  /// Starts sequencing after `seq` (recovery), before any Reserve.
  void Reset(SequenceNumber seq) { last_ = visible_ = seq; }
  void SetHook(Hook hook) {
    std::lock_guard<std::mutex> lock(mu_);
    hook_ = std::move(hook);
  }
  /// The last reserved sequence: always the end of a block.
  SequenceNumber last() const { return last_.load(); }

  Block* Reserve(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.push_back(Block{last_ + 1, last_ + n});
    last_ += n;
    return &blocks_.back();
  }

  /// Settles `block` as committed with `ops` (passed to the hook) or, when
  /// `ops` is null, as failed; then retires the settled prefix.
  void Settle(Block* block, const Ops* ops) {
    std::lock_guard<std::mutex> lock(mu_);
    block->settled = true;
    if (ops != nullptr && hook_ && block != &blocks_.front()) {
      block->pending = std::make_unique<Ops>(*ops);  // fires once retired
    }
    for (; !blocks_.empty() && blocks_.front().settled; blocks_.pop_front()) {
      const Block& b = blocks_.front();
      const Ops* fire = &b == block ? ops : b.pending.get();
      if (fire != nullptr && hook_) hook_(*fire, b.last);
      visible_ = b.last;
    }
    if (waiters_ > 0) settled_cv_.notify_all();
  }

  /// Returns once every sequence at or below `seq` has settled.
  void WaitVisible(SequenceNumber seq) {
    std::unique_lock<std::mutex> lock(mu_);
    waiters_++;
    settled_cv_.wait(lock, [&] { return visible_.load() >= seq; });
    waiters_--;
  }

 private:
  std::mutex mu_;
  std::condition_variable settled_cv_;
  int waiters_ = 0;
  std::deque<Block> blocks_;  // reserved and not yet retired, oldest first
  Hook hook_;
  std::atomic<SequenceNumber> last_{0};
  std::atomic<SequenceNumber> visible_{0};
};

}  // namespace cachekv

#endif  // CACHEKV_CORE_SEQUENCER_H_
