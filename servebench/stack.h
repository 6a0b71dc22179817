// The in-process serving stack under test: per-shard simulated PMem
// environments and DBs behind one sharded net::Server, optionally with
// an in-process follower (its own environments, DBs, ReplHub and
// Server) that the primary's ReplHub waits on.

#ifndef SERVEBENCH_STACK_H_
#define SERVEBENCH_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "pmem/pmem_env.h"
#include "repl/replication.h"
#include "workload.h"

namespace servebench {

constexpr int kShards = 2;
constexpr int kServerWorkers = 2;
/// Each shard's hot-key cache: capacity and admission threshold.
constexpr size_t kHotKeyCacheBytes = 8u << 20;
constexpr uint32_t kHotKeyCacheAdmit = 2;

/// Every counter, gauge and span histogram of a set of DBs, summed over
/// the set (a histogram contributes "<name>.sum" and "<name>.count"),
/// plus the device-level totals of their environments under "env.*".
using Scrape = std::map<std::string, double>;

/// after - before, key by key (keys missing on either side count 0).
Scrape Delta(const Scrape& after, const Scrape& before);
double Get(const Scrape& s, const std::string& name);

class ServingStack {
 public:
  /// Builds, starts and (for a replicated workload) connects the stack;
  /// returns once every follower has subscribed to the primary.
  static cachekv::Status Open(const Workload& w,
                              std::unique_ptr<ServingStack>* out);

  /// Stops the servers and hubs, then lets background work settle
  /// before the DBs and environments are destroyed.
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  uint16_t port() const { return server_->port(); }
  const cachekv::net::ShardRouter& router() const { return router_; }
  const std::vector<cachekv::DB*>& primaries() const {
    return primary_.db_ptrs;
  }
  /// The primary's replication hub; null when unreplicated.
  cachekv::repl::ReplHub* hub() const { return hub_.get(); }

  /// WaitIdle on every DB (primaries and followers).
  cachekv::Status WaitIdle();

  /// The health gate: non-OK, naming the shard and carrying its
  /// DB::BackgroundError(), when any DB is read-only or has a hard
  /// background error.
  cachekv::Status CheckHealth();

  /// Sums over the primaries, and over the followers (empty when
  /// unreplicated).
  Scrape ScrapePrimaries();
  Scrape ScrapeFollowers();

  /// PmemAllocator::AllocatedBytes() summed over every environment.
  uint64_t AllocatedBytes() const;

  /// Resident bytes of the simulated PMem media (DRAM that stands in for
  /// the DIMMs) summed over every environment.
  uint64_t MediaResidentBytes() const;

 private:
  ServingStack() = default;

  /// One replica of the data: an environment and a DB per shard.
  struct Replica {
    std::vector<std::unique_ptr<cachekv::PmemEnv>> envs;
    std::vector<std::unique_ptr<cachekv::DB>> dbs;
    std::vector<cachekv::DB*> db_ptrs;
  };

  static cachekv::Status OpenReplica(const Workload& w, Replica* out);
  static Scrape ScrapeReplica(Replica* r);

  cachekv::net::ShardRouter router_;
  // Declared in teardown order, reversed: servers stop first, then the
  // hubs, and the DBs outlive both.
  Replica primary_;
  Replica follower_;
  std::unique_ptr<cachekv::repl::ReplHub> hub_;
  std::unique_ptr<cachekv::repl::ReplHub> follower_hub_;
  std::unique_ptr<cachekv::net::Server> server_;
  std::unique_ptr<cachekv::net::Server> follower_server_;
};

}  // namespace servebench

#endif  // SERVEBENCH_STACK_H_
