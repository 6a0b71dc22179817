#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "lsm/memtable.h"
#include "util/random.h"

namespace cachekv {
namespace {

TEST(MemTableTest, AddAndGet) {
  MemTable mem;
  mem.Add(1, kTypeValue, Slice("apple"), Slice("red"));
  mem.Add(2, kTypeValue, Slice("banana"), Slice("yellow"));
  std::string value;
  EXPECT_EQ(MemTable::GetResult::kFound,
            mem.Get(Slice("apple"), 10, &value));
  EXPECT_EQ("red", value);
  EXPECT_EQ(MemTable::GetResult::kFound,
            mem.Get(Slice("banana"), 10, &value));
  EXPECT_EQ("yellow", value);
  EXPECT_EQ(MemTable::GetResult::kNotFound,
            mem.Get(Slice("cherry"), 10, &value));
}

TEST(MemTableTest, FreshestVersionWins) {
  MemTable mem;
  mem.Add(1, kTypeValue, Slice("k"), Slice("v1"));
  mem.Add(5, kTypeValue, Slice("k"), Slice("v5"));
  mem.Add(3, kTypeValue, Slice("k"), Slice("v3"));
  std::string value;
  EXPECT_EQ(MemTable::GetResult::kFound, mem.Get(Slice("k"), 100, &value));
  EXPECT_EQ("v5", value);
}

TEST(MemTableTest, SnapshotReads) {
  MemTable mem;
  mem.Add(1, kTypeValue, Slice("k"), Slice("v1"));
  mem.Add(5, kTypeValue, Slice("k"), Slice("v5"));
  std::string value;
  EXPECT_EQ(MemTable::GetResult::kFound, mem.Get(Slice("k"), 4, &value));
  EXPECT_EQ("v1", value);
  EXPECT_EQ(MemTable::GetResult::kFound, mem.Get(Slice("k"), 1, &value));
  EXPECT_EQ("v1", value);
  // Snapshot before the first write sees nothing... sequence 0 precedes
  // any assignment.
  EXPECT_EQ(MemTable::GetResult::kNotFound,
            mem.Get(Slice("k"), 0, &value));
}

TEST(MemTableTest, Tombstone) {
  MemTable mem;
  mem.Add(1, kTypeValue, Slice("k"), Slice("v"));
  mem.Add(2, kTypeDeletion, Slice("k"), Slice());
  std::string value;
  EXPECT_EQ(MemTable::GetResult::kDeleted,
            mem.Get(Slice("k"), 10, &value));
  // The old value remains visible to an old snapshot.
  EXPECT_EQ(MemTable::GetResult::kFound, mem.Get(Slice("k"), 1, &value));
  EXPECT_EQ("v", value);
}

TEST(MemTableTest, IteratorSortedAndComplete) {
  MemTable mem;
  Random rng(3);
  std::map<std::string, std::string> model;
  SequenceNumber seq = 0;
  for (int i = 0; i < 2000; i++) {
    std::string k = "key" + std::to_string(rng.Uniform(500));
    std::string v = "val" + std::to_string(i);
    mem.Add(++seq, kTypeValue, Slice(k), Slice(v));
    model[k] = v;  // freshest value per key
  }
  std::unique_ptr<Iterator> iter(mem.NewIterator());
  iter->SeekToFirst();
  std::string prev_user_key;
  std::map<std::string, std::string> seen_first;
  int count = 0;
  std::string prev_key;
  while (iter->Valid()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    // First occurrence of each user key is the freshest.
    std::string uk = parsed.user_key.ToString();
    if (!seen_first.count(uk)) {
      seen_first[uk] = iter->value().ToString();
    }
    count++;
    iter->Next();
  }
  EXPECT_EQ(2000, count);
  EXPECT_EQ(model, seen_first);
}

TEST(MemTableTest, EmptyValueAndKeyEdgeCases) {
  MemTable mem;
  mem.Add(1, kTypeValue, Slice("k"), Slice(""));
  std::string value = "sentinel";
  EXPECT_EQ(MemTable::GetResult::kFound, mem.Get(Slice("k"), 10, &value));
  EXPECT_EQ("", value);
  // Large value.
  std::string big(100000, 'x');
  mem.Add(2, kTypeValue, Slice("big"), Slice(big));
  EXPECT_EQ(MemTable::GetResult::kFound,
            mem.Get(Slice("big"), 10, &value));
  EXPECT_EQ(big, value);
}

TEST(MemTableTest, MemoryAccounting) {
  MemTable mem;
  size_t before = mem.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    mem.Add(i + 1, kTypeValue, Slice("key" + std::to_string(i)),
            Slice(std::string(100, 'v')));
  }
  EXPECT_GT(mem.ApproximateMemoryUsage(), before + 100 * 1000);
  EXPECT_EQ(1000u, mem.NumEntries());
}

}  // namespace
}  // namespace cachekv
