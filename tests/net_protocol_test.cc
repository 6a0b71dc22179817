// Wire-protocol codec tests (src/net/protocol.h): every op round-trips
// through encode -> FrameDecoder -> parse; the decoder accepts bytes at
// any granularity (byte-at-a-time, random split points) and rejects
// truncated, oversized, and garbage input with a latched decode error —
// never a crash or an out-of-bounds read.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "util/random.h"

namespace cachekv {
namespace net {
namespace {

using Result = FrameDecoder::Result;

/// Feeds the whole stream into *dec and expects exactly one frame. The
/// caller owns the decoder so the frame's payload slice stays valid.
Frame DecodeOne(FrameDecoder* dec, const std::string& stream) {
  dec->Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(Result::kFrame, dec->Next(&f)) << dec->error();
  Frame extra;
  EXPECT_EQ(Result::kNeedMore, dec->Next(&extra));
  EXPECT_EQ(0u, dec->buffered());
  return f;
}

TEST(NetProtocolTest, GetRoundTrip) {
  std::string stream;
  EncodeGetRequest(&stream, 7, "the-key");
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kGet, f.op);
  EXPECT_FALSE(f.response);
  EXPECT_EQ(kOk, f.code);
  EXPECT_EQ(7u, f.request_id);
  GetRequest req;
  ASSERT_TRUE(ParseGetRequest(f.payload, &req).ok());
  EXPECT_EQ("the-key", req.key.ToString());
}

TEST(NetProtocolTest, PutRoundTrip) {
  std::string stream;
  const std::string value(1000, 'v');
  EncodePutRequest(&stream, 8, "k", value);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kPut, f.op);
  EXPECT_EQ(8u, f.request_id);
  PutRequest req;
  ASSERT_TRUE(ParsePutRequest(f.payload, &req).ok());
  EXPECT_EQ("k", req.key.ToString());
  EXPECT_EQ(value, req.value.ToString());
}

TEST(NetProtocolTest, PutEmptyValueRoundTrip) {
  std::string stream;
  EncodePutRequest(&stream, 9, "k", "");
  PutRequest req;
  FrameDecoder dec;
  ASSERT_TRUE(ParsePutRequest(DecodeOne(&dec, stream).payload, &req).ok());
  EXPECT_EQ("k", req.key.ToString());
  EXPECT_TRUE(req.value.empty());
}

TEST(NetProtocolTest, DeleteRoundTrip) {
  std::string stream;
  EncodeDeleteRequest(&stream, 10, "gone");
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kDelete, f.op);
  DeleteRequest req;
  ASSERT_TRUE(ParseDeleteRequest(f.payload, &req).ok());
  EXPECT_EQ("gone", req.key.ToString());
}

TEST(NetProtocolTest, MultiPutRoundTrip) {
  std::vector<KVStore::BatchOp> batch;
  batch.push_back({false, "a", "1"});
  batch.push_back({true, "b", ""});
  batch.push_back({false, "c", std::string(300, 'x')});
  std::string stream;
  EncodeMultiPutRequest(&stream, 11, batch);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kMultiPut, f.op);
  MultiPutRequest req;
  ASSERT_TRUE(ParseMultiPutRequest(f.payload, &req).ok());
  ASSERT_EQ(batch.size(), req.ops.size());
  for (size_t i = 0; i < batch.size(); i++) {
    EXPECT_EQ(batch[i].is_delete, req.ops[i].is_delete);
    EXPECT_EQ(batch[i].key, req.ops[i].key);
    EXPECT_EQ(batch[i].value, req.ops[i].value);
  }
}

TEST(NetProtocolTest, ScanRoundTrip) {
  std::string stream;
  EncodeScanRequest(&stream, 12, "start-here", 99);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kScan, f.op);
  ScanRequest req;
  ASSERT_TRUE(ParseScanRequest(f.payload, &req).ok());
  EXPECT_EQ("start-here", req.start.ToString());
  EXPECT_EQ(99u, req.limit);
}

TEST(NetProtocolTest, StatsAndPingRoundTrip) {
  std::string stream;
  EncodeStatsRequest(&stream, 13);
  EncodePingRequest(&stream, 14);
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(Result::kFrame, dec.Next(&f));
  EXPECT_EQ(Op::kStats, f.op);
  EXPECT_EQ(13u, f.request_id);
  EXPECT_TRUE(f.payload.empty());
  ASSERT_EQ(Result::kFrame, dec.Next(&f));
  EXPECT_EQ(Op::kPing, f.op);
  EXPECT_EQ(14u, f.request_id);
  EXPECT_TRUE(f.payload.empty());
}

TEST(NetProtocolTest, ShardMapRoundTrip) {
  std::string stream;
  EncodeShardMapRequest(&stream, 15);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kShardMap, f.op);
  EXPECT_EQ(15u, f.request_id);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_STREQ("shardmap", OpName(Op::kShardMap));
}

TEST(NetProtocolTest, ResponseRoundTrip) {
  std::string stream;
  EncodeOkResponse(&stream, Op::kGet, 21, "hello");
  EncodeErrorResponse(&stream, Op::kPut, 22, kReadOnly, "flush failed");
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(Result::kFrame, dec.Next(&f));
  EXPECT_EQ(Op::kGet, f.op);
  EXPECT_TRUE(f.response);
  EXPECT_EQ(kOk, f.code);
  EXPECT_EQ(21u, f.request_id);
  EXPECT_EQ("hello", f.payload.ToString());
  ASSERT_EQ(Result::kFrame, dec.Next(&f));
  EXPECT_TRUE(f.response);
  EXPECT_EQ(kReadOnly, f.code);
  EXPECT_EQ(22u, f.request_id);
  Status s = StatusFromWire(f.code, f.payload);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_NE(std::string::npos, s.ToString().find("read-only"));
  EXPECT_NE(std::string::npos, s.ToString().find("flush failed"));
}

TEST(NetProtocolTest, ScanPayloadRoundTrip) {
  std::vector<std::pair<std::string, std::string>> entries = {
      {"a", "1"}, {"b", std::string(100, 'q')}, {"c", ""}};
  std::string payload;
  EncodeScanPayload(&payload, entries);
  std::vector<std::pair<std::string, std::string>> decoded;
  ASSERT_TRUE(ParseScanPayload(payload, &decoded).ok());
  EXPECT_EQ(entries, decoded);
}

TEST(NetProtocolTest, WireCodeStatusMappingIsLossless) {
  const Status statuses[] = {
      Status::OK(),
      Status::NotFound("x"),
      Status::Corruption("x"),
      Status::NotSupported("x"),
      Status::InvalidArgument("x"),
      Status::IOError("x"),
      Status::Busy("x"),
      Status::OutOfSpace("x"),
  };
  for (const Status& s : statuses) {
    const Status back = StatusFromWire(WireCodeOf(s), "x");
    EXPECT_EQ(s.ok(), back.ok()) << s.ToString();
    EXPECT_EQ(s.IsNotFound(), back.IsNotFound()) << s.ToString();
    EXPECT_EQ(s.IsCorruption(), back.IsCorruption()) << s.ToString();
    EXPECT_EQ(s.IsNotSupported(), back.IsNotSupported()) << s.ToString();
    EXPECT_EQ(s.IsInvalidArgument(), back.IsInvalidArgument())
        << s.ToString();
    EXPECT_EQ(s.IsIOError(), back.IsIOError()) << s.ToString();
    EXPECT_EQ(s.IsBusy(), back.IsBusy()) << s.ToString();
    EXPECT_EQ(s.IsOutOfSpace(), back.IsOutOfSpace()) << s.ToString();
  }
}

// Incremental delivery. ----------------------------------------------

TEST(NetProtocolTest, ByteAtATimeDelivery) {
  std::string stream;
  EncodePutRequest(&stream, 33, "incremental-key", "incremental-value");
  FrameDecoder dec;
  Frame f;
  for (size_t i = 0; i + 1 < stream.size(); i++) {
    dec.Feed(stream.data() + i, 1);
    ASSERT_EQ(Result::kNeedMore, dec.Next(&f))
        << "frame complete after " << (i + 1) << "/" << stream.size()
        << " bytes";
  }
  dec.Feed(stream.data() + stream.size() - 1, 1);
  ASSERT_EQ(Result::kFrame, dec.Next(&f));
  EXPECT_EQ(33u, f.request_id);
  PutRequest req;
  ASSERT_TRUE(ParsePutRequest(f.payload, &req).ok());
  EXPECT_EQ("incremental-key", req.key.ToString());
}

TEST(NetProtocolTest, RandomSplitDelivery) {
  // A stream of many mixed frames, delivered at random split points;
  // every frame must come out intact and in order regardless of the
  // chunking. Frames are consumed after each Feed (payload slices are
  // only valid until the next Feed call).
  std::string stream;
  const int kFrames = 200;
  for (int i = 0; i < kFrames; i++) {
    const uint64_t id = static_cast<uint64_t>(i);
    switch (i % 4) {
      case 0: EncodeGetRequest(&stream, id, "key" + std::to_string(i)); break;
      case 1:
        EncodePutRequest(&stream, id, "key" + std::to_string(i),
                         std::string(static_cast<size_t>(i % 97), 'v'));
        break;
      case 2: EncodePingRequest(&stream, id); break;
      case 3:
        EncodeScanRequest(&stream, id, "s", static_cast<uint32_t>(i));
        break;
    }
  }
  for (uint64_t seed = 1; seed <= 5; seed++) {
    Random rng(seed);
    FrameDecoder dec;
    uint64_t next_id = 0;
    size_t off = 0;
    while (off < stream.size()) {
      const size_t n = std::min<size_t>(
          stream.size() - off, 1 + rng.Uniform(97));
      dec.Feed(stream.data() + off, n);
      off += n;
      Frame f;
      Result r;
      while ((r = dec.Next(&f)) == Result::kFrame) {
        ASSERT_EQ(next_id, f.request_id) << "seed " << seed;
        next_id++;
      }
      ASSERT_EQ(Result::kNeedMore, r) << dec.error();
    }
    EXPECT_EQ(static_cast<uint64_t>(kFrames), next_id);
    EXPECT_EQ(0u, dec.buffered());
  }
}

// Malformed input. ----------------------------------------------------

std::string U32Le(uint32_t v) {
  std::string s(4, '\0');
  s[0] = static_cast<char>(v & 0xff);
  s[1] = static_cast<char>((v >> 8) & 0xff);
  s[2] = static_cast<char>((v >> 16) & 0xff);
  s[3] = static_cast<char>((v >> 24) & 0xff);
  return s;
}

TEST(NetProtocolTest, UndersizedBodyLenIsError) {
  FrameDecoder dec;
  const std::string bad = U32Le(3);  // < kFrameFixedBody
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
  EXPECT_FALSE(dec.error().empty());
}

TEST(NetProtocolTest, OversizedBodyLenRejectedBeforePayloadArrives) {
  // A hostile length announcement fails immediately — the decoder never
  // waits for (or allocates) the announced bytes.
  FrameDecoder dec(/*max_frame_body=*/1024);
  const std::string bad = U32Le(1u << 30);
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
  EXPECT_NE(std::string::npos, dec.error().find("maximum frame size"));
}

TEST(NetProtocolTest, UnknownOpcodeIsError) {
  std::string bad = U32Le(kFrameFixedBody);
  bad.push_back(static_cast<char>(0x7f));  // opcode
  bad.push_back(0);                        // flags
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
  EXPECT_NE(std::string::npos, dec.error().find("opcode"));
}

TEST(NetProtocolTest, ReservedFlagBitsAreError) {
  std::string bad = U32Le(kFrameFixedBody);
  bad.push_back(static_cast<char>(Op::kPing));
  bad.push_back(static_cast<char>(0xf0));  // reserved bits
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
}

TEST(NetProtocolTest, ErrorLatchesPermanently) {
  FrameDecoder dec;
  const std::string bad = U32Le(1);
  dec.Feed(bad.data(), bad.size());
  Frame f;
  ASSERT_EQ(Result::kError, dec.Next(&f));
  // A valid frame fed afterwards must not resurrect the stream.
  std::string good;
  EncodePingRequest(&good, 1);
  dec.Feed(good.data(), good.size());
  EXPECT_EQ(Result::kError, dec.Next(&f));
}

TEST(NetProtocolTest, GarbageStreamNeverCrashes) {
  // Random byte soup: the decoder must either error out or keep asking
  // for more, without crashing or reading out of bounds (the CI runs
  // this under ASan).
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Random rng(seed);
    FrameDecoder dec;
    bool dead = false;
    for (int chunk = 0; chunk < 64 && !dead; chunk++) {
      std::string bytes;
      const size_t n = 1 + rng.Uniform(128);
      for (size_t i = 0; i < n; i++) {
        bytes.push_back(static_cast<char>(rng.Uniform(256)));
      }
      dec.Feed(bytes.data(), bytes.size());
      Frame f;
      Result r;
      while ((r = dec.Next(&f)) == Result::kFrame) {
        // Touch the payload to give ASan a chance to catch over-reads.
        (void)f.payload.ToString();
      }
      dead = (r == Result::kError);
    }
  }
}

TEST(NetProtocolTest, SingleByteCorruptionNeverCrashes) {
  // Flip each byte of a valid two-frame stream in turn; decoding plus
  // parsing must stay memory-safe for every mutation.
  std::string stream;
  EncodePutRequest(&stream, 1, "key", "value");
  EncodeScanRequest(&stream, 2, "s", 10);
  for (size_t i = 0; i < stream.size(); i++) {
    std::string mutated = stream;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    FrameDecoder dec;
    dec.Feed(mutated.data(), mutated.size());
    Frame f;
    while (dec.Next(&f) == Result::kFrame) {
      PutRequest put;
      ScanRequest scan;
      switch (f.op) {
        case Op::kPut: (void)ParsePutRequest(f.payload, &put); break;
        case Op::kScan: (void)ParseScanRequest(f.payload, &scan); break;
        default: (void)f.payload.ToString(); break;
      }
    }
  }
}

TEST(NetProtocolTest, TruncatedPayloadsFailCleanly) {
  // Build each request, then decode with the payload cut short at every
  // possible point: the parser must return InvalidArgument, never crash.
  std::string get, put, del, mput, scan;
  EncodeGetRequest(&get, 1, "some-key");
  EncodePutRequest(&put, 2, "some-key", "some-value");
  EncodeDeleteRequest(&del, 3, "some-key");
  EncodeMultiPutRequest(&mput, 4, {{false, "a", "1"}, {true, "b", ""}});
  EncodeScanRequest(&scan, 5, "start", 10);
  struct Case {
    const std::string* stream;
    Op op;
  };
  const Case cases[] = {{&get, Op::kGet},
                        {&put, Op::kPut},
                        {&del, Op::kDelete},
                        {&mput, Op::kMultiPut},
                        {&scan, Op::kScan}};
  for (const Case& c : cases) {
    FrameDecoder dec;
    Frame f = DecodeOne(&dec, *c.stream);
    ASSERT_EQ(c.op, f.op);
    for (size_t cut = 0; cut < f.payload.size(); cut++) {
      const Slice truncated(f.payload.data(), cut);
      Status s;
      GetRequest g;
      PutRequest p;
      DeleteRequest d;
      MultiPutRequest m;
      ScanRequest sc;
      switch (c.op) {
        case Op::kGet: s = ParseGetRequest(truncated, &g); break;
        case Op::kPut: s = ParsePutRequest(truncated, &p); break;
        case Op::kDelete: s = ParseDeleteRequest(truncated, &d); break;
        case Op::kMultiPut: s = ParseMultiPutRequest(truncated, &m); break;
        case Op::kScan: s = ParseScanRequest(truncated, &sc); break;
        default: FAIL();
      }
      EXPECT_TRUE(s.IsInvalidArgument())
          << OpName(c.op) << " cut at " << cut << ": " << s.ToString();
    }
  }
}

TEST(NetProtocolTest, TrailingPayloadBytesRejected) {
  std::string stream;
  EncodeGetRequest(&stream, 1, "k");
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  std::string padded = f.payload.ToString() + "extra";
  GetRequest req;
  EXPECT_TRUE(ParseGetRequest(padded, &req).IsInvalidArgument());
}

TEST(NetProtocolTest, OversizedKeyRejectedByParser) {
  std::string payload = U32Le(static_cast<uint32_t>(kMaxKeyBytes + 1));
  payload.append(kMaxKeyBytes + 1, 'k');
  GetRequest req;
  Status s = ParseGetRequest(payload, &req);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(std::string::npos, s.ToString().find("key too large"));
}

TEST(NetProtocolTest, MultiPutCountExceedingPayloadRejected) {
  // count = 1M but almost no payload behind it: must be rejected before
  // any proportional allocation happens.
  std::string payload = U32Le(kMaxBatchCount);
  payload.append(16, '\0');
  MultiPutRequest req;
  Status s = ParseMultiPutRequest(payload, &req);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(std::string::npos,
            s.ToString().find("batch count exceeds payload"));
}

TEST(NetProtocolTest, MultiPutDeleteWithValueRejected) {
  std::string payload = U32Le(1);
  payload.push_back(1);  // is_delete
  payload += U32Le(1);
  payload += "k";
  payload += U32Le(1);  // a delete must not carry a value
  payload += "v";
  MultiPutRequest req;
  EXPECT_TRUE(ParseMultiPutRequest(payload, &req).IsInvalidArgument());
}

// Traced frames + telemetry ops. ------------------------------------

TEST(NetProtocolTest, TracedRequestRoundTrip) {
  TraceContext tc;
  tc.traced = true;
  tc.trace_id = 0xabcdef123456ull;
  std::string stream;
  EncodeGetRequest(&stream, 77, "traced-key", tc);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kGet, f.op);
  EXPECT_TRUE(f.traced);
  EXPECT_EQ(tc.trace_id, f.trace_id);
  EXPECT_EQ(0u, f.server_ns);
  // The context prefix is stripped: payload parsers see the same bytes
  // as an untraced frame.
  GetRequest req;
  ASSERT_TRUE(ParseGetRequest(f.payload, &req).ok());
  EXPECT_EQ("traced-key", req.key.ToString());
}

TEST(NetProtocolTest, TracedResponseCarriesServerTime) {
  TraceContext tc;
  tc.traced = true;
  tc.trace_id = 42;
  tc.server_ns = 123456789;
  std::string stream;
  EncodeOkResponse(&stream, Op::kGet, 5, "value", tc);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_TRUE(f.response);
  EXPECT_TRUE(f.traced);
  EXPECT_EQ(42u, f.trace_id);
  EXPECT_EQ(123456789u, f.server_ns);
  EXPECT_EQ("value", f.payload.ToString());
}

TEST(NetProtocolTest, UntracedFrameReportsNoTraceContext) {
  std::string stream;
  EncodeGetRequest(&stream, 1, "k");
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_FALSE(f.traced);
  EXPECT_EQ(0u, f.trace_id);
  EXPECT_EQ(0u, f.server_ns);
}

TEST(NetProtocolTest, TracedFrameTooShortForContextIsError) {
  // kFlagTraced set but the body lacks the 16-byte trace context.
  std::string bad = U32Le(kFrameFixedBody + 8);
  bad.push_back(static_cast<char>(Op::kGet));
  bad.push_back(static_cast<char>(kFlagTraced));
  bad.append(kFrameFixedBody - 2 + 8, '\0');
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
  EXPECT_NE(std::string::npos, dec.error().find("too short"));
}

TEST(NetProtocolTest, FlagBitAboveAtSnapshotStillRejected) {
  // 0x02 (traced) and 0x04 (at-snapshot) are valid flags; 0x08 and up
  // must stay decode errors so future flag bits cannot be smuggled
  // past old servers.
  std::string bad = U32Le(kFrameFixedBody);
  bad.push_back(static_cast<char>(Op::kPing));
  bad.push_back(static_cast<char>(0x08));
  bad.append(kFrameFixedBody - 2, '\0');
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
  EXPECT_NE(std::string::npos, dec.error().find("flag"));
}

TEST(NetProtocolTest, TracedAndPlainFramesPipelineTogether) {
  // Alternate traced and plain frames in one stream: ids, trace flags
  // and payloads must all come out intact, in order.
  std::string stream;
  for (uint64_t i = 0; i < 20; i++) {
    if (i % 2 == 0) {
      TraceContext tc;
      tc.traced = true;
      tc.trace_id = 1000 + i;
      EncodeGetRequest(&stream, i, "key" + std::to_string(i), tc);
    } else {
      EncodePutRequest(&stream, i, "key" + std::to_string(i), "v");
    }
  }
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  Frame f;
  for (uint64_t i = 0; i < 20; i++) {
    ASSERT_EQ(Result::kFrame, dec.Next(&f)) << dec.error();
    EXPECT_EQ(i, f.request_id);
    EXPECT_EQ(i % 2 == 0, f.traced);
    if (f.traced) {
      EXPECT_EQ(1000 + i, f.trace_id);
      GetRequest req;
      ASSERT_TRUE(ParseGetRequest(f.payload, &req).ok());
      EXPECT_EQ("key" + std::to_string(i), req.key.ToString());
    }
  }
  EXPECT_EQ(Result::kNeedMore, dec.Next(&f));
}

TEST(NetProtocolTest, SlowLogRoundTrip) {
  std::string stream;
  EncodeSlowLogRequest(&stream, 31, 25);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kSlowLog, f.op);
  EXPECT_EQ(31u, f.request_id);
  SlowLogRequest req;
  ASSERT_TRUE(ParseSlowLogRequest(f.payload, &req).ok());
  EXPECT_EQ(25u, req.limit);
  EXPECT_STREQ("slowlog", OpName(Op::kSlowLog));
}

TEST(NetProtocolTest, MetricsPromRoundTrip) {
  std::string stream;
  EncodeMetricsPromRequest(&stream, 32);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kMetricsProm, f.op);
  EXPECT_EQ(32u, f.request_id);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_STREQ("metricsprom", OpName(Op::kMetricsProm));
}

TEST(NetProtocolTest, SlowLogTruncatedPayloadRejected) {
  std::string stream;
  EncodeSlowLogRequest(&stream, 1, 7);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  for (size_t cut = 0; cut < f.payload.size(); cut++) {
    SlowLogRequest req;
    EXPECT_TRUE(ParseSlowLogRequest(Slice(f.payload.data(), cut), &req)
                    .IsInvalidArgument());
  }
}

// Replication ops (docs/REPLICATION.md). ----------------------------

TEST(NetProtocolTest, ReplSubscribeRoundTrip) {
  ReplSubscribeRequest req;
  req.shard = 3;
  req.epoch = 42;
  req.follower_id = "127.0.0.1:7071";
  std::string stream;
  EncodeReplSubscribeRequest(&stream, 21, req);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kReplSubscribe, f.op);
  EXPECT_EQ(21u, f.request_id);
  ReplSubscribeRequest got;
  ASSERT_TRUE(ParseReplSubscribeRequest(f.payload, &got).ok());
  EXPECT_EQ(3u, got.shard);
  EXPECT_EQ(42u, got.epoch);
  EXPECT_EQ("127.0.0.1:7071", got.follower_id.ToString());

  ReplSubscribeResponse resp;
  resp.epoch = 42;
  resp.log_start = 7;
  resp.log_head = 99;
  resp.log_run_id = 0xfeedfacecafebeefull;
  std::string payload;
  EncodeReplSubscribePayload(&payload, resp);
  ReplSubscribeResponse rgot;
  ASSERT_TRUE(ParseReplSubscribePayload(payload, &rgot).ok());
  EXPECT_EQ(42u, rgot.epoch);
  EXPECT_EQ(7u, rgot.log_start);
  EXPECT_EQ(99u, rgot.log_head);
  EXPECT_EQ(0xfeedfacecafebeefull, rgot.log_run_id);
}

TEST(NetProtocolTest, ReplBatchRoundTrip) {
  ReplBatchRequest req;
  req.shard = 1;
  req.epoch = 5;
  req.from_seq = 100;
  req.max_batches = 64;
  std::string stream;
  EncodeReplBatchRequest(&stream, 22, req);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kReplBatch, f.op);
  ReplBatchRequest got;
  ASSERT_TRUE(ParseReplBatchRequest(f.payload, &got).ok());
  EXPECT_EQ(1u, got.shard);
  EXPECT_EQ(5u, got.epoch);
  EXPECT_EQ(100u, got.from_seq);
  EXPECT_EQ(64u, got.max_batches);

  ReplBatchResponse resp;
  resp.epoch = 5;
  resp.log_head = 102;
  resp.log_run_id = 0x1234567890abcdefull;
  ReplRecord rec;
  rec.log_seq = 101;
  rec.last_db_seq = 555;
  EncodeReplOps(&rec.ops_blob,
                {{false, "k1", "v1"}, {true, "k2", ""}});
  resp.records.push_back(rec);
  std::string payload;
  EncodeReplBatchPayload(&payload, resp);
  ReplBatchResponse rgot;
  ASSERT_TRUE(ParseReplBatchPayload(payload, &rgot).ok());
  EXPECT_EQ(5u, rgot.epoch);
  EXPECT_EQ(102u, rgot.log_head);
  EXPECT_EQ(0x1234567890abcdefull, rgot.log_run_id);
  ASSERT_EQ(1u, rgot.records.size());
  EXPECT_EQ(101u, rgot.records[0].log_seq);
  EXPECT_EQ(555u, rgot.records[0].last_db_seq);
  std::vector<KVStore::BatchOp> ops;
  ASSERT_TRUE(ParseReplOps(rgot.records[0].ops_blob, &ops).ok());
  ASSERT_EQ(2u, ops.size());
  EXPECT_FALSE(ops[0].is_delete);
  EXPECT_EQ("k1", ops[0].key);
  EXPECT_EQ("v1", ops[0].value);
  EXPECT_TRUE(ops[1].is_delete);
  EXPECT_EQ("k2", ops[1].key);
}

TEST(NetProtocolTest, ReplAckRoundTrip) {
  ReplAckRequest req;
  req.shard = 2;
  req.epoch = 9;
  req.follower_id = "f1";
  req.acked_seq = 1234;
  std::string stream;
  EncodeReplAckRequest(&stream, 23, req);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kReplAck, f.op);
  ReplAckRequest got;
  ASSERT_TRUE(ParseReplAckRequest(f.payload, &got).ok());
  EXPECT_EQ(2u, got.shard);
  EXPECT_EQ(9u, got.epoch);
  EXPECT_EQ("f1", got.follower_id.ToString());
  EXPECT_EQ(1234u, got.acked_seq);
}

TEST(NetProtocolTest, ReplSnapshotRoundTrip) {
  ReplSnapshotRequest req;
  req.shard = 0;
  req.epoch = 3;
  req.cursor = "resume-after-me";
  req.max_entries = 512;
  std::string stream;
  EncodeReplSnapshotRequest(&stream, 24, req);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kReplSnapshot, f.op);
  ReplSnapshotRequest got;
  ASSERT_TRUE(ParseReplSnapshotRequest(f.payload, &got).ok());
  EXPECT_EQ(3u, got.epoch);
  EXPECT_EQ("resume-after-me", got.cursor.ToString());
  EXPECT_EQ(512u, got.max_entries);

  ReplSnapshotResponse resp;
  resp.epoch = 3;
  resp.log_pos = 88;
  resp.log_run_id = 0x9999000011112222ull;
  resp.done = true;
  resp.entries = {{"a", "1"}, {"b", std::string(2000, 'x')}};
  std::string payload;
  EncodeReplSnapshotPayload(&payload, resp);
  ReplSnapshotResponse rgot;
  ASSERT_TRUE(ParseReplSnapshotPayload(payload, &rgot).ok());
  EXPECT_EQ(3u, rgot.epoch);
  EXPECT_EQ(88u, rgot.log_pos);
  EXPECT_EQ(0x9999000011112222ull, rgot.log_run_id);
  EXPECT_TRUE(rgot.done);
  ASSERT_EQ(2u, rgot.entries.size());
  EXPECT_EQ("a", rgot.entries[0].first);
  EXPECT_EQ(std::string(2000, 'x'), rgot.entries[1].second);
}

TEST(NetProtocolTest, PromoteRoundTrip) {
  std::string stream;
  EncodePromoteRequest(&stream, 25, 4);
  FrameDecoder dec;
  Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(Op::kPromote, f.op);
  PromoteRequest got;
  ASSERT_TRUE(ParsePromoteRequest(f.payload, &got).ok());
  EXPECT_EQ(4u, got.shard);

  std::string payload;
  EncodePromotePayload(&payload, 17);
  uint64_t new_epoch = 0;
  ASSERT_TRUE(ParsePromotePayload(payload, &new_epoch).ok());
  EXPECT_EQ(17u, new_epoch);
}

TEST(NetProtocolTest, ReplOpsBlobRejectsCorruption) {
  std::string blob;
  EncodeReplOps(&blob, {{false, "key", "value"}, {true, "dead", ""}});
  std::vector<KVStore::BatchOp> ops;
  // Every truncation point must fail cleanly.
  for (size_t cut = 0; cut < blob.size(); cut++) {
    ops.clear();
    EXPECT_TRUE(
        ParseReplOps(Slice(blob.data(), cut), &ops).IsInvalidArgument())
        << "cut at " << cut;
  }
  // Trailing bytes are rejected too.
  ops.clear();
  EXPECT_TRUE(ParseReplOps(blob + "x", &ops).IsInvalidArgument());
  // A delete carrying a value is rejected.
  std::string bad = U32Le(1);
  bad.push_back(1);  // is_delete
  bad += U32Le(1);
  bad += "k";
  bad += U32Le(1);
  bad += "v";
  ops.clear();
  EXPECT_TRUE(ParseReplOps(bad, &ops).IsInvalidArgument());
}

TEST(NetProtocolTest, ReplRequestTruncationsFailCleanly) {
  ReplSubscribeRequest sub;
  sub.shard = 1;
  sub.epoch = 2;
  sub.follower_id = "fid";
  ReplBatchRequest batch;
  batch.shard = 1;
  ReplAckRequest ack;
  ack.follower_id = "fid";
  ReplSnapshotRequest snap;
  snap.cursor = "cur";
  std::string subs, batchs, acks, snaps, promotes;
  EncodeReplSubscribeRequest(&subs, 1, sub);
  EncodeReplBatchRequest(&batchs, 2, batch);
  EncodeReplAckRequest(&acks, 3, ack);
  EncodeReplSnapshotRequest(&snaps, 4, snap);
  EncodePromoteRequest(&promotes, 5, 0);
  const struct {
    const std::string* stream;
    Op op;
  } cases[] = {{&subs, Op::kReplSubscribe},
               {&batchs, Op::kReplBatch},
               {&acks, Op::kReplAck},
               {&snaps, Op::kReplSnapshot},
               {&promotes, Op::kPromote}};
  for (const auto& c : cases) {
    FrameDecoder dec;
    Frame f = DecodeOne(&dec, *c.stream);
    ASSERT_EQ(c.op, f.op);
    for (size_t cut = 0; cut < f.payload.size(); cut++) {
      const Slice truncated(f.payload.data(), cut);
      Status s;
      ReplSubscribeRequest a;
      ReplBatchRequest b;
      ReplAckRequest d;
      ReplSnapshotRequest e;
      PromoteRequest p;
      switch (c.op) {
        case Op::kReplSubscribe:
          s = ParseReplSubscribeRequest(truncated, &a);
          break;
        case Op::kReplBatch:
          s = ParseReplBatchRequest(truncated, &b);
          break;
        case Op::kReplAck:
          s = ParseReplAckRequest(truncated, &d);
          break;
        case Op::kReplSnapshot:
          s = ParseReplSnapshotRequest(truncated, &e);
          break;
        case Op::kPromote:
          s = ParsePromoteRequest(truncated, &p);
          break;
        default:
          FAIL();
      }
      EXPECT_TRUE(s.IsInvalidArgument())
          << OpName(c.op) << " cut at " << cut << ": " << s.ToString();
    }
  }
}

TEST(NetProtocolTest, ReplWireCodesMapToStatuses) {
  EXPECT_TRUE(StatusFromWire(kNotPrimary, "m").IsIOError());
  EXPECT_TRUE(StatusFromWire(kStaleEpoch, "m").IsInvalidArgument());
  EXPECT_TRUE(StatusFromWire(kReplLagged, "m").IsNotFound());
  EXPECT_TRUE(StatusFromWire(kReplTimeout, "m").IsBusy());
}

TEST(NetProtocolTest, DecoderCompactsConsumedPrefix) {
  // Long-lived connections must not grow the receive buffer without
  // bound: after consuming >64 KiB the decoder drops the dead prefix.
  FrameDecoder dec;
  std::string stream;
  EncodePutRequest(&stream, 1, "k", std::string(8192, 'v'));
  for (int i = 0; i < 64; i++) {
    dec.Feed(stream.data(), stream.size());
    Frame f;
    ASSERT_EQ(Result::kFrame, dec.Next(&f));
    ASSERT_EQ(Result::kNeedMore, dec.Next(&f));
  }
  EXPECT_EQ(0u, dec.buffered());
}

}  // namespace
}  // namespace net
}  // namespace cachekv
