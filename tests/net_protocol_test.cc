// Wire-protocol tests for the serving layer (src/net): frame round-trips
// over real sockets, FrameParser reassembly under arbitrary splits,
// CRC/truncation rejection, and Encode/Decode round-trips for every
// message kind -- including the rule that a truncated or extended payload
// is rejected, never misparsed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/query/parser.h"
#include "src/table/schema.h"
#include "src/util/codec.h"

namespace pvcdb {
namespace {

Schema ItemsSchema() {
  return Schema({{"item", CellType::kString}, {"price", CellType::kInt}});
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripOverSocketPair) {
  Socket a, b;
  ASSERT_TRUE(MakeSocketPair(&a, &b));
  ASSERT_TRUE(SendFrame(&a, 7, "hello frame"));
  ASSERT_TRUE(SendFrame(&a, 200, ""));  // Empty payload, client-range kind.
  uint8_t kind = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(&b, &kind, &payload), FrameResult::kOk);
  EXPECT_EQ(kind, 7);
  EXPECT_EQ(payload, "hello frame");
  ASSERT_EQ(RecvFrame(&b, &kind, &payload), FrameResult::kOk);
  EXPECT_EQ(kind, 200);
  EXPECT_EQ(payload, "");
}

TEST(FrameTest, CleanCloseIsClosedTornFrameIsCorrupt) {
  {
    Socket a, b;
    ASSERT_TRUE(MakeSocketPair(&a, &b));
    a.Close();  // Close on a frame boundary.
    uint8_t kind = 0;
    std::string payload;
    EXPECT_EQ(RecvFrame(&b, &kind, &payload), FrameResult::kClosed);
  }
  {
    Socket a, b;
    ASSERT_TRUE(MakeSocketPair(&a, &b));
    std::string frame;
    EncodeFrame(&frame, 3, "payload that will be torn");
    ASSERT_TRUE(a.SendAll(frame.data(), frame.size() - 5));
    a.Close();  // EOF mid-frame.
    uint8_t kind = 0;
    std::string payload;
    EXPECT_EQ(RecvFrame(&b, &kind, &payload), FrameResult::kCorrupt);
  }
}

TEST(FrameTest, CorruptCrcRejected) {
  std::string frame;
  EncodeFrame(&frame, 5, "checksummed bytes");
  // Flip one payload byte; the CRC no longer matches.
  frame[frame.size() - 1] ^= 0x01;
  Socket a, b;
  ASSERT_TRUE(MakeSocketPair(&a, &b));
  ASSERT_TRUE(a.SendAll(frame.data(), frame.size()));
  uint8_t kind = 0;
  std::string payload;
  EXPECT_EQ(RecvFrame(&b, &kind, &payload), FrameResult::kCorrupt);
}

TEST(FrameTest, OversizedLengthRejectedWithoutAllocating) {
  // A corrupted length field larger than kMaxFrameLength must be rejected
  // up front instead of trusted.
  std::string frame;
  EncodeFrame(&frame, 5, "x");
  frame[0] = static_cast<char>(0xff);
  frame[1] = static_cast<char>(0xff);
  frame[2] = static_cast<char>(0xff);
  frame[3] = static_cast<char>(0xff);
  FrameParser parser;
  parser.Feed(frame.data(), frame.size());
  uint8_t kind = 0;
  std::string payload;
  EXPECT_EQ(parser.Next(&kind, &payload), FrameResult::kCorrupt);
}

TEST(FrameParserTest, ReassemblesByteAtATime) {
  std::string stream;
  EncodeFrame(&stream, 1, "first");
  EncodeFrame(&stream, 2, "second payload");
  EncodeFrame(&stream, 3, "");
  FrameParser parser;
  std::vector<std::pair<uint8_t, std::string>> got;
  for (char c : stream) {
    parser.Feed(&c, 1);
    uint8_t kind = 0;
    std::string payload;
    while (parser.Next(&kind, &payload) == FrameResult::kOk) {
      got.emplace_back(kind, payload);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<uint8_t, std::string>(1, "first")));
  EXPECT_EQ(got[1], (std::pair<uint8_t, std::string>(2, "second payload")));
  EXPECT_EQ(got[2], (std::pair<uint8_t, std::string>(3, "")));
}

TEST(FrameParserTest, CoalescedFramesDrainInOrder) {
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    EncodeFrame(&stream, static_cast<uint8_t>(10 + i),
                std::string(static_cast<size_t>(i) * 7, 'x'));
  }
  FrameParser parser;
  parser.Feed(stream.data(), stream.size());
  uint8_t kind = 0;
  std::string payload;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(parser.Next(&kind, &payload), FrameResult::kOk);
    EXPECT_EQ(kind, 10 + i);
    EXPECT_EQ(payload.size(), static_cast<size_t>(i) * 7);
  }
  EXPECT_EQ(parser.Next(&kind, &payload), FrameResult::kNeedMore);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(FrameParserTest, EveryTruncationNeedsMoreEveryFlipCorrupts) {
  std::string frame;
  EncodeFrame(&frame, 9, "truncation sweep payload");
  // Every strict prefix is incomplete, never misparsed.
  for (size_t n = 0; n < frame.size(); ++n) {
    FrameParser parser;
    parser.Feed(frame.data(), n);
    uint8_t kind = 0;
    std::string payload;
    EXPECT_EQ(parser.Next(&kind, &payload), FrameResult::kNeedMore)
        << "prefix of " << n << " bytes";
  }
  // Any single bit flip in the checksummed region (kind + payload) is
  // caught by the CRC; corruption is sticky.
  for (size_t i = 8; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] ^= 0x10;
    FrameParser parser;
    parser.Feed(bad.data(), bad.size());
    uint8_t kind = 0;
    std::string payload;
    ASSERT_EQ(parser.Next(&kind, &payload), FrameResult::kCorrupt)
        << "flip at byte " << i;
    EXPECT_EQ(parser.Next(&kind, &payload), FrameResult::kCorrupt);
  }
}

// ---------------------------------------------------------------------------
// Message round-trips. Every decoder requires full consumption, so the
// shared harness also proves: every strict payload prefix is rejected, and
// so is one byte of trailing garbage.
// ---------------------------------------------------------------------------

template <typename Msg>
void ExpectRoundTripStable(const Msg& msg) {
  const std::string bytes = msg.Encode();
  Msg decoded;
  ASSERT_TRUE(Msg::Decode(bytes, &decoded));
  EXPECT_EQ(decoded.Encode(), bytes) << "re-encode is not byte-stable";
  for (size_t n = 0; n < bytes.size(); ++n) {
    Msg scratch;
    EXPECT_FALSE(Msg::Decode(bytes.substr(0, n), &scratch))
        << "decoded a " << n << "-byte prefix of " << bytes.size();
  }
  Msg scratch;
  EXPECT_FALSE(Msg::Decode(bytes + '\0', &scratch)) << "accepted a suffix";
}

TEST(ProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.semiring = SemiringKind::kNatural;
  msg.shard_index = 3;
  msg.num_shards = 8;
  ExpectRoundTripStable(msg);
  HelloMsg decoded;
  ASSERT_TRUE(HelloMsg::Decode(msg.Encode(), &decoded));
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.semiring, SemiringKind::kNatural);
  EXPECT_EQ(decoded.shard_index, 3u);
  EXPECT_EQ(decoded.num_shards, 8u);
}

TEST(ProtocolTest, SyncVarsRoundTrip) {
  SyncVarsMsg msg;
  msg.first_id = 42;
  msg.entries.push_back({"x42", Distribution::Bernoulli(0.25)});
  msg.entries.push_back({"x43", Distribution::Bernoulli(0.5)});
  msg.entries.push_back({"", Distribution::Bernoulli(1.0)});
  ExpectRoundTripStable(msg);
  SyncVarsMsg decoded;
  ASSERT_TRUE(SyncVarsMsg::Decode(msg.Encode(), &decoded));
  ASSERT_EQ(decoded.entries.size(), 3u);
  EXPECT_EQ(decoded.first_id, 42u);
  EXPECT_EQ(decoded.entries[0].name, "x42");
  EXPECT_EQ(decoded.entries[1].distribution.ToString(),
            Distribution::Bernoulli(0.5).ToString());
}

TEST(ProtocolTest, UpdateVarRoundTrip) {
  UpdateVarMsg msg;
  msg.var = 17;
  msg.probability = 0.125;
  ExpectRoundTripStable(msg);
}

TEST(ProtocolTest, LoadPartitionRoundTrip) {
  LoadPartitionMsg msg;
  msg.table = "items";
  msg.key_column = "item";
  msg.schema = ItemsSchema();
  msg.rows = {{Cell(std::string("hammer")), Cell(int64_t{1299})},
              {Cell(std::string("rake, green")), Cell(int64_t{-7})}};
  msg.vars = {0, 4};
  msg.global_rows = {0, 4};
  ExpectRoundTripStable(msg);
  LoadPartitionMsg decoded;
  ASSERT_TRUE(LoadPartitionMsg::Decode(msg.Encode(), &decoded));
  ASSERT_EQ(decoded.rows.size(), 2u);
  EXPECT_EQ(decoded.rows[1][0].AsString(), "rake, green");
  EXPECT_EQ(decoded.rows[1][1].AsInt(), -7);
  EXPECT_EQ(decoded.schema.NumColumns(), 2u);
}

TEST(ProtocolTest, AppendAndDeleteRowRoundTrip) {
  AppendRowMsg append;
  append.table = "items";
  append.cells = {Cell(std::string("drill")), Cell(int64_t{1450})};
  append.var = 9;
  append.global_row = 5;
  ExpectRoundTripStable(append);

  DeleteRowMsg del;
  del.table = "items";
  del.has_local_row = true;
  del.local_row = 1;
  del.global_row = 3;
  ExpectRoundTripStable(del);
  DeleteRowMsg broadcast;
  broadcast.table = "items";
  ExpectRoundTripStable(broadcast);
}

TEST(ProtocolTest, EvalChainCarriesTheQuery) {
  ParseResult parsed = ParseQuery("SELECT * FROM items WHERE price >= 1000");
  ASSERT_TRUE(parsed.ok());
  EvalChainMsg msg;
  msg.table = "items";
  msg.query = parsed.query;
  msg.want_distributions = true;
  const std::string bytes = msg.Encode();
  EvalChainMsg decoded;
  ASSERT_TRUE(EvalChainMsg::Decode(bytes, &decoded));
  ASSERT_NE(decoded.query, nullptr);
  // The query survives via its serialized form: re-encoding must agree.
  EXPECT_EQ(decoded.Encode(), bytes);
  EXPECT_EQ(decoded.table, "items");
  EXPECT_TRUE(decoded.want_distributions);
  for (size_t n = 0; n < bytes.size(); ++n) {
    EvalChainMsg scratch;
    EXPECT_FALSE(EvalChainMsg::Decode(bytes.substr(0, n), &scratch));
  }
}

TEST(ProtocolTest, TableProbsRoundTrip) {
  TableProbsMsg msg;
  msg.table = "items";
  msg.want_distributions = true;
  ExpectRoundTripStable(msg);
}

TEST(ProtocolTest, RegisterChainViewRoundTrip) {
  ParseResult parsed = ParseQuery("SELECT * FROM items WHERE price >= 500");
  ASSERT_TRUE(parsed.ok());
  RegisterChainViewMsg msg;
  msg.name = "pricey";
  msg.table = "items";
  msg.query = parsed.query;
  const std::string bytes = msg.Encode();
  RegisterChainViewMsg decoded;
  ASSERT_TRUE(RegisterChainViewMsg::Decode(bytes, &decoded));
  EXPECT_EQ(decoded.Encode(), bytes);
  EXPECT_EQ(decoded.name, "pricey");
}

TEST(ProtocolTest, NameMsgRoundTrip) {
  NameMsg msg;
  msg.name = "a view name";
  ExpectRoundTripStable(msg);
}

TEST(ProtocolTest, ChainResultRoundTrip) {
  ChainResultMsg msg;
  msg.schema = ItemsSchema();
  ChainRow row;
  row.global_row = 11;
  row.cells = {Cell(std::string("hammer")), Cell(int64_t{1299})};
  row.var = 2;
  row.probability = 0.9;
  row.distribution = Distribution::Bernoulli(0.9);
  msg.rows.push_back(row);
  ChainRow empty_dist;
  empty_dist.global_row = 12;
  empty_dist.cells = {Cell(std::string("rake")), Cell(int64_t{1799})};
  msg.rows.push_back(empty_dist);
  ExpectRoundTripStable(msg);
  ChainResultMsg decoded;
  ASSERT_TRUE(ChainResultMsg::Decode(msg.Encode(), &decoded));
  ASSERT_EQ(decoded.rows.size(), 2u);
  EXPECT_EQ(decoded.rows[0].global_row, 11u);
  EXPECT_EQ(decoded.rows[0].probability, 0.9);
  EXPECT_EQ(decoded.rows[1].distribution.ToString(),
            Distribution().ToString());
}

TEST(ProtocolTest, ProbsResultRoundTrip) {
  ProbsResultMsg msg;
  msg.rows.push_back({0, 0.25, Distribution()});
  msg.rows.push_back({3, 1.0, Distribution::Bernoulli(1.0)});
  ExpectRoundTripStable(msg);
}

TEST(ProtocolTest, ScalarRepliesRoundTrip) {
  ViewInfoMsg info;
  info.rows = 7;
  info.cache_entries = 3;
  ExpectRoundTripStable(info);

  OkMsg ok;
  ok.value = 1234567;
  ExpectRoundTripStable(ok);

  ErrorMsg error;
  error.text = "no table 'ghosts'";
  ExpectRoundTripStable(error);

  ClientReplyMsg reply;
  reply.ok = false;
  reply.text = "error: something multi-line\nsecond line\n";
  ExpectRoundTripStable(reply);
}

TEST(ProtocolTest, EvalOptionsRoundTrip) {
  EvalOptionsMsg msg;
  msg.num_threads = 8;
  ExpectRoundTripStable(msg);
  EXPECT_EQ(msg.Encode().size(), 4u);

  // Negative knob values (-1 = all cores) travel through the u32 field
  // via static_cast on both sides; the bytes must round-trip unchanged.
  EvalOptionsMsg negative;
  negative.num_threads = static_cast<uint32_t>(-1);
  ExpectRoundTripStable(negative);
  EvalOptionsMsg decoded;
  ASSERT_TRUE(EvalOptionsMsg::Decode(negative.Encode(), &decoded));
  EXPECT_EQ(static_cast<int>(decoded.num_threads), -1);

  // The 8-byte protocol-4 payload {num_threads, per-d-tree threads} is not
  // a version-5 message.
  std::string v4;
  EncodeU32(&v4, 8);
  EncodeU32(&v4, 2);
  EXPECT_FALSE(EvalOptionsMsg::Decode(v4, &decoded));
}

TEST(ProtocolTest, ReplayTailAndTailInfoRoundTrip) {
  ReplayTailMsg probe;
  probe.base_lsn = 123456789012345ull;
  ExpectRoundTripStable(probe);

  TailInfoMsg info;
  info.lsn = 42;
  info.chain = 0xdeadbeef;
  ExpectRoundTripStable(info);
}

TEST(ProtocolTest, ShipWalRoundTrip) {
  ShipWalMsg msg;
  msg.first_lsn = 7;
  WalEntry sync_vars;
  sync_vars.kind = static_cast<uint8_t>(MsgKind::kSyncVars);
  SyncVarsMsg vars;
  vars.first_id = 0;
  vars.entries.push_back({"x0", Distribution::Bernoulli(0.5)});
  sync_vars.payload = vars.Encode();
  msg.entries.push_back(sync_vars);
  WalEntry update;
  update.kind = static_cast<uint8_t>(MsgKind::kUpdateVar);
  UpdateVarMsg upd;
  upd.var = 0;
  upd.probability = 0.75;
  update.payload = upd.Encode();
  msg.entries.push_back(update);
  ExpectRoundTripStable(msg);

  ShipWalMsg decoded;
  ASSERT_TRUE(ShipWalMsg::Decode(msg.Encode(), &decoded));
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].kind,
            static_cast<uint8_t>(MsgKind::kSyncVars));
  EXPECT_EQ(decoded.entries[1].payload, upd.Encode());

  ShipWalMsg empty;
  empty.first_lsn = 0;
  ExpectRoundTripStable(empty);
}

TEST(ProtocolTest, HelloRejectsUnknownSemiring) {
  HelloMsg msg;
  std::string bytes = msg.Encode();
  bytes[4] = 0x7f;  // The semiring byte, past the u32 version.
  HelloMsg decoded;
  EXPECT_FALSE(HelloMsg::Decode(bytes, &decoded));
}

TEST(ProtocolTest, ClientReplyRejectsBadBoolByte) {
  ClientReplyMsg msg;
  msg.text = "x";
  std::string bytes = msg.Encode();
  bytes[0] = 2;  // Neither 0 nor 1.
  ClientReplyMsg decoded;
  EXPECT_FALSE(ClientReplyMsg::Decode(bytes, &decoded));
}

}  // namespace
}  // namespace pvcdb
