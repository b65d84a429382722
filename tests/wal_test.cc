// Unit tests for the durability building blocks: the little-endian codec,
// CRC32C, query/predicate/cell serialization, WAL append + scan + torn-tail
// truncation, snapshot encode/decode, and the DurableSession generation
// protocol (create / recover / checkpoint / reshard) against the real file
// system in a per-test temp directory.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "src/engine/snapshot.h"
#include "src/engine/wal.h"
#include "src/query/serialize.h"
#include "src/table/cell.h"
#include "src/util/check.h"
#include "src/util/codec.h"
#include "src/util/crc32c.h"
#include "src/util/io.h"

namespace pvcdb {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = JoinPath(::testing::TempDir(), "pvcdb_wal_test_" + name);
  // Start from scratch even when a previous run left debris behind.
  FileSystem* fs = DefaultFileSystem();
  for (const std::string& file : fs->ListDir(dir)) {
    std::string error;
    fs->Remove(JoinPath(dir, file), &error);
  }
  return dir;
}

TEST(CodecTest, RoundTripsEveryType) {
  std::string buffer;
  EncodeU8(&buffer, 0xAB);
  EncodeU32(&buffer, 0xDEADBEEF);
  EncodeU64(&buffer, 0x0123456789ABCDEFull);
  EncodeI64(&buffer, -42);
  EncodeDouble(&buffer, 0.1);  // Not exactly representable: bit identity.
  EncodeString(&buffer, "hello");
  EncodeString(&buffer, "");

  ByteReader reader(buffer);
  EXPECT_EQ(reader.ReadU8(), 0xAB);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.ReadI64(), -42);
  EXPECT_EQ(reader.ReadDouble(), 0.1);
  EXPECT_EQ(reader.ReadString(), "hello");
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, LittleEndianOnTheWire) {
  std::string buffer;
  EncodeU32(&buffer, 0x01020304);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buffer[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(buffer[3]), 0x01);
}

TEST(CodecTest, ReaderFailureIsSticky) {
  std::string buffer;
  EncodeU8(&buffer, 7);
  ByteReader reader(buffer);
  EXPECT_EQ(reader.ReadU8(), 7);
  EXPECT_EQ(reader.ReadU32(), 0u);  // Past the end.
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadU8(), 0);  // Still failed.
  EXPECT_FALSE(reader.ok());
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string order;
  for (int i = 0; i < 32; ++i) order.push_back(static_cast<char>(i));
  EXPECT_EQ(Crc32c(order.data(), order.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ExtendComposes) {
  std::string data = "the quick brown fox";
  uint32_t whole = Crc32c(data);
  uint32_t split = Crc32cExtend(Crc32cExtend(0, data.data(), 7),
                                data.data() + 7, data.size() - 7);
  EXPECT_EQ(whole, split);
}

TEST(SerializeTest, CellRoundTrip) {
  std::vector<Cell> cells = {Cell(), Cell(static_cast<int64_t>(-5)),
                             Cell(3.25), Cell(std::string("abc"))};
  std::string buffer;
  for (const Cell& c : cells) EncodeCell(&buffer, c);
  ByteReader reader(buffer);
  for (const Cell& c : cells) {
    Cell decoded = DecodeCell(&reader);
    EXPECT_TRUE(decoded == c);
  }
  EXPECT_TRUE(reader.ok());
}

TEST(SerializeTest, QueryRoundTrip) {
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kLe, Operand::Col("lv"), Operand::Col("rv")});
  QueryPtr join = Query::Select(
      Query::Product(Query::Scan("L"), Query::Scan("R")), pred);
  QueryPtr agg = Query::GroupAgg(
      Query::Rename(Query::Project(Query::Scan("T"), {"g", "v"}), "g", "g2"),
      {"g2"}, {{AggKind::kCount, "", "n"}, {AggKind::kSum, "v", "total"}});
  // Every query-level monoid, PROD (the last tag) included.
  QueryPtr all_kinds = Query::GroupAgg(
      Query::Scan("T"), {"g"},
      {{AggKind::kMin, "v", "lo"},
       {AggKind::kMax, "v", "hi"},
       {AggKind::kProd, "v", "p"}});
  QueryPtr uni = Query::Union(
      Query::Select(Query::Scan("T"),
                    Predicate::ColCmpInt("v", CmpOp::kGe, 30)),
      Query::Scan("T"));

  for (const QueryPtr& q : {join, agg, all_kinds, uni}) {
    std::string buffer;
    EncodeQuery(&buffer, *q);
    ByteReader reader(buffer);
    QueryPtr decoded = DecodeQuery(&reader);
    ASSERT_TRUE(reader.ok());
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->ToString(), q->ToString());
  }
}

TEST(SerializeTest, MalformedQueryFailsCleanly) {
  std::string buffer;
  EncodeU8(&buffer, 0xEE);  // Not a QueryOp tag.
  ByteReader reader(buffer);
  QueryPtr decoded = DecodeQuery(&reader);
  EXPECT_EQ(decoded, nullptr);
  EXPECT_FALSE(reader.ok());

  // The presence-lifted monoids are step II internals: a query naming one
  // is rejected like any other unknown aggregation tag.
  for (AggKind lifted : {AggKind::kSumLifted, AggKind::kProdLifted}) {
    std::string agg_buffer;
    EncodeQuery(&agg_buffer, *Query::GroupAgg(Query::Scan("T"), {"g"},
                                              {{lifted, "v", "x"}}));
    ByteReader agg_reader(agg_buffer);
    EXPECT_EQ(DecodeQuery(&agg_reader), nullptr);
    EXPECT_FALSE(agg_reader.ok());
  }
}

WalRecord SampleRecord(int salt) {
  WalRecord record;
  record.ops.push_back(WalOp::RegisterVariable(
      "v" + std::to_string(salt), Distribution::Bernoulli(0.25 + salt * 0.1)));
  record.ops.push_back(WalOp::InsertRow(
      "T", {Cell(static_cast<int64_t>(salt)), Cell(std::string("row"))},
      static_cast<VarId>(salt)));
  return record;
}

void ExpectSameOps(const std::vector<WalOp>& a, const std::vector<WalOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "op " << i;
    EXPECT_EQ(a[i].name, b[i].name) << "op " << i;
    EXPECT_EQ(a[i].var, b[i].var) << "op " << i;
  }
}

TEST(WalTest, AppendThenReadRoundTrips) {
  std::string dir = TestDir("roundtrip");
  FileSystem* fs = DefaultFileSystem();
  std::string error;
  ASSERT_TRUE(fs->CreateDir(dir, &error)) << error;
  std::string path = JoinPath(dir, "wal-00000000.log");
  fs->Remove(path, &error);

  std::vector<WalRecord> written;
  {
    std::unique_ptr<WalWriter> wal =
        WalWriter::Open(fs, path, 0, 0, /*sync=*/false, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (int i = 0; i < 5; ++i) {
      written.push_back(SampleRecord(i));
      ASSERT_TRUE(wal->Append(written.back()));
    }
    EXPECT_EQ(wal->records(), 5u);
  }

  WalReadResult result = ReadWal(fs, path);
  EXPECT_TRUE(result.file_exists);
  EXPECT_TRUE(result.magic_valid);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    ExpectSameOps(result.records[i].ops, written[i].ops);
  }
  EXPECT_EQ(result.valid_bytes, result.file_bytes);
}

TEST(WalTest, TornTailIsDetectedAtEveryCut) {
  std::string dir = TestDir("torn");
  FileSystem* fs = DefaultFileSystem();
  std::string error;
  ASSERT_TRUE(fs->CreateDir(dir, &error)) << error;
  std::string path = JoinPath(dir, "wal-torn.log");

  // Write 3 records, remember the clean boundaries.
  std::vector<uint64_t> boundaries;
  {
    fs->Remove(path, &error);
    std::unique_ptr<WalWriter> wal =
        WalWriter::Open(fs, path, 0, 0, false, &error);
    ASSERT_NE(wal, nullptr) << error;
    boundaries.push_back(wal->bytes());  // After the magic.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal->Append(SampleRecord(i)));
      boundaries.push_back(wal->bytes());
    }
  }
  std::string full;
  ASSERT_TRUE(fs->ReadFile(path, &full, &error)) << error;

  // Truncating at *any* byte length must recover the longest whole-record
  // prefix -- never a partial record, never a crash.
  for (uint64_t cut = 0; cut <= full.size(); ++cut) {
    ASSERT_TRUE(fs->Truncate(path, full.size(), &error)) << error;
    // Rewrite the full image then cut (Truncate can only shrink).
    fs->Remove(path, &error);
    {
      std::unique_ptr<WritableFile> f = fs->OpenForAppend(path, &error);
      ASSERT_NE(f, nullptr) << error;
      ASSERT_TRUE(f->Append(full.data(), cut));
      ASSERT_TRUE(f->Close());
    }
    WalReadResult result = ReadWal(fs, path);
    // The valid prefix is the largest clean boundary <= cut.
    uint64_t expect_bytes = 0;
    size_t expect_records = 0;
    if (cut >= boundaries[0]) {
      expect_bytes = boundaries[0];
      for (size_t i = 1; i < boundaries.size(); ++i) {
        if (boundaries[i] <= cut) {
          expect_bytes = boundaries[i];
          expect_records = i;
        }
      }
    }
    EXPECT_EQ(result.valid_bytes, expect_bytes) << "cut=" << cut;
    EXPECT_EQ(result.records.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(result.torn_tail, cut > expect_bytes) << "cut=" << cut;
  }
}

TEST(WalTest, CorruptPayloadStopsTheScan) {
  std::string dir = TestDir("corrupt");
  FileSystem* fs = DefaultFileSystem();
  std::string error;
  ASSERT_TRUE(fs->CreateDir(dir, &error)) << error;
  std::string path = JoinPath(dir, "wal-corrupt.log");
  fs->Remove(path, &error);

  uint64_t first_boundary = 0;
  {
    std::unique_ptr<WalWriter> wal =
        WalWriter::Open(fs, path, 0, 0, false, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->Append(SampleRecord(0)));
    first_boundary = wal->bytes();
    ASSERT_TRUE(wal->Append(SampleRecord(1)));
  }
  std::string image;
  ASSERT_TRUE(fs->ReadFile(path, &image, &error)) << error;
  // Flip one payload byte of the second record: its CRC must reject it.
  image[first_boundary + 9] = static_cast<char>(image[first_boundary + 9] ^ 0x40);
  fs->Remove(path, &error);
  {
    std::unique_ptr<WritableFile> f = fs->OpenForAppend(path, &error);
    ASSERT_NE(f, nullptr) << error;
    ASSERT_TRUE(f->Append(image.data(), image.size()));
    ASSERT_TRUE(f->Close());
  }

  WalReadResult result = ReadWal(fs, path);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.valid_bytes, first_boundary);
  EXPECT_TRUE(result.torn_tail);
}

Schema ItemsSchema() {
  return Schema({{"id", CellType::kInt},
                 {"name", CellType::kString},
                 {"price", CellType::kDouble}});
}

std::unique_ptr<Database> SampleDb() {
  auto db = std::make_unique<Database>();
  db->AddTupleIndependentTable(
      "items", ItemsSchema(),
      {{Cell(static_cast<int64_t>(1)), Cell(std::string("hammer")),
        Cell(12.5)},
       {Cell(static_cast<int64_t>(2)), Cell(std::string("drill")),
        Cell(99.0)},
       {Cell(static_cast<int64_t>(3)), Cell(std::string("saw")), Cell(45.0)}},
      {0.9, 0.5, 0.75});
  db->RegisterView("cheap",
                   Query::Select(Query::Scan("items"),
                                 Predicate::ColCmpInt("id", CmpOp::kLe, 2)));
  return db;
}

TEST(SnapshotTest, EncodeDecodeRoundTrips) {
  std::unique_ptr<Database> db = SampleDb();
  EngineState state = CaptureState(*db);
  std::string image = EncodeSnapshot(state);

  EngineState decoded;
  ASSERT_TRUE(DecodeSnapshot(image, &decoded));
  EXPECT_EQ(decoded.num_shards, 0u);
  EXPECT_EQ(decoded.semiring, state.semiring);
  ASSERT_EQ(decoded.ops.size(), state.ops.size());

  // Rebuilding from the decoded state reproduces the engine bit for bit.
  Database rebuilt;
  for (const WalOp& op : decoded.ops) ApplyWalOp(op, &rebuilt, nullptr);
  std::vector<double> expected = db->TupleProbabilities(db->table("items"));
  std::vector<double> actual =
      rebuilt.TupleProbabilities(rebuilt.table("items"));
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]);
  }
  EXPECT_EQ(rebuilt.ViewProbabilities("cheap"), db->ViewProbabilities("cheap"));
}

TEST(SnapshotTest, TornOrCorruptImagesAreRejected) {
  EngineState state = CaptureState(*SampleDb());
  std::string image = EncodeSnapshot(state);
  EngineState out;
  EXPECT_TRUE(DecodeSnapshot(image, &out));
  // Torn at every length.
  for (size_t cut = 0; cut < image.size(); ++cut) {
    EXPECT_FALSE(DecodeSnapshot(image.substr(0, cut), &out)) << cut;
  }
  // One flipped body byte.
  std::string corrupt = image;
  corrupt[image.size() - 1] = static_cast<char>(corrupt[image.size() - 1] ^ 1);
  EXPECT_FALSE(DecodeSnapshot(corrupt, &out));
  // Trailing garbage.
  EXPECT_FALSE(DecodeSnapshot(image + "x", &out));
}

TEST(DurableSessionTest, CreateMutateRecover) {
  DurableConfig config;
  config.dir = TestDir("create_recover");
  std::string error;
  {
    std::unique_ptr<DurableSession> session =
        DurableSession::Create(config, CaptureState(*SampleDb()), &error);
    ASSERT_NE(session, nullptr) << error;
    ASSERT_FALSE(session->is_sharded());
    session->db()->InsertTuple(
        "items",
        {Cell(static_cast<int64_t>(4)), Cell(std::string("wrench")),
         Cell(30.0)},
        0.6);
    session->db()->UpdateProbability(0, 0.42);
    EXPECT_EQ(session->stats().wal_records, 2u);
  }

  std::unique_ptr<DurableSession> recovered =
      DurableSession::Recover(config, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_TRUE(recovered->stats().recovered);
  EXPECT_EQ(recovered->stats().replayed_records, 2u);
  EXPECT_FALSE(recovered->stats().tail_truncated);

  // The never-crashed twin: the same logical history applied in-memory.
  std::unique_ptr<Database> twin = SampleDb();
  twin->InsertTuple("items",
                    {Cell(static_cast<int64_t>(4)),
                     Cell(std::string("wrench")), Cell(30.0)},
                    0.6);
  twin->UpdateProbability(0, 0.42);
  Database* db = recovered->db();
  EXPECT_EQ(db->TupleProbabilities(db->table("items")),
            twin->TupleProbabilities(twin->table("items")));
  EXPECT_EQ(db->ViewProbabilities("cheap"), twin->ViewProbabilities("cheap"));
}

TEST(DurableSessionTest, CheckpointRotatesGenerations) {
  DurableConfig config;
  config.dir = TestDir("checkpoint");
  std::string error;
  std::unique_ptr<DurableSession> session =
      DurableSession::Create(config, CaptureState(*SampleDb()), &error);
  ASSERT_NE(session, nullptr) << error;
  session->db()->UpdateProbability(1, 0.1);
  ASSERT_TRUE(session->Checkpoint(&error)) << error;
  EXPECT_EQ(session->stats().generation, 1u);
  EXPECT_EQ(session->stats().wal_records, 0u);
  // Generation 0's files are gone; generation 1 recovers the state.
  FileSystem* fs = DefaultFileSystem();
  EXPECT_FALSE(fs->FileExists(JoinPath(config.dir, "snapshot-00000000")));
  session->db()->UpdateProbability(2, 0.2);
  session.reset();

  std::unique_ptr<DurableSession> recovered =
      DurableSession::Recover(config, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_EQ(recovered->stats().generation, 1u);
  EXPECT_EQ(recovered->stats().replayed_records, 1u);
  EXPECT_EQ(recovered->db()->variables().DistributionOf(1).entries()[1].second,
            0.1);
}

TEST(DurableSessionTest, ReshardSurvivesRecovery) {
  DurableConfig config;
  config.dir = TestDir("reshard");
  std::string error;
  std::unique_ptr<DurableSession> session =
      DurableSession::Create(config, CaptureState(*SampleDb()), &error);
  ASSERT_NE(session, nullptr) << error;
  ASSERT_TRUE(session->Reshard(4, &error)) << error;
  ASSERT_TRUE(session->is_sharded());
  ASSERT_EQ(session->sharded()->num_shards(), 4u);
  session->sharded()->InsertTuple(
      "items",
      {Cell(static_cast<int64_t>(9)), Cell(std::string("vise")), Cell(55.0)},
      0.3);
  std::vector<double> live =
      session->sharded()->TupleProbabilities(std::string("items"));
  session.reset();

  std::unique_ptr<DurableSession> recovered =
      DurableSession::Recover(config, &error);
  ASSERT_NE(recovered, nullptr) << error;
  ASSERT_TRUE(recovered->is_sharded());
  EXPECT_EQ(recovered->sharded()->num_shards(), 4u);
  EXPECT_EQ(recovered->sharded()->TupleProbabilities(std::string("items")),
            live);
  // And back to a single database.
  ASSERT_TRUE(recovered->Reshard(0, &error)) << error;
  ASSERT_FALSE(recovered->is_sharded());
  EXPECT_EQ(recovered->db()->TupleProbabilities(
                recovered->db()->table("items")),
            live);
}

TEST(DurableSessionTest, CreateRefusesExistingState) {
  DurableConfig config;
  config.dir = TestDir("refuse");
  std::string error;
  std::unique_ptr<DurableSession> first =
      DurableSession::Create(config, CaptureState(*SampleDb()), &error);
  ASSERT_NE(first, nullptr) << error;
  first.reset();
  EXPECT_TRUE(DurableSession::HasState(DefaultFileSystem(), config.dir));
  std::unique_ptr<DurableSession> second =
      DurableSession::Create(config, CaptureState(*SampleDb()), &error);
  EXPECT_EQ(second, nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pvcdb
