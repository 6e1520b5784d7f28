// WAL encoding, durability and recovery tests.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/wal.h"

namespace hedc::db {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hedc_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WalPath() const { return (dir_ / "db.wal").string(); }

  std::filesystem::path dir_;
};

TEST_F(WalTest, ValueCodecRoundTrip) {
  Row row = {Value::Null(),        Value::Int(-42),
             Value::Real(2.75),    Value::Text("fits"),
             Value::Bool(true),    Value::Blob({0, 255, 128})};
  ByteBuffer buf;
  EncodeRow(row, &buf);
  ByteReader reader(buf.data());
  Row decoded;
  ASSERT_TRUE(DecodeRow(&reader, &decoded).ok());
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(decoded[i].Compare(row[i]), 0) << "value " << i;
  }
}

TEST_F(WalTest, RecordCodecRoundTrip) {
  WalRecord rec;
  rec.op = WalOp::kInsert;
  rec.table = "hle";
  rec.row_id = 17;
  rec.row = {Value::Int(1), Value::Text("x")};
  ByteBuffer buf;
  WriteAheadLog::EncodeRecord(rec, &buf);
  ByteReader reader(buf.data());
  WalRecord decoded;
  ASSERT_TRUE(WriteAheadLog::DecodeRecord(&reader, &decoded).ok());
  EXPECT_EQ(decoded.op, WalOp::kInsert);
  EXPECT_EQ(decoded.table, "hle");
  EXPECT_EQ(decoded.row_id, 17);
  ASSERT_EQ(decoded.row.size(), 2u);
}

TEST_F(WalTest, DatabaseSurvivesRestart) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(WalPath()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE ana (ana_id INT PRIMARY KEY, "
                           "kind TEXT, quality REAL)")
                    .ok());
    ASSERT_TRUE(db.Execute("CREATE INDEX ana_by_id ON ana (ana_id)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO ana VALUES (1, 'imaging', 0.9), "
                           "(2, 'lightcurve', 0.7)")
                    .ok());
    ASSERT_TRUE(
        db.Execute("UPDATE ana SET quality = 0.95 WHERE ana_id = 1").ok());
    ASSERT_TRUE(db.Execute("DELETE FROM ana WHERE ana_id = 2").ok());
  }
  // Reopen: state must match.
  Database db2;
  ASSERT_TRUE(db2.OpenWal(WalPath()).ok());
  auto r = db2.Execute("SELECT * FROM ana");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, "ana_id").AsInt(), 1);
  EXPECT_DOUBLE_EQ(r.value().Get(0, "quality").AsReal(), 0.95);
  // Index survives and is usable.
  auto idx = db2.Execute("SELECT COUNT(*) FROM ana WHERE ana_id = 1");
  EXPECT_EQ(idx.value().rows[0][0].AsInt(), 1);
  // New inserts continue with fresh row ids (no collision).
  ASSERT_TRUE(db2.Execute("INSERT INTO ana VALUES (3, 'spectro', 0.5)").ok());
  EXPECT_EQ(db2.Execute("SELECT COUNT(*) FROM ana").value().rows[0][0].AsInt(),
            2);
}

// A failed unit (its second statement hits a duplicate key) is undone in
// memory and never reaches the log.
TEST_F(WalTest, RolledBackTransactionNotRecovered) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(WalPath()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT PRIMARY KEY)").ok());
    EXPECT_EQ(db.ExecuteAtomically({{"INSERT INTO t VALUES (1)", {}},
                                    {"INSERT INTO t VALUES (1)", {}}})
                  .code(),
              StatusCode::kAlreadyExists);
    ASSERT_TRUE(db.ExecuteAtomically({{"INSERT INTO t VALUES (2)", {}},
                                      {"INSERT INTO t VALUES (3)", {}}})
                    .ok());
  }
  std::vector<WalRecord> records;
  ASSERT_TRUE(WriteAheadLog::ReadAll(WalPath(), &records).ok());
  EXPECT_EQ(records.size(), 3u);  // CREATE TABLE + the committed unit
  Database db2;
  ASSERT_TRUE(db2.OpenWal(WalPath()).ok());
  auto r = db2.Execute("SELECT a FROM t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.value().rows[1][0].AsInt(), 3);
}

TEST_F(WalTest, TornTailIsTolerated) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(WalPath()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  }
  // Append garbage simulating a torn write.
  {
    std::FILE* f = std::fopen(WalPath().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = {0x12, 0x34, 0x56};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  {
    Database db2;
    ASSERT_TRUE(db2.OpenWal(WalPath()).ok());
    auto r = db2.Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().rows[0][0].AsInt(), 1);
    // Reopening cut the torn tail, so this unit is not appended behind
    // the garbage (where the next recovery would drop it).
    ASSERT_TRUE(db2.Execute("INSERT INTO t VALUES (2)").ok());
  }
  Database db3;
  ASSERT_TRUE(db3.OpenWal(WalPath()).ok());
  EXPECT_EQ(db3.Execute("SELECT COUNT(*) FROM t").value().rows[0][0].AsInt(),
            2);
}

TEST_F(WalTest, MidFileCorruptionDetected) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(WalPath()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
    }
  }
  // Flip a byte inside the *payload* of the second frame (a corrupted
  // frame header instead would be indistinguishable from a torn tail and
  // is treated as end-of-log).
  {
    std::FILE* f = std::fopen(WalPath().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // Frame layout: u32 crc, u32 len, payload[len].
    unsigned char header[8];
    ASSERT_EQ(std::fread(header, 1, 8, f), 8u);
    uint32_t len1 = static_cast<uint32_t>(header[4]) |
                    static_cast<uint32_t>(header[5]) << 8 |
                    static_cast<uint32_t>(header[6]) << 16 |
                    static_cast<uint32_t>(header[7]) << 24;
    long second_payload = 8 + static_cast<long>(len1) + 8 + 1;
    std::fseek(f, second_payload, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, second_payload, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  std::vector<WalRecord> records;
  Status s = WriteAheadLog::ReadAll(WalPath(), &records);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(WalTest, ConcurrentAppendsAllDurableStress) {
  // Raw WAL-level group commit: concurrent Append()ers all come back
  // durable, and the file holds exactly the records appended.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(WalPath()).ok());
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&wal, w] {
        for (int i = 1; i <= kPerThread; ++i) {
          WalRecord rec;
          rec.op = WalOp::kInsert;
          rec.table = "t" + std::to_string(w);
          rec.row_id = i;
          rec.row = {Value::Int(i)};
          ASSERT_TRUE(wal.Append(rec).ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wal.Close();
  }
  std::vector<WalRecord> records;
  ASSERT_TRUE(WriteAheadLog::ReadAll(WalPath(), &records).ok());
  EXPECT_EQ(records.size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(WalTest, AppendBatchIsOneUnitAndTornBatchTailTolerated) {
  // A unit is one frame: truncating the log anywhere inside a unit loses
  // that whole unit and nothing before it.
  auto make = [](int64_t row_id) {
    WalRecord rec;
    rec.op = WalOp::kInsert;
    rec.table = "b";
    rec.row_id = row_id;
    rec.row = {Value::Int(row_id)};
    return rec;
  };
  uint64_t first_end = 0;
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(WalPath()).ok());
    ASSERT_TRUE(wal.AppendBatch({make(1)}).ok());
    wal.Close();
    first_end = std::filesystem::file_size(WalPath());
    ASSERT_TRUE(wal.Open(WalPath()).ok());
    ASSERT_TRUE(wal.AppendBatch({make(2), make(3), make(4)}).ok());
    wal.Close();
  }
  const uint64_t size = std::filesystem::file_size(WalPath());
  std::vector<WalRecord> records;
  uint64_t valid = 0;
  ASSERT_TRUE(WriteAheadLog::ReadAll(WalPath(), &records, &valid).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(valid, size);

  const std::string full = (dir_ / "full.wal").string();
  std::filesystem::copy_file(WalPath(), full);
  for (uint64_t cut = first_end; cut < size; ++cut) {
    std::filesystem::copy_file(
        full, WalPath(), std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(WalPath(), cut);
    records.clear();
    Status s = WriteAheadLog::ReadAll(WalPath(), &records, &valid);
    ASSERT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
    ASSERT_EQ(records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(records[0].row_id, 1);
    EXPECT_EQ(valid, first_end);
  }
  // A lone first unit torn anywhere reads as an empty log, so a database
  // that died during its first append can reopen.
  for (uint64_t cut = 0; cut < first_end; ++cut) {
    std::filesystem::copy_file(
        full, WalPath(), std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(WalPath(), cut);
    records.clear();
    Status s = WriteAheadLog::ReadAll(WalPath(), &records, &valid);
    ASSERT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
    EXPECT_TRUE(records.empty()) << "cut at " << cut;
    EXPECT_EQ(valid, 0u);
  }
  Database db;
  EXPECT_TRUE(db.OpenWal(WalPath()).ok());
}

// The WAL's write error reaches the writer: with the log's file at the
// process's file-size limit, a mutation fails and is undone, the error
// is sticky, DDL reports it too, and reads keep working.
TEST_F(WalTest, WalWriteFailureFailsTheWrite) {
  Database db;
  ASSERT_TRUE(db.OpenWal(WalPath()).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());

  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(std::filesystem::file_size(WalPath()));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);

  Result<ResultSet> first = db.Execute("INSERT INTO t VALUES (2)");
  Result<ResultSet> second = db.Execute("INSERT INTO t VALUES (3)");
  Result<ResultSet> read = db.Execute("SELECT COUNT(*) FROM t");
  Result<ResultSet> ddl = db.Execute("CREATE TABLE u (a INT)");

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(second.ok());  // sticky
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().rows[0][0].AsInt(), 1);  // row 2 is not visible
  EXPECT_FALSE(ddl.ok());
  EXPECT_TRUE(db.Execute("SELECT * FROM u").status().IsNotFound());
  EXPECT_EQ(db.Execute("SELECT COUNT(*) FROM t WHERE a = 2")
                .value().rows[0][0].AsInt(), 0);

  Database recovered;
  ASSERT_TRUE(recovered.OpenWal(WalPath()).ok());
  EXPECT_EQ(
      recovered.Execute("SELECT COUNT(*) FROM t").value().rows[0][0].AsInt(),
      1);
}

TEST_F(WalTest, DropTableRecovered) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(WalPath()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
    ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
  }
  Database db2;
  ASSERT_TRUE(db2.OpenWal(WalPath()).ok());
  EXPECT_TRUE(db2.Execute("SELECT * FROM t").status().IsNotFound());
}

}  // namespace
}  // namespace hedc::db
