// Snapshot + checkpoint + recovery tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "db/checkpoint.h"
#include "db/wal.h"

namespace hedc::db {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hedc_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Snapshot() const { return (dir_ / "db.snapshot").string(); }
  std::string Wal() const { return (dir_ / "db.wal").string(); }

  void Populate(Database* db, int rows) {
    ASSERT_TRUE(db->Execute("CREATE TABLE hle (hle_id INT PRIMARY KEY, "
                            "t_start REAL, label TEXT)")
                    .ok());
    ASSERT_TRUE(
        db->Execute("CREATE INDEX hle_by_id ON hle (hle_id) USING HASH")
            .ok());
    ASSERT_TRUE(db->Execute("CREATE INDEX hle_by_t ON hle (t_start)").ok());
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO hle VALUES (?, ?, ?)",
                              {Value::Int(i), Value::Real(i * 1.5),
                               Value::Text("e" + std::to_string(i))})
                      .ok());
    }
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SnapshotRoundTrip) {
  Database db;
  Populate(&db, 50);
  ASSERT_TRUE(WriteSnapshot(&db, Snapshot()).ok());

  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, Snapshot()).ok());
  auto count = restored.Execute("SELECT COUNT(*) FROM hle");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().rows[0][0].AsInt(), 50);
  // Indexes restored and functional.
  int64_t scans = restored.stats().full_scans.load();
  auto point = restored.Execute("SELECT label FROM hle WHERE hle_id = 7");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point.value().rows[0][0].AsText(), "e7");
  EXPECT_EQ(restored.stats().full_scans.load(), scans);
  // Primary key still enforced after restore.
  EXPECT_FALSE(restored.Execute("INSERT INTO hle VALUES (7, 0, 'dup')")
                   .ok());
}

TEST_F(CheckpointTest, CheckpointTruncatesWalAndRecovers) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(Wal()).ok());
    Populate(&db, 30);
    ASSERT_TRUE(Checkpoint(&db, Snapshot(), Wal()).ok());
    // Post-checkpoint mutations land in the (fresh) WAL tail.
    ASSERT_TRUE(
        db.Execute("INSERT INTO hle VALUES (100, 5, 'tail')").ok());
    ASSERT_TRUE(
        db.Execute("DELETE FROM hle WHERE hle_id = 0").ok());
  }
  // WAL only contains the tail (2 records).
  std::vector<WalRecord> records;
  ASSERT_TRUE(WriteAheadLog::ReadAll(Wal(), &records).ok());
  EXPECT_EQ(records.size(), 2u);

  Database recovered;
  ASSERT_TRUE(OpenWithCheckpoint(&recovered, Snapshot(), Wal()).ok());
  auto count = recovered.Execute("SELECT COUNT(*) FROM hle");
  EXPECT_EQ(count.value().rows[0][0].AsInt(), 30);  // 30 - 1 + 1
  EXPECT_EQ(recovered.Execute("SELECT COUNT(*) FROM hle WHERE hle_id = 100")
                .value().rows[0][0].AsInt(), 1);
  EXPECT_EQ(recovered.Execute("SELECT COUNT(*) FROM hle WHERE hle_id = 0")
                .value().rows[0][0].AsInt(), 0);
}

TEST_F(CheckpointTest, OpenWithoutSnapshotFallsBackToWal) {
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(Wal()).ok());
    Populate(&db, 5);
  }
  Database recovered;
  ASSERT_TRUE(OpenWithCheckpoint(&recovered, Snapshot(), Wal()).ok());
  EXPECT_EQ(recovered.Execute("SELECT COUNT(*) FROM hle")
                .value().rows[0][0].AsInt(), 5);
}

TEST_F(CheckpointTest, CorruptSnapshotDetected) {
  Database db;
  Populate(&db, 10);
  ASSERT_TRUE(WriteSnapshot(&db, Snapshot()).ok());
  {
    std::FILE* f = std::fopen(Snapshot().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  Database restored;
  EXPECT_EQ(LoadSnapshot(&restored, Snapshot()).code(),
            StatusCode::kCorruption);
}

TEST_F(CheckpointTest, ResetWalRequiresOpenWal) {
  Database db;
  EXPECT_EQ(db.ResetWal(Wal()).code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, BlobAndNullValuesSurviveSnapshot) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b BLOB, c TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (?, ?, NULL)",
                         {Value::Int(1),
                          Value::Blob({0, 1, 2, 255})})
                  .ok());
  ASSERT_TRUE(WriteSnapshot(&db, Snapshot()).ok());
  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, Snapshot()).ok());
  auto rs = restored.Execute("SELECT * FROM t");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().rows[0][1].blob(),
            (std::vector<uint8_t>{0, 1, 2, 255}));
  EXPECT_TRUE(rs.value().rows[0][2].is_null());
}

}  // namespace
}  // namespace hedc::db
