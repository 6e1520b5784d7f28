// Redo log ("database redo logs ... stored on the A1000 with tape backup",
// §2.3). Append-only file of CRC-framed durable units; recovery replays
// them into an empty Database.
//
// One frame per durable unit: [u32 crc][u32 len][payload], where the
// payload is a record count followed by the records. A unit is Database's
// atomic write unit (one statement, or the statements of one
// ExecuteAtomically call), so a crash that tears a unit loses all of it:
// recovery returns whole units only.
//
// Durability is group-committed: concurrent appenders enqueue encoded
// frames and one of them (the leader) drains the queue with a single
// buffered write + fflush + fsync, then wakes the followers. Append()
// returns only once the unit is durable, or with the log's I/O error.
// Errors are sticky: once the log fails, every later append fails with
// the same status, and the failed group's bytes are cut from the file.
#ifndef HEDC_DB_WAL_H_
#define HEDC_DB_WAL_H_

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "core/bytes.h"
#include "core/status.h"
#include "db/schema.h"
#include "db/table.h"
#include "db/value.h"

namespace hedc::db {

enum class WalOp : uint8_t {
  kCreateTable = 1,
  kCreateIndex = 2,
  kDropTable = 3,
  kInsert = 4,
  kUpdate = 5,
  kDelete = 6,
};

struct WalRecord {
  WalOp op;
  std::string table;
  int64_t row_id = 0;
  Row row;               // insert/update payload
  Schema schema;         // create table
  std::string index_name;  // create index
  std::string column;      // create index
  bool hash_index = false;
};

// Value <-> bytes codec shared by the WAL and tests.
void EncodeValue(const Value& v, ByteBuffer* out);
Status DecodeValue(ByteReader* in, Value* out);
void EncodeRow(const Row& row, ByteBuffer* out);
Status DecodeRow(ByteReader* in, Row* out);

class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Opens (creating or appending) the log file at `path`.
  Status Open(const std::string& path);
  // Waits for in-flight appends to drain, then closes the file.
  void Close();

  // Appends one record as a unit of one; returns once it is durable
  // (fsync'ed).
  [[nodiscard]] Status Append(const WalRecord& record);

  // Appends `records` as one durable unit (one frame): recovery sees all
  // of them or none.
  [[nodiscard]] Status AppendBatch(const std::vector<WalRecord>& records);

  // Reads the records of every whole unit in `path`. Stops cleanly at a
  // torn trailing unit (partial write; a torn first unit reads as an
  // empty log) but fails on mid-file corruption. `valid_bytes`, if
  // non-null, receives the length of the whole-unit prefix.
  static Status ReadAll(const std::string& path, std::vector<WalRecord>* out,
                        uint64_t* valid_bytes = nullptr);

  static void EncodeRecord(const WalRecord& record, ByteBuffer* out);
  static Status DecodeRecord(ByteReader* in, WalRecord* out);

 private:
  // One enqueued durable unit: `bytes` holds its frame.
  struct PendingUnit {
    std::string bytes;
    size_t records = 0;
  };

  // Appenders enqueue at most kMaxQueuedUnits units; beyond that they
  // block until the leader drains (bounded memory under write bursts).
  static constexpr size_t kMaxQueuedUnits = 256;

  Status EnqueueAndWait(std::string bytes, size_t records);
  // Called with mu_ held and leader_active_ set; writes `batch` to disk,
  // fsyncs, and returns the I/O status (cutting the batch from the file
  // on failure). Drops mu_ for the I/O.
  Status WriteBatch(std::unique_lock<std::mutex>* lock,
                    std::vector<PendingUnit> batch);

  std::FILE* file_ = nullptr;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingUnit> queue_;
  uint64_t enqueued_units_ = 0;
  uint64_t durable_units_ = 0;
  bool leader_active_ = false;
  Status io_error_;  // sticky: once the log fails, every append fails
};

}  // namespace hedc::db

#endif  // HEDC_DB_WAL_H_
