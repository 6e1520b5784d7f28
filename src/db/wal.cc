#include "db/wal.h"

#include <unistd.h>

#include <span>

#include "core/crc32.h"
#include "core/metrics.h"
#include "core/strings.h"

namespace hedc::db {

namespace {

struct WalMetrics {
  Counter* fsyncs;        // real fsync(2) calls, one per commit group
  Counter* append_bytes;
  Histogram* fsync_us;    // write+fflush+fsync latency per group
  Histogram* group_size;  // records made durable per fsync
};

const WalMetrics& Metrics() {
  static const WalMetrics kMetrics = [] {
    MetricsRegistry* registry = MetricsRegistry::Default();
    return WalMetrics{
        registry->GetCounter("wal.fsyncs"),
        registry->GetCounter("wal.append_bytes"),
        registry->GetHistogram("wal.fsync_us"),
        registry->GetHistogram("wal.group_size",
                               {1, 2, 4, 8, 16, 32, 64, 128, 256})};
  }();
  return kMetrics;
}

}  // namespace

void EncodeValue(const Value& v, ByteBuffer* out) {
  out->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      out->PutSignedVarint(v.AsInt());
      break;
    case ValueType::kReal:
      out->PutF64(v.AsReal());
      break;
    case ValueType::kText:
      out->PutString(v.text());
      break;
    case ValueType::kBool:
      out->PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kBlob:
      out->PutVarint(v.blob().size());
      out->PutBytes(v.blob().data(), v.blob().size());
      break;
  }
}

Status DecodeValue(ByteReader* in, Value* out) {
  uint8_t tag;
  HEDC_RETURN_IF_ERROR(in->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::Ok();
    case ValueType::kInt: {
      int64_t v;
      HEDC_RETURN_IF_ERROR(in->GetSignedVarint(&v));
      *out = Value::Int(v);
      return Status::Ok();
    }
    case ValueType::kReal: {
      double v;
      HEDC_RETURN_IF_ERROR(in->GetF64(&v));
      *out = Value::Real(v);
      return Status::Ok();
    }
    case ValueType::kText: {
      std::string s;
      HEDC_RETURN_IF_ERROR(in->GetString(&s));
      *out = Value::Text(std::move(s));
      return Status::Ok();
    }
    case ValueType::kBool: {
      uint8_t b;
      HEDC_RETURN_IF_ERROR(in->GetU8(&b));
      *out = Value::Bool(b != 0);
      return Status::Ok();
    }
    case ValueType::kBlob: {
      uint64_t n;
      HEDC_RETURN_IF_ERROR(in->GetVarint(&n));
      if (n > in->remaining()) {
        return Status::Corruption("blob length past end of input");
      }
      std::vector<uint8_t> bytes(n);
      HEDC_RETURN_IF_ERROR(in->GetBytes(bytes.data(), n));
      *out = Value::Blob(std::move(bytes));
      return Status::Ok();
    }
  }
  return Status::Corruption(StrFormat("bad value tag %u", tag));
}

void EncodeRow(const Row& row, ByteBuffer* out) {
  out->PutVarint(row.size());
  for (const Value& v : row) EncodeValue(v, out);
}

Status DecodeRow(ByteReader* in, Row* out) {
  uint64_t n;
  HEDC_RETURN_IF_ERROR(in->GetVarint(&n));
  // Every value costs at least its tag byte, so a count beyond the
  // remaining input is corrupt; checking before reserve() keeps hostile
  // counts from forcing a huge allocation.
  if (n > in->remaining()) {
    return Status::Corruption("row value count past end of input");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    HEDC_RETURN_IF_ERROR(DecodeValue(in, &v));
    out->push_back(std::move(v));
  }
  return Status::Ok();
}

namespace {

void EncodeSchema(const Schema& schema, ByteBuffer* out) {
  out->PutVarint(schema.num_columns());
  for (const ColumnDef& col : schema.columns()) {
    out->PutString(col.name);
    out->PutU8(static_cast<uint8_t>(col.type));
    out->PutU8((col.not_null ? 1 : 0) | (col.primary_key ? 2 : 0));
  }
}

Status DecodeSchema(ByteReader* in, Schema* out) {
  uint64_t n;
  HEDC_RETURN_IF_ERROR(in->GetVarint(&n));
  if (n > in->remaining()) {
    return Status::Corruption("column count past end of input");
  }
  std::vector<ColumnDef> cols;
  cols.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ColumnDef col;
    HEDC_RETURN_IF_ERROR(in->GetString(&col.name));
    uint8_t type;
    HEDC_RETURN_IF_ERROR(in->GetU8(&type));
    col.type = static_cast<ValueType>(type);
    uint8_t flags;
    HEDC_RETURN_IF_ERROR(in->GetU8(&flags));
    col.not_null = (flags & 1) != 0;
    col.primary_key = (flags & 2) != 0;
    cols.push_back(std::move(col));
  }
  *out = Schema(std::move(cols));
  return Status::Ok();
}

}  // namespace

void WriteAheadLog::EncodeRecord(const WalRecord& record, ByteBuffer* out) {
  out->PutU8(static_cast<uint8_t>(record.op));
  out->PutString(record.table);
  switch (record.op) {
    case WalOp::kCreateTable:
      EncodeSchema(record.schema, out);
      break;
    case WalOp::kCreateIndex:
      out->PutString(record.index_name);
      out->PutString(record.column);
      out->PutU8(record.hash_index ? 1 : 0);
      break;
    case WalOp::kDropTable:
      break;
    case WalOp::kInsert:
    case WalOp::kUpdate:
      out->PutSignedVarint(record.row_id);
      EncodeRow(record.row, out);
      break;
    case WalOp::kDelete:
      out->PutSignedVarint(record.row_id);
      break;
  }
}

Status WriteAheadLog::DecodeRecord(ByteReader* in, WalRecord* out) {
  uint8_t op;
  HEDC_RETURN_IF_ERROR(in->GetU8(&op));
  out->op = static_cast<WalOp>(op);
  HEDC_RETURN_IF_ERROR(in->GetString(&out->table));
  switch (out->op) {
    case WalOp::kCreateTable:
      return DecodeSchema(in, &out->schema);
    case WalOp::kCreateIndex: {
      HEDC_RETURN_IF_ERROR(in->GetString(&out->index_name));
      HEDC_RETURN_IF_ERROR(in->GetString(&out->column));
      uint8_t hash;
      HEDC_RETURN_IF_ERROR(in->GetU8(&hash));
      out->hash_index = hash != 0;
      return Status::Ok();
    }
    case WalOp::kDropTable:
      return Status::Ok();
    case WalOp::kInsert:
    case WalOp::kUpdate:
      HEDC_RETURN_IF_ERROR(in->GetSignedVarint(&out->row_id));
      return DecodeRow(in, &out->row);
    case WalOp::kDelete:
      return in->GetSignedVarint(&out->row_id);
  }
  return Status::Corruption(StrFormat("bad WAL opcode %u", op));
}

WriteAheadLog::~WriteAheadLog() { Close(); }

Status WriteAheadLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return Status::FailedPrecondition("WAL already open");
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open WAL file: " + path);
  }
  io_error_ = Status::Ok();
  return Status::Ok();
}

void WriteAheadLog::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  // Let in-flight groups drain so no appender is left waiting on a file
  // we are about to close.
  cv_.wait(lock, [this] { return queue_.empty() && !leader_active_; });
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

namespace {

// Frames one durable unit: u32 crc, u32 len, payload (varint record
// count, then the records).
std::string EncodeUnit(std::span<const WalRecord> records) {
  ByteBuffer payload;
  payload.PutVarint(records.size());
  for (const WalRecord& record : records) {
    WriteAheadLog::EncodeRecord(record, &payload);
  }
  ByteBuffer frame;
  frame.PutU32(Crc32(payload.data()));
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutBytes(payload.data().data(), payload.size());
  return std::string(reinterpret_cast<const char*>(frame.data().data()),
                     frame.size());
}

}  // namespace

Status WriteAheadLog::Append(const WalRecord& record) {
  return EnqueueAndWait(EncodeUnit({&record, 1}), 1);
}

Status WriteAheadLog::AppendBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::Ok();
  return EnqueueAndWait(EncodeUnit(records), records.size());
}

Status WriteAheadLog::WriteBatch(std::unique_lock<std::mutex>* lock,
                                 std::vector<PendingUnit> batch) {
  std::FILE* file = file_;
  lock->unlock();
  size_t total_bytes = 0;
  size_t total_records = 0;
  Status status;
  {
    ScopedTimer timer(Metrics().fsync_us);
    // Only the leader writes, and the previous group was flushed, so the
    // end of the file is where this group starts.
    const off_t start = ::lseek(::fileno(file), 0, SEEK_END);
    for (const PendingUnit& unit : batch) {
      size_t written =
          std::fwrite(unit.bytes.data(), 1, unit.bytes.size(), file);
      if (written != unit.bytes.size()) {
        status = Status::Internal("WAL write failed");
        break;
      }
      total_bytes += unit.bytes.size();
      total_records += unit.records;
    }
    if (status.ok()) {
      if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
        status = Status::Internal("WAL fsync failed");
      }
    }
    // Every unit of a failed group is reported failed, so none may be
    // recovered either: cut whatever part of the group reached the file.
    if (!status.ok() &&
        (start < 0 || ::ftruncate(::fileno(file), start) != 0)) {
      status = Status::Internal(status.message() + "; cutting it failed");
    }
  }
  if (status.ok()) {
    Metrics().fsyncs->Add();
    Metrics().append_bytes->Add(static_cast<int64_t>(total_bytes));
    Metrics().group_size->Observe(static_cast<int64_t>(total_records));
  }
  lock->lock();
  return status;
}

Status WriteAheadLog::EnqueueAndWait(std::string bytes, size_t records) {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (!io_error_.ok()) return io_error_;
  cv_.wait(lock, [this] { return queue_.size() < kMaxQueuedUnits; });
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  uint64_t my_seq = ++enqueued_units_;
  queue_.push_back(PendingUnit{std::move(bytes), records});

  while (durable_units_ < my_seq && io_error_.ok()) {
    if (!leader_active_ && !queue_.empty()) {
      // Become the leader: drain everything queued so far and make it
      // durable with one write+fsync; followers keep waiting.
      leader_active_ = true;
      std::vector<PendingUnit> batch(
          std::make_move_iterator(queue_.begin()),
          std::make_move_iterator(queue_.end()));
      queue_.clear();
      size_t batch_units = batch.size();
      Status status = WriteBatch(&lock, std::move(batch));
      if (status.ok()) {
        durable_units_ += batch_units;
      } else {
        io_error_ = status;  // sticky; this batch's waiters all fail
      }
      leader_active_ = false;
      cv_.notify_all();
    } else {
      cv_.wait(lock);
    }
  }
  return durable_units_ >= my_seq ? Status::Ok() : io_error_;
}

Status WriteAheadLog::ReadAll(const std::string& path,
                              std::vector<WalRecord>* out,
                              uint64_t* valid_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("WAL file: " + path);
  std::vector<uint8_t> contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.insert(contents.end(), buf, buf + n);
  }
  std::fclose(f);

  ByteReader reader(contents);
  size_t valid = 0;
  while (!reader.AtEnd()) {
    uint32_t crc, len;
    if (!reader.GetU32(&crc).ok() || !reader.GetU32(&len).ok() ||
        len > reader.remaining()) {
      break;  // torn trailing unit: a crash mid-append
    }
    std::vector<uint8_t> payload(len);
    HEDC_RETURN_IF_ERROR(reader.GetBytes(payload.data(), len));
    if (Crc32(payload) != crc) {
      // Checksum mismatch at the tail is a torn write; in the middle it is
      // real corruption.
      if (reader.AtEnd()) break;
      return Status::Corruption(
          StrFormat("WAL unit CRC mismatch at offset %zu", valid));
    }
    ByteReader payload_reader(payload);
    uint64_t count;
    HEDC_RETURN_IF_ERROR(payload_reader.GetVarint(&count));
    for (uint64_t i = 0; i < count; ++i) {
      WalRecord record;
      HEDC_RETURN_IF_ERROR(DecodeRecord(&payload_reader, &record));
      out->push_back(std::move(record));
    }
    valid = reader.position();
  }
  if (valid_bytes != nullptr) *valid_bytes = valid;
  return Status::Ok();
}

}  // namespace hedc::db
