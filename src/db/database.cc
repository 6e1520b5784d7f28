#include "db/database.h"

#include <unistd.h>

#include <algorithm>
#include <thread>

#include "core/metrics.h"
#include "core/strings.h"
#include "db/join.h"
#include "db/scan_bounds.h"
#include "db/vectorized.h"

namespace hedc::db {

namespace {

// Statement latency histograms, shared by every Database in the process.
Histogram* QueryLatency() {
  static Histogram* const kHist =
      MetricsRegistry::Default()->GetHistogram("db.query_us");
  return kHist;
}

Histogram* UpdateLatency() {
  static Histogram* const kHist =
      MetricsRegistry::Default()->GetHistogram("db.update_us");
  return kHist;
}

// Scan-volume counters: rows run through predicate evaluation vs. rows
// that survived it. Their ratio is the selectivity the zone maps and
// indexes are supposed to exploit.
Counter* RowsScannedCounter() {
  static Counter* const kCounter =
      MetricsRegistry::Default()->GetCounter("db.rows_scanned");
  return kCounter;
}

Counter* RowsMatchedCounter() {
  static Counter* const kCounter =
      MetricsRegistry::Default()->GetCounter("db.rows_matched");
  return kCounter;
}

// Index entries pointing at rows that no longer exist. A steady climb
// means index maintenance is broken somewhere.
Counter* StaleIndexCounter() {
  static Counter* const kCounter =
      MetricsRegistry::Default()->GetCounter("db.stale_index_entries");
  return kCounter;
}

std::string NormalizeName(std::string_view name) { return ToLower(name); }

// The table a DML statement writes; null for any other statement.
const std::string* TargetTable(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      return &stmt.insert.table;
    case Statement::Kind::kUpdate:
      return &stmt.update.table;
    case Statement::Kind::kDelete:
      return &stmt.del.table;
    default:
      return nullptr;
  }
}

}  // namespace

Value ResultSet::Get(size_t row, const std::string& column) const {
  if (row >= rows.size()) return Value::Null();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i], column)) {
      return i < rows[row].size() ? rows[row][i] : Value::Null();
    }
  }
  return Value::Null();
}

Status Database::OpenWal(const std::string& wal_path) {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
  Status read = WriteAheadLog::ReadAll(wal_path, &records, &valid_bytes);
  if (!read.ok() && !read.IsNotFound()) return read;
  // Cut a torn tail, so that new units are not appended behind it.
  if (read.ok() &&
      ::truncate(wal_path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal("cannot cut the torn tail of WAL " + wal_path);
  }
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  // Replay into the catalog before enabling logging so replay itself is
  // not re-logged.
  for (const WalRecord& record : records) {
    std::string key = NormalizeName(record.table);
    switch (record.op) {
      case WalOp::kCreateTable:
        if (tables_.count(key) == 0) {
          tables_[key] = std::make_unique<TableEntry>(
              record.table, record.schema, exec_options_.morsel_rows);
        }
        break;
      case WalOp::kCreateIndex: {
        auto it = tables_.find(key);
        if (it != tables_.end()) {
          Status s = it->second->table.CreateIndex(
              record.index_name, record.column,
              record.hash_index ? IndexKind::kHash : IndexKind::kBTree);
          if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        }
        break;
      }
      case WalOp::kDropTable:
        tables_.erase(key);
        break;
      case WalOp::kInsert: {
        auto it = tables_.find(key);
        if (it == tables_.end()) break;
        HEDC_RETURN_IF_ERROR(
            it->second->table.InsertWithId(record.row_id, record.row));
        break;
      }
      case WalOp::kUpdate: {
        auto it = tables_.find(key);
        if (it == tables_.end()) break;
        HEDC_RETURN_IF_ERROR(
            it->second->table.Update(record.row_id, record.row));
        break;
      }
      case WalOp::kDelete: {
        auto it = tables_.find(key);
        if (it == tables_.end()) break;
        HEDC_RETURN_IF_ERROR(it->second->table.Delete(record.row_id));
        break;
      }
    }
  }
  HEDC_RETURN_IF_ERROR(wal_.Open(wal_path));
  wal_enabled_ = true;
  return Status::Ok();
}

Status Database::ResetWal(const std::string& wal_path) {
  // Exclusive catalog lock: no statement (and hence no WAL append) can be
  // in flight while the log file is swapped out underneath.
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!wal_enabled_) {
    return Status::FailedPrecondition("WAL is not enabled");
  }
  wal_.Close();
  std::FILE* f = std::fopen(wal_path.c_str(), "wb");  // truncate
  if (f == nullptr) {
    return Status::Internal("cannot truncate WAL: " + wal_path);
  }
  std::fclose(f);
  return wal_.Open(wal_path);
}

Status Database::LogDdl(const WalRecord& record) {
  return wal_enabled_ ? wal_.Append(record) : Status::Ok();
}

Database::TableEntry* Database::FindEntry(std::string_view name) {
  auto it = tables_.find(NormalizeName(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Database::GetTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  TableEntry* entry = FindEntry(name);
  return entry == nullptr ? nullptr : &entry->table;
}

const Table* Database::GetTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = tables_.find(NormalizeName(name));
  return it == tables_.end() ? nullptr : &it->second->table;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, entry] : tables_) names.push_back(entry->table.name());
  std::sort(names.begin(), names.end());
  return names;
}

ThreadPool* Database::ScanPool() {
  std::call_once(scan_pool_once_, [this] {
    // One worker fewer than the host so the caller thread (which always
    // participates in its own scan) has a core; per-statement fan-out is
    // bounded by scan_threads, not by the pool size.
    size_t hw = std::thread::hardware_concurrency();
    size_t n = hw > 1 ? hw - 1 : 1;
    scan_pool_ = std::make_unique<ThreadPool>(std::min<size_t>(n, 16));
  });
  return scan_pool_.get();
}

ScanOptions Database::StatementScanOptions() {
  ScanOptions opts;
  opts.zone_maps = exec_options_.zone_maps;
  opts.threads = exec_options_.scan_threads;
  opts.pool = exec_options_.scan_threads > 1 ? ScanPool() : nullptr;
  return opts;
}

Status Database::LatchTables(const std::vector<std::string_view>& names,
                             bool exclusive, LatchedTables* out) {
  for (std::string_view name : names) {
    TableEntry* entry = FindEntry(name);
    if (entry == nullptr) {
      return Status::NotFound("table " + std::string(name));
    }
    out->entries.push_back(entry);
  }
  std::vector<TableEntry*> order = out->entries;
  std::sort(order.begin(), order.end(),
            [](const TableEntry* a, const TableEntry* b) {
              return ToLower(a->table.name()) < ToLower(b->table.name());
            });
  order.erase(std::unique(order.begin(), order.end()), order.end());
  for (TableEntry* e : order) {
    if (exclusive) {
      out->exclusive.emplace_back(e->latch);
    } else {
      out->shared.emplace_back(e->latch);
    }
  }
  return Status::Ok();
}

Result<ResultSet> Database::Execute(std::string_view sql,
                                    const std::vector<Value>& params) {
  HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseSql(sql));
  return ExecuteStatement(*stmt, params);
}

Result<ResultSet> Database::ExecuteStatement(
    const Statement& stmt, const std::vector<Value>& params) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      ScopedTimer timer(QueryLatency());
      return ExecSelect(stmt.select, params);
    }
    case Statement::Kind::kInsert:
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete:
      return ExecuteUnit({{&stmt, &params}});
    case Statement::Kind::kCreateTable:
      return ExecCreateTable(stmt.create_table);
    case Statement::Kind::kCreateIndex:
      return ExecCreateIndex(stmt.create_index);
    case Statement::Kind::kDropTable:
      return ExecDropTable(stmt.drop_table);
  }
  return Status::Internal("unreachable statement kind");
}

Status Database::ExecuteAtomically(const std::vector<BoundSql>& statements) {
  std::vector<std::unique_ptr<Statement>> parsed;
  std::vector<UnitStatement> unit;
  for (const BoundSql& s : statements) {
    HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseSql(s.sql));
    if (TargetTable(*stmt) == nullptr) {
      return Status::InvalidArgument(
          "only INSERT, UPDATE and DELETE run in an atomic unit: " + s.sql);
    }
    unit.push_back(UnitStatement{stmt.get(), &s.params});
    parsed.push_back(std::move(stmt));
  }
  if (unit.empty()) return Status::Ok();
  return ExecuteUnit(unit).status();
}

Result<ResultSet> Database::ExecuteUnit(
    const std::vector<UnitStatement>& statements) {
  // Each statement counts once, and its latency is its unit's: it is not
  // done until the unit is durable.
  stats_.updates.fetch_add(static_cast<int64_t>(statements.size()),
                           std::memory_order_relaxed);
  ScopedTimer clock(nullptr);
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
    std::vector<std::string_view> names;  // one per statement
    names.reserve(statements.size());
    for (const UnitStatement& s : statements) {
      names.push_back(*TargetTable(*s.stmt));
    }
    LatchedTables latched;
    HEDC_RETURN_IF_ERROR(LatchTables(names, /*exclusive=*/true, &latched));

    WriteUnit unit;
    ResultSet last;
    for (size_t i = 0; i < statements.size(); ++i) {
      const Statement& stmt = *statements[i].stmt;
      const std::vector<Value>& params = *statements[i].params;
      Table* table = &latched.entries[i]->table;
      Result<ResultSet> applied =
          stmt.kind == Statement::Kind::kInsert
              ? ExecInsert(table, stmt.insert, params, &unit)
          : stmt.kind == Statement::Kind::kUpdate
              ? ExecUpdate(table, stmt.update, params, &unit)
              : ExecDelete(table, stmt.del, params, &unit);
      if (!applied.ok()) {
        Undo(unit);
        return applied.status();
      }
      last = std::move(applied).value();
    }
    if (wal_enabled_ && !unit.wal.empty()) {
      Status logged = wal_.AppendBatch(unit.wal);
      if (!logged.ok()) {
        Undo(unit);
        return logged;
      }
    }
    return last;
  }();
  const int64_t us = clock.ElapsedUs();
  for (size_t i = 0; i < statements.size(); ++i) UpdateLatency()->Observe(us);
  return result;
}

void Database::Undo(const WriteUnit& unit) {
  // Newest first, so every step restores the exact state the mutation
  // it reverts saw (no key conflict can arise).
  for (auto it = unit.undo.rbegin(); it != unit.undo.rend(); ++it) {
    switch (it->op) {
      case WalOp::kInsert:
        it->table->Delete(it->row_id);
        break;
      case WalOp::kUpdate:
        it->table->Update(it->row_id, it->old_row);
        break;
      default:  // kDelete
        it->table->InsertWithId(it->row_id, it->old_row);
        break;
    }
  }
}

Status Database::MatchRows(const Table& table, const Expr* where,
                           AccessPath path, std::vector<ScanMatch>* out,
                           GroupedAggregator* agg) {
  std::vector<ScanMatch> to_aggregate;
  std::vector<ScanMatch>* sink = agg != nullptr ? &to_aggregate : out;
  const size_t before = sink->size();
  ScanStats scan;
  int64_t stale = 0;
  Status status = Status::Ok();
  if (path.kind != AccessPath::Kind::kScan) {
    stats_.index_scans.fetch_add(1, std::memory_order_relaxed);
    FetchCandidates(table, &path);
    sink->reserve(before + path.candidates.size());
    for (int64_t row_id : path.candidates) {
      const Row* row = table.Find(row_id);
      if (row == nullptr) {
        // The index returned a row id the heap no longer has. Harmless
        // for this statement (the row is gone) but a symptom worth
        // counting.
        ++stale;
        continue;
      }
      ++scan.rows_scanned;
      if (where != nullptr) {
        Result<Value> keep = EvalExpr(*where, *row);
        if (!keep.ok()) {
          status = keep.status();
          break;
        }
        if (!keep.value().AsBool()) continue;
      }
      sink->push_back(ScanMatch{row_id, row});
    }
    scan.rows_matched = static_cast<int64_t>(sink->size() - before);
  } else if (!exec_options_.vectorized) {
    // The row-at-a-time interpreter: the oracle the vectorized scan is
    // tested against.
    stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
    table.Scan([&](int64_t row_id, const Row& row) {
      ++scan.rows_scanned;
      if (where != nullptr) {
        Result<Value> keep = EvalExpr(*where, row);
        if (!keep.ok()) {
          status = keep.status();
          return false;
        }
        if (!keep.value().AsBool()) return true;
      }
      sink->push_back(ScanMatch{row_id, &row});
      return true;
    });
    scan.rows_matched = static_cast<int64_t>(sink->size() - before);
  } else if (agg != nullptr) {
    // Scan, filter and aggregate per morsel, materializing nothing.
    stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
    status = ScanAggregate(table, where, StatementScanOptions(), agg, &scan);
    agg = nullptr;
  } else {
    // Also under a write unit's exclusive latch: the parallel workers
    // only read the heap.
    stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
    status = ScanFilter(table, where, StatementScanOptions(), sink, &scan);
  }
  stats_.rows_examined.fetch_add(scan.rows_scanned, std::memory_order_relaxed);
  stats_.rows_matched.fetch_add(scan.rows_matched, std::memory_order_relaxed);
  stats_.morsels_pruned.fetch_add(scan.morsels_pruned,
                                  std::memory_order_relaxed);
  RowsScannedCounter()->Add(scan.rows_scanned);
  RowsMatchedCounter()->Add(scan.rows_matched);
  if (stale > 0) {
    stats_.stale_index_entries.fetch_add(stale, std::memory_order_relaxed);
    StaleIndexCounter()->Add(stale);
  }
  HEDC_RETURN_IF_ERROR(status);
  if (agg != nullptr) {
    // Groups keep their first-seen order in the access order.
    int64_t seq = 0;
    for (const ScanMatch& m : to_aggregate) agg->AccumulateRow(*m.row, seq++);
  }
  return Status::Ok();
}

Result<ResultSet> Database::ExecSelect(const SelectStmt& stmt,
                                       const std::vector<Value>& params) {
  if (!stmt.joins.empty()) return ExecJoinedSelect(stmt, params);
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  std::shared_lock<std::shared_mutex> latch(entry->latch);
  const Table& table = entry->table;
  const Schema& schema = table.schema();

  HEDC_ASSIGN_OR_RETURN(
      std::unique_ptr<Expr> where,
      BindTableExpr(stmt.where.get(), stmt.table, schema, params));
  SelectList out;
  HEDC_RETURN_IF_ERROR(ResolveSelectList(
      stmt, schema.num_columns(),
      [&](const std::string& name) -> Result<size_t> {
        auto ci = schema.ColumnIndex(StripQualifier(name, stmt.table));
        if (!ci.has_value()) {
          return Status::InvalidArgument("unknown column: " + name);
        }
        return *ci;
      },
      [&](size_t i) { return schema.column(i).name; }, &out));
  ResultSet result;
  result.columns = std::move(out.columns);

  // Without ORDER BY, aggregation runs inside the access path.
  if (out.agg && !out.order_col.has_value()) {
    GroupedAggregator agg(out.group_cols, out.specs);
    HEDC_RETURN_IF_ERROR(MatchRows(table, where.get(),
                                   ChooseAccessPath(table, where.get()),
                                   nullptr, &agg));
    agg.Emit(out.layout, /*empty_input_row=*/out.group_cols.empty(),
             &result.rows);
    if (stmt.limit >= 0 &&
        result.rows.size() > static_cast<size_t>(stmt.limit)) {
      result.rows.resize(static_cast<size_t>(stmt.limit));
    }
    return result;
  }

  // Survivors are borrowed pointers into the heap — stable because the
  // shared latch blocks all mutation for the rest of this function — so
  // no row is copied to find out it matched.
  std::vector<ScanMatch> matches;
  HEDC_RETURN_IF_ERROR(MatchRows(
      table, where.get(), ChooseAccessPath(table, where.get()), &matches));

  // ORDER BY before projection/limit (and before aggregation, where it
  // fixes the groups' first-seen order).
  if (out.order_col.has_value()) {
    const size_t c = *out.order_col;
    const bool desc = stmt.order_desc;
    std::stable_sort(matches.begin(), matches.end(),
                     [c, desc](const ScanMatch& a, const ScanMatch& b) {
                       int cmp = (*a.row)[c].Compare((*b.row)[c]);
                       return desc ? cmp > 0 : cmp < 0;
                     });
  }

  if (out.agg) {
    // Groups preserve first-seen order in the sorted match sequence.
    GroupedAggregator agg(out.group_cols, out.specs);
    int64_t seq = 0;
    for (const ScanMatch& m : matches) agg.AccumulateRow(*m.row, seq++);
    agg.Emit(out.layout, /*empty_input_row=*/out.group_cols.empty(),
             &result.rows);
  } else {
    // Only LIMIT-many rows are materialized.
    size_t cap = matches.size();
    if (stmt.limit >= 0) {
      cap = std::min<size_t>(cap, static_cast<size_t>(stmt.limit));
    }
    result.rows.reserve(cap);
    for (size_t i = 0; i < cap; ++i) {
      Row out_row;
      out_row.reserve(out.proj.size());
      for (size_t c : out.proj) out_row.push_back((*matches[i].row)[c]);
      result.rows.push_back(std::move(out_row));
    }
  }
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

Result<ResultSet> Database::ExecInsert(Table* table, const InsertStmt& stmt,
                                       const std::vector<Value>& params,
                                       WriteUnit* unit) {
  const Schema& schema = table->schema();

  // Column mapping.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) targets.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      auto ci = schema.ColumnIndex(name);
      if (!ci.has_value()) {
        return Status::InvalidArgument("unknown column: " + name);
      }
      targets.push_back(*ci);
    }
  }

  ResultSet result;
  for (const auto& value_exprs : stmt.rows) {
    if (value_exprs.size() != targets.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < value_exprs.size(); ++i) {
      std::unique_ptr<Expr> e = value_exprs[i]->Clone();
      HEDC_RETURN_IF_ERROR(BindExpr(e.get(), schema, params));
      HEDC_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, Row{}));
      row[targets[i]] = std::move(v);
    }
    HEDC_ASSIGN_OR_RETURN(int64_t row_id, table->Insert(std::move(row)));
    unit->undo.push_back({WalOp::kInsert, table, row_id, {}});
    unit->wal.push_back(WalRecord{WalOp::kInsert, table->name(), row_id,
                                  *table->Find(row_id), Schema{}, "", "",
                                  false});
    result.last_insert_row_id = row_id;
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Database::ExecUpdate(Table* table, const UpdateStmt& stmt,
                                       const std::vector<Value>& params,
                                       WriteUnit* unit) {
  const Schema& schema = table->schema();
  HEDC_ASSIGN_OR_RETURN(
      std::unique_ptr<Expr> where,
      BindTableExpr(stmt.where.get(), stmt.table, schema, params));
  std::vector<std::pair<size_t, std::unique_ptr<Expr>>> assigns;
  for (const auto& [col_name, expr] : stmt.assignments) {
    auto ci = schema.ColumnIndex(col_name);
    if (!ci.has_value()) {
      return Status::InvalidArgument("unknown column: " + col_name);
    }
    HEDC_ASSIGN_OR_RETURN(
        std::unique_ptr<Expr> bound,
        BindTableExpr(expr.get(), stmt.table, schema, params));
    assigns.emplace_back(*ci, std::move(bound));
  }

  // Under the exclusive latch nothing changes between the match and the
  // mutations, and each update leaves the other matched rows in place.
  std::vector<ScanMatch> matches;
  HEDC_RETURN_IF_ERROR(MatchRows(
      *table, where.get(), ChooseAccessPath(*table, where.get()), &matches));
  ResultSet result;
  for (const ScanMatch& m : matches) {
    Row updated = *m.row;
    for (const auto& [col, expr] : assigns) {
      HEDC_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, *m.row));
      updated[col] = std::move(v);
    }
    Row old_row;
    HEDC_RETURN_IF_ERROR(
        table->Update(m.row_id, std::move(updated), &old_row));
    unit->undo.push_back(
        {WalOp::kUpdate, table, m.row_id, std::move(old_row)});
    unit->wal.push_back(WalRecord{WalOp::kUpdate, table->name(), m.row_id,
                                  *table->Find(m.row_id), Schema{}, "", "",
                                  false});
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Database::ExecDelete(Table* table, const DeleteStmt& stmt,
                                       const std::vector<Value>& params,
                                       WriteUnit* unit) {
  HEDC_ASSIGN_OR_RETURN(
      std::unique_ptr<Expr> where,
      BindTableExpr(stmt.where.get(), stmt.table, table->schema(), params));
  // Row ids only: a delete may free the morsel a later match lived in.
  std::vector<ScanMatch> matches;
  HEDC_RETURN_IF_ERROR(MatchRows(
      *table, where.get(), ChooseAccessPath(*table, where.get()), &matches));
  ResultSet result;
  for (const ScanMatch& m : matches) {
    Row old_row;
    HEDC_RETURN_IF_ERROR(table->Delete(m.row_id, &old_row));
    unit->undo.push_back(
        {WalOp::kDelete, table, m.row_id, std::move(old_row)});
    unit->wal.push_back(WalRecord{WalOp::kDelete, table->name(), m.row_id,
                                  Row{}, Schema{}, "", "", false});
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Database::ExecCreateTable(const CreateTableStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  std::string key = NormalizeName(stmt.table);
  if (tables_.count(key) > 0) {
    if (stmt.if_not_exists) return ResultSet{};
    return Status::AlreadyExists("table " + stmt.table);
  }
  HEDC_RETURN_IF_ERROR(LogDdl(WalRecord{WalOp::kCreateTable, stmt.table, 0,
                                        Row{}, stmt.schema, "", "", false}));
  tables_[key] = std::make_unique<TableEntry>(stmt.table, stmt.schema,
                                              exec_options_.morsel_rows);
  return ResultSet{};
}

Result<ResultSet> Database::ExecCreateIndex(const CreateIndexStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  HEDC_RETURN_IF_ERROR(entry->table.CreateIndex(
      stmt.index_name, stmt.column,
      stmt.hash ? IndexKind::kHash : IndexKind::kBTree));
  // An index is derived state: one left behind by a failed append changes
  // no answer and is simply not recovered.
  HEDC_RETURN_IF_ERROR(LogDdl(WalRecord{WalOp::kCreateIndex, stmt.table, 0,
                                        Row{}, Schema{}, stmt.index_name,
                                        stmt.column, stmt.hash}));
  return ResultSet{};
}

Result<ResultSet> Database::ExecDropTable(const DropTableStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  std::string key = NormalizeName(stmt.table);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (stmt.if_exists) return ResultSet{};
    return Status::NotFound("table " + stmt.table);
  }
  HEDC_RETURN_IF_ERROR(LogDdl(WalRecord{WalOp::kDropTable, stmt.table, 0,
                                        Row{}, Schema{}, "", "", false}));
  tables_.erase(it);
  return ResultSet{};
}

}  // namespace hedc::db
