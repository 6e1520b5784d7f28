// Database: catalog + SQL executor with atomic write units.
//
// Plays the role Oracle plays in HEDC: it stores only metadata (the actual
// science data lives in the archive's file system) and serves the indexed
// point/range/count queries the DM issues.
//
// Every mutation runs as one atomic write unit: a single INSERT/UPDATE/
// DELETE (Execute) or several of them (ExecuteAtomically, the §4.4
// entity transaction). A unit latches its tables, applies each statement
// while collecting WAL records and undo entries, appends the records as
// one durable WAL unit, and on any statement or WAL error undoes what it
// applied and returns that error. Nothing of a failed unit is visible to
// later statements or reaches the log.
//
// Concurrency model (latch hierarchy, acquired strictly in this order):
//   1. catalog_mu_ — shared by every statement, exclusive for DDL
//      (CREATE/DROP TABLE, CREATE INDEX) and WAL reset;
//   2. per-table latches — shared for SELECT, exclusive for a write
//      unit's tables, held until the unit is durable or undone.
// Units on disjoint tables proceed in parallel. The multi-latch paths
// (joined SELECTs and write units of several tables) acquire latches in
// ascending table-name order, which keeps the hierarchy deadlock-free.
#ifndef HEDC_DB_DATABASE_H_
#define HEDC_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "db/scan_bounds.h"
#include "db/sql.h"
#include "db/table.h"
#include "db/vectorized.h"
#include "db/wal.h"

namespace hedc::db {

struct QueryPlan;

// Tabular statement result. DML statements report affected row count.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected_rows = 0;
  int64_t last_insert_row_id = 0;

  size_t num_rows() const { return rows.size(); }
  // Value at (row, named column); Null when out of range/unknown.
  Value Get(size_t row, const std::string& column) const;
};

// One statement of an atomic write unit, with its '?' bindings.
struct BoundSql {
  std::string sql;
  std::vector<Value> params;
};

// Execution statistics for the evaluation harness.
struct DbStats {
  std::atomic<int64_t> queries{0};        // SELECT statements
  std::atomic<int64_t> joins{0};          // joined SELECT statements
  std::atomic<int64_t> updates{0};        // INSERT/UPDATE/DELETE statements
  std::atomic<int64_t> full_scans{0};     // table scans (no usable index)
  std::atomic<int64_t> index_scans{0};    // index-assisted accesses
  std::atomic<int64_t> rows_examined{0};
  std::atomic<int64_t> rows_matched{0};        // rows surviving the WHERE
  std::atomic<int64_t> morsels_pruned{0};      // zone-map skips
  std::atomic<int64_t> stale_index_entries{0};  // dangling index hits
};

// Query-execution options (DESIGN.md §4e). No deployment sets them:
// the defaults are the engine, and the off paths are the oracles that
// tests and benches select through set_exec_options. `morsel_rows`
// applies to tables created after the change; the other fields take
// effect on the next statement.
struct ExecOptions {
  bool vectorized = true;   // off: the row-at-a-time interpreter
  bool zone_maps = true;    // morsel min/max pruning
  int64_t morsel_rows = Table::kDefaultRowsPerMorsel;
  int scan_threads = 4;     // max parallelism of one scan, probe or build
  // Cost-based join order (largest estimated input drives, smallest
  // builds first); off = FROM order.
  bool join_planner = true;
};

class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Enables durability: appends every committed mutation to `wal_path` and
  // (if the file already has records) replays them first.
  Status OpenWal(const std::string& wal_path);

  // Truncates and reopens the WAL (used by checkpointing after a
  // snapshot has captured the current state). Requires an open WAL.
  Status ResetWal(const std::string& wal_path);
  bool wal_enabled() const { return wal_enabled_; }

  // Parses and executes one statement. `params` bind '?' markers in order.
  // An INSERT/UPDATE/DELETE is an atomic write unit of one: a statement
  // that fails part-way (say on its second VALUES row) leaves no trace.
  Result<ResultSet> Execute(std::string_view sql,
                            const std::vector<Value>& params = {});

  // Executes INSERT/UPDATE/DELETE statements as one atomic write unit:
  // either all of them apply and reach the WAL as one durable unit, or
  // none does and the first error is returned. SELECT and DDL are
  // InvalidArgument.
  Status ExecuteAtomically(const std::vector<BoundSql>& statements);

  // Executes a pre-parsed statement (prepared-statement path; the
  // statement is not consumed and can be re-executed with new params).
  Result<ResultSet> ExecuteStatement(const Statement& stmt,
                                     const std::vector<Value>& params);

  // Direct table access for substrates that bypass SQL (BlobStore, tests).
  // The lookup is latched, but the returned table is not: callers are
  // expected to coordinate their own access (single-threaded admin paths).
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  void set_exec_options(const ExecOptions& opts) { exec_options_ = opts; }
  const ExecOptions& exec_options() const { return exec_options_; }

  DbStats& stats() { return stats_; }

 private:
  // db/explain.h: plans under the executor's latches, binding, index
  // choice and scan options.
  friend Result<QueryPlan> ExplainSelect(Database* db, std::string_view sql,
                                         const std::vector<Value>& params);

  // What a write unit has applied so far, in statement order: the WAL
  // records to append and the undo entries that revert them.
  struct WriteUnit {
    struct Undo {
      WalOp op;  // the applied mutation; its inverse is derived from it
      Table* table;
      int64_t row_id;
      Row old_row;  // update/delete: the previous image
    };
    std::vector<WalRecord> wal;
    std::vector<Undo> undo;
  };

  // A catalog slot: the table plus its latch. Entries are only created or
  // destroyed under an exclusive catalog_mu_, so holding catalog_mu_
  // shared keeps the entry (and its latch) alive.
  struct TableEntry {
    TableEntry(std::string name, Schema schema, int64_t morsel_rows)
        : table(std::move(name), std::move(schema), morsel_rows) {}
    Table table;
    mutable std::shared_mutex latch;
  };

  // The tables of one statement, latched for its duration.
  struct LatchedTables {
    std::vector<TableEntry*> entries;  // parallel to the names looked up
    std::vector<std::shared_lock<std::shared_mutex>> shared;
    std::vector<std::unique_lock<std::shared_mutex>> exclusive;
  };
  // Resolves `names` (caller holds catalog_mu_) and latches each table
  // once, shared or exclusive, in ascending name order: the order every
  // multi-table path uses, which keeps the hierarchy deadlock-free.
  Status LatchTables(const std::vector<std::string_view>& names,
                     bool exclusive, LatchedTables* out);

  Result<ResultSet> ExecSelect(const SelectStmt& stmt,
                               const std::vector<Value>& params);
  // Multi-table SELECT (src/db/join.cc): plans an equi-join pipeline,
  // gets each table's rows from MatchRows and probes hash tables. With
  // `explain`, stops where execution would start and renders the plan
  // there instead, one line per pipeline stage.
  Result<ResultSet> ExecJoinedSelect(
      const SelectStmt& stmt, const std::vector<Value>& params,
      std::vector<std::string>* explain = nullptr);
  struct UnitStatement {
    const Statement* stmt;  // INSERT, UPDATE or DELETE
    const std::vector<Value>* params;
  };
  // Runs DML statements as one atomic write unit (see file comment) and
  // returns the last statement's result.
  Result<ResultSet> ExecuteUnit(const std::vector<UnitStatement>& statements);
  // Reverts everything `unit` applied, newest first. Caller holds the
  // unit's table latches.
  static void Undo(const WriteUnit& unit);
  // DML on an already exclusively latched table; appends to `unit`.
  Result<ResultSet> ExecInsert(Table* table, const InsertStmt& stmt,
                               const std::vector<Value>& params,
                               WriteUnit* unit);
  Result<ResultSet> ExecUpdate(Table* table, const UpdateStmt& stmt,
                               const std::vector<Value>& params,
                               WriteUnit* unit);
  Result<ResultSet> ExecDelete(Table* table, const DeleteStmt& stmt,
                               const std::vector<Value>& params,
                               WriteUnit* unit);
  Result<ResultSet> ExecCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> ExecCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> ExecDropTable(const DropTableStmt& stmt);

  // Catalog lookup; caller must hold catalog_mu_ (shared or exclusive).
  TableEntry* FindEntry(std::string_view name);

  // The one access path to a table's rows, for every SELECT, join
  // input, UPDATE and DELETE: the rows satisfying the bound `where`
  // (null = all), found the way `path` (ChooseAccessPath) says. Index
  // candidates are re-checked against the whole predicate and dangling
  // ones counted; a scan runs vectorized, or row-at-a-time when
  // exec_options_.vectorized is off (the oracle). Matches are appended
  // to `out` as borrowed rows, valid while the caller holds the table
  // latch and mutates nothing. With `agg` instead, they are accumulated
  // into it, a vectorized scan aggregating per morsel. Feeds every
  // access counter of stats_ and /metrics.
  Status MatchRows(const Table& table, const Expr* where, AccessPath path,
                   std::vector<ScanMatch>* out,
                   GroupedAggregator* agg = nullptr);

  // Scan parallelism for a statement: exec_options_ over the shared
  // pool.
  ScanOptions StatementScanOptions();

  // Lazily constructed worker pool shared by all parallel scans of this
  // database (sized to the host, capped; per-statement parallelism is
  // limited by ExecOptions::scan_threads instead).
  ThreadPool* ScanPool();

  // Logs a DDL record (caller holds catalog_mu_ exclusively); Ok when
  // the WAL is off.
  Status LogDdl(const WalRecord& record);

  // Latch hierarchy level 1 (see file comment).
  mutable std::shared_mutex catalog_mu_;
  std::unordered_map<std::string, std::unique_ptr<TableEntry>> tables_;
  WriteAheadLog wal_;
  bool wal_enabled_ = false;

  ExecOptions exec_options_;
  std::once_flag scan_pool_once_;
  std::unique_ptr<ThreadPool> scan_pool_;

  DbStats stats_;
};

}  // namespace hedc::db

#endif  // HEDC_DB_DATABASE_H_
