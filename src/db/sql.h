// SQL-subset front end: lexer, AST and recursive-descent parser.
//
// Dialect (sufficient for all metadata traffic in the paper):
//   SELECT */cols/aggs FROM t [[INNER] JOIN t2 ON e]... [WHERE e]
//       [GROUP BY c, ...] [ORDER BY c [DESC]] [LIMIT n]
//   INSERT INTO t [(cols)] VALUES (...), (...)
//   UPDATE t SET c = e, ... [WHERE e]
//   DELETE FROM t [WHERE e]
//   CREATE TABLE t (c TYPE [PRIMARY KEY] [NOT NULL], ...)
//   CREATE INDEX name ON t (c) [USING HASH]
//   DROP TABLE t
// Literals: integers, reals, 'strings', TRUE/FALSE/NULL; '?' parameters.
// Aggregates: COUNT(*), COUNT(c), MIN, MAX, SUM, AVG.
// Column references may be qualified (table.column); each JOIN is an
// inner equi-join whose ON clause must contain at least one equality
// between columns of the new table and an earlier one (extra ON
// conjuncts become residual predicates).
#ifndef HEDC_DB_SQL_H_
#define HEDC_DB_SQL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "db/expr.h"
#include "db/schema.h"

namespace hedc::db {

enum class AggFunc { kNone, kCount, kCountStar, kMin, kMax, kSum, kAvg };

struct SelectItem {
  AggFunc agg = AggFunc::kNone;
  std::string column;  // empty for COUNT(*)
  std::string alias;   // display name
};

// One `JOIN table ON condition` clause. The ON tree may reference
// columns of the joined table and any table to its left in FROM order.
struct JoinClause {
  std::string table;
  std::unique_ptr<Expr> on;
};

struct SelectStmt {
  std::string table;
  std::vector<JoinClause> joins;      // empty = single-table SELECT
  bool star = false;
  std::vector<SelectItem> items;
  std::unique_ptr<Expr> where;
  std::vector<std::string> group_by;  // empty = none
  std::string order_by;         // empty = none
  bool order_desc = false;
  int64_t limit = -1;           // -1 = unlimited
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = schema order
  std::vector<std::vector<std::unique_ptr<Expr>>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> assignments;
  std::unique_ptr<Expr> where;
};

struct DeleteStmt {
  std::string table;
  std::unique_ptr<Expr> where;
};

struct CreateTableStmt {
  std::string table;
  Schema schema;
  bool if_not_exists = false;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
  bool hash = false;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

struct Statement {
  enum class Kind {
    kSelect,
    kInsert,
    kUpdate,
    kDelete,
    kCreateTable,
    kCreateIndex,
    kDropTable,
  };
  Kind kind;
  SelectStmt select;
  InsertStmt insert;
  UpdateStmt update;
  DeleteStmt del;
  CreateTableStmt create_table;
  CreateIndexStmt create_index;
  DropTableStmt drop_table;
  int num_params = 0;  // number of '?' markers encountered
};

// Parses a single SQL statement (trailing ';' optional).
Result<std::unique_ptr<Statement>> ParseSql(std::string_view sql);

}  // namespace hedc::db

#endif  // HEDC_DB_SQL_H_
