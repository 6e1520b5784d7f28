// Collection-style query API (§5.4).
//
// "The DM API has no provisions for regular SQL calls. It uses Java
// collection objects instead. During query processing these objects are
// parsed, analyzed, verified and transformed into regular SQL queries
// suitable for the target database and schema." QuerySpec is that
// collection object: validated against an allowlist of tables and
// rendered to parameterized SQL, so queries can be adapted without
// touching the API.
//
// The §5.3 access rule lives here and nowhere else: VisibleTo scopes a
// query to the rows a profile may read ("the system typically appends
// the user id to all queries", §5.5), as a bound parameter.
#ifndef HEDC_DM_QUERY_SPEC_H_
#define HEDC_DM_QUERY_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "db/database.h"
#include "dm/users.h"

namespace hedc::dm {

enum class CondOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

struct Condition {
  std::string field;
  CondOp op = CondOp::kEq;
  db::Value value;
};

class QuerySpec {
 public:
  explicit QuerySpec(std::string table) : table_(std::move(table)) {}

  QuerySpec& Select(std::string field) {
    fields_.push_back(std::move(field));
    return *this;
  }
  QuerySpec& Where(std::string field, CondOp op, db::Value value) {
    conditions_.push_back({std::move(field), op, std::move(value)});
    return *this;
  }
  QuerySpec& OrderBy(std::string field, bool descending = false) {
    order_by_ = std::move(field);
    order_desc_ = descending;
    return *this;
  }
  QuerySpec& Limit(int64_t n) {
    limit_ = n;
    return *this;
  }
  QuerySpec& CountOnly() {
    count_only_ = true;
    return *this;
  }
  // One inner equi-join: `table` joined on the column of the same name
  // in both tables. Field names may then be qualified (`table.column`).
  QuerySpec& Join(std::string table, std::string column) {
    join_table_ = std::move(table);
    join_column_ = std::move(column);
    return *this;
  }
  // Scopes the query to the rows `profile` may read: public rows or its
  // own, unless it is a super user (§5.3). The rule applies to the
  // joined table when there is one, else to the base table.
  QuerySpec& VisibleTo(const UserProfile& profile) {
    visible_to_ = profile.is_super ? std::nullopt
                                   : std::make_optional(profile.user_id);
    return *this;
  }

  const std::string& table() const { return table_; }

  // Verifies table and field names (identifier charset, at most one
  // `table.` qualifier) and renders SQL with '?' parameters; the bound
  // values come out through `params`.
  Result<std::string> ToSql(std::vector<db::Value>* params) const;

 private:
  std::string table_;
  std::vector<std::string> fields_;  // empty = *
  std::vector<Condition> conditions_;
  std::string order_by_;
  bool order_desc_ = false;
  int64_t limit_ = -1;
  bool count_only_ = false;
  std::string join_table_;
  std::string join_column_;
  std::optional<int64_t> visible_to_;  // user id; unset = unscoped
};

}  // namespace hedc::dm

#endif  // HEDC_DM_QUERY_SPEC_H_
