#include "dm/query_spec.h"

#include <cctype>

namespace hedc::dm {

namespace {

bool IsSafeIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// A column name, optionally qualified by one table: `column` or
// `table.column`, each part a safe identifier.
bool IsSafeFieldName(const std::string& name) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return IsSafeIdentifier(name);
  return IsSafeIdentifier(name.substr(0, dot)) &&
         IsSafeIdentifier(name.substr(dot + 1));
}

const char* OpToSql(CondOp op) {
  switch (op) {
    case CondOp::kEq:
      return "=";
    case CondOp::kNe:
      return "<>";
    case CondOp::kLt:
      return "<";
    case CondOp::kLe:
      return "<=";
    case CondOp::kGt:
      return ">";
    case CondOp::kGe:
      return ">=";
    case CondOp::kLike:
      return "LIKE";
  }
  return "=";
}

}  // namespace

Result<std::string> QuerySpec::ToSql(std::vector<db::Value>* params) const {
  if (!IsSafeIdentifier(table_)) {
    return Status::InvalidArgument("unsafe table name: " + table_);
  }
  const bool joined = !join_table_.empty();
  if (joined &&
      (!IsSafeIdentifier(join_table_) || !IsSafeIdentifier(join_column_))) {
    return Status::InvalidArgument("unsafe join: " + join_table_ + " on " +
                                   join_column_);
  }
  std::string sql = "SELECT ";
  if (count_only_) {
    sql += "COUNT(*)";
  } else if (fields_.empty()) {
    sql += "*";
  } else {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (!IsSafeFieldName(fields_[i])) {
        return Status::InvalidArgument("unsafe field name: " + fields_[i]);
      }
      if (i > 0) sql += ", ";
      sql += fields_[i];
    }
  }
  sql += " FROM ";
  sql += table_;
  if (joined) {
    sql += " JOIN " + join_table_ + " ON " + table_ + "." + join_column_ +
           " = " + join_table_ + "." + join_column_;
  }

  params->clear();
  bool first = true;
  for (const Condition& cond : conditions_) {
    if (!IsSafeFieldName(cond.field)) {
      return Status::InvalidArgument("unsafe field name: " + cond.field);
    }
    sql += first ? " WHERE " : " AND ";
    first = false;
    sql += cond.field;
    sql += ' ';
    sql += OpToSql(cond.op);
    sql += " ?";
    params->push_back(cond.value);
  }
  if (visible_to_.has_value()) {
    // A separate AND conjunct, so an equality above still picks its index.
    const std::string& scoped = joined ? join_table_ : table_;
    sql += first ? " WHERE " : " AND ";
    sql += "(" + scoped + ".is_public = TRUE OR " + scoped + ".owner_id = ?)";
    params->push_back(db::Value::Int(*visible_to_));
  }
  if (!order_by_.empty()) {
    if (!IsSafeFieldName(order_by_)) {
      return Status::InvalidArgument("unsafe order field: " + order_by_);
    }
    sql += " ORDER BY ";
    sql += order_by_;
    if (order_desc_) sql += " DESC";
  }
  if (limit_ >= 0) {
    sql += " LIMIT ";
    sql += std::to_string(limit_);
  }
  return sql;
}

}  // namespace hedc::dm
