#include "db/explain.h"

#include <memory>
#include <mutex>
#include <shared_mutex>

#include "core/strings.h"
#include "db/expr.h"
#include "db/join.h"
#include "db/scan_bounds.h"
#include "db/sql.h"
#include "db/table.h"
#include "db/vectorized.h"

namespace hedc::db {

std::string QueryPlan::ToString() const {
  if (joined) {
    std::string s = "PIPELINE ";
    for (size_t i = 0; i < pipeline.size(); ++i) {
      if (i > 0) s += " -> ";
      s += pipeline[i];
    }
    return s;
  }
  switch (access) {
    case Access::kFullScan: {
      std::string s = StrFormat("FULL SCAN %s%s", table.c_str(),
                                has_residual ? " WHERE <predicate>" : "");
      if (vectorized) {
        s += StrFormat(
            " [vectorized, %lld morsels, %lld pruned, %d threads]",
            static_cast<long long>(morsel_count),
            static_cast<long long>(morsels_pruned), parallelism);
      }
      return s;
    }
    case Access::kIndexPoint:
      return StrFormat("INDEX POINT %s.%s (%s)%s", table.c_str(),
                       column.c_str(), index_name.c_str(),
                       has_residual ? " + residual" : "");
    case Access::kIndexRange:
      return StrFormat("INDEX RANGE %s.%s (%s)%s", table.c_str(),
                       column.c_str(), index_name.c_str(),
                       has_residual ? " + residual" : "");
  }
  return "?";
}

Result<QueryPlan> ExplainSelect(Database* db, std::string_view sql,
                                const std::vector<Value>& params) {
  HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseSql(sql));
  if (stmt->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  const SelectStmt& select = stmt->select;
  // Pad parameters so planning never fails on unbound markers.
  std::vector<Value> padded = params;
  padded.resize(static_cast<size_t>(stmt->num_params), Value::Int(0));

  QueryPlan plan;
  if (!select.joins.empty()) {
    plan.joined = true;
    plan.table = select.table;
    HEDC_RETURN_IF_ERROR(
        db->ExecJoinedSelect(select, padded, &plan.pipeline).status());
    return plan;
  }

  // The executor's latch, binding, index choice and scan options.
  std::shared_lock<std::shared_mutex> catalog(db->catalog_mu_);
  Database::TableEntry* entry = db->FindEntry(select.table);
  if (entry == nullptr) return Status::NotFound("table " + select.table);
  std::shared_lock<std::shared_mutex> latch(entry->latch);
  const Table& table = entry->table;
  plan.table = table.name();
  HEDC_ASSIGN_OR_RETURN(
      std::unique_ptr<Expr> where,
      BindTableExpr(select.where.get(), select.table, table.schema(), padded));
  const AccessPath path = ChooseAccessPath(table, where.get());
  plan.has_residual = where != nullptr;  // re-checked on every candidate
  if (path.kind != AccessPath::Kind::kScan) {
    plan.access = path.kind == AccessPath::Kind::kIndexPoint
                      ? QueryPlan::Access::kIndexPoint
                      : QueryPlan::Access::kIndexRange;
    plan.index_name = path.index->name;
    plan.column = table.schema().column(path.index->column).name;
    return plan;
  }
  plan.access = QueryPlan::Access::kFullScan;
  plan.vectorized = db->exec_options().vectorized;
  plan.morsel_count = static_cast<int64_t>(table.num_morsels());
  if (!plan.vectorized) return plan;
  const ScanOptions sopts = db->StatementScanOptions();
  plan.parallelism = PlannedScanThreads(table, sopts);
  if (sopts.zone_maps && !path.bounds.empty()) {
    std::vector<const Table::Morsel*> kept;
    PruneMorsels(table, path.bounds, &kept, &plan.morsels_pruned);
  }
  return plan;
}

}  // namespace hedc::db
