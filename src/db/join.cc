// Joined-SELECT execution: name resolution over the FROM list, the
// SELECT-list resolver shared with single-table statements, the
// cost-based equi-join planner, partitioned hash tables and the batched
// probe (DESIGN.md §4h).
#include "db/join.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/strings.h"
#include "db/database.h"
#include "db/scan_bounds.h"
#include "db/sql.h"
#include "db/vectorized.h"

namespace hedc::db {

// ---------------------------------------------------------------------------
// JoinSchema

Status JoinSchema::AddTable(const std::string& name, const Table* table) {
  for (const TableRef& t : tables_) {
    if (EqualsIgnoreCase(t.name, name)) {
      return Status::InvalidArgument("duplicate table in join: " + name);
    }
  }
  tables_.push_back(TableRef{name, table, total_columns_});
  total_columns_ += table->schema().num_columns();
  return Status::Ok();
}

Result<size_t> JoinSchema::ResolveColumn(const std::string& name) const {
  const size_t dot = name.find('.');
  if (dot != std::string::npos) {
    const std::string table_name = name.substr(0, dot);
    const std::string column_name = name.substr(dot + 1);
    for (const TableRef& t : tables_) {
      if (!EqualsIgnoreCase(t.name, table_name)) continue;
      auto ci = t.table->schema().ColumnIndex(column_name);
      if (!ci.has_value()) {
        return Status::InvalidArgument("unknown column: " + name);
      }
      return t.offset + *ci;
    }
    return Status::InvalidArgument("unknown table in column reference: " +
                                   name);
  }
  size_t hits = 0;
  size_t found = 0;
  for (const TableRef& t : tables_) {
    auto ci = t.table->schema().ColumnIndex(name);
    if (!ci.has_value()) continue;
    ++hits;
    found = t.offset + *ci;
  }
  if (hits > 1) {
    return Status::InvalidArgument("ambiguous column in join: " + name);
  }
  if (hits == 0) return Status::InvalidArgument("unknown column: " + name);
  return found;
}

size_t JoinSchema::TableOfColumn(size_t flat) const {
  for (size_t i = tables_.size(); i-- > 1;) {
    if (flat >= tables_[i].offset) return i;
  }
  return 0;
}

size_t JoinSchema::LocalColumn(size_t flat) const {
  return flat - tables_[TableOfColumn(flat)].offset;
}

const ColumnDef& JoinSchema::column(size_t flat) const {
  const TableRef& t = tables_[TableOfColumn(flat)];
  return t.table->schema().column(flat - t.offset);
}

std::string JoinSchema::ColumnDisplayName(size_t flat) const {
  const TableRef& owner = tables_[TableOfColumn(flat)];
  const std::string& bare = column(flat).name;
  size_t hits = 0;
  for (const TableRef& t : tables_) {
    if (t.table->schema().ColumnIndex(bare).has_value()) ++hits;
  }
  if (hits > 1) return owner.name + "." + bare;
  return bare;
}

// ---------------------------------------------------------------------------
// Binding and qualifier rewriting

Status BindExprJoined(Expr* expr, const JoinSchema& schema,
                      const std::vector<Value>& params) {
  switch (expr->kind) {
    case Expr::Kind::kLiteral:
      return Status::Ok();
    case Expr::Kind::kColumn: {
      HEDC_ASSIGN_OR_RETURN(size_t flat, schema.ResolveColumn(expr->column));
      expr->column_index = static_cast<int>(flat);
      return Status::Ok();
    }
    case Expr::Kind::kParam: {
      if (expr->param_index < 0 ||
          expr->param_index >= static_cast<int>(params.size())) {
        return Status::InvalidArgument(
            StrFormat("parameter %d not bound", expr->param_index + 1));
      }
      expr->literal = params[expr->param_index];
      expr->kind = Expr::Kind::kLiteral;
      return Status::Ok();
    }
    case Expr::Kind::kUnary:
      return BindExprJoined(expr->left.get(), schema, params);
    case Expr::Kind::kBinary:
      HEDC_RETURN_IF_ERROR(BindExprJoined(expr->left.get(), schema, params));
      return BindExprJoined(expr->right.get(), schema, params);
    case Expr::Kind::kInList: {
      HEDC_RETURN_IF_ERROR(BindExprJoined(expr->left.get(), schema, params));
      for (auto& item : expr->list) {
        HEDC_RETURN_IF_ERROR(BindExprJoined(item.get(), schema, params));
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable expr kind");
}

std::string StripQualifier(const std::string& name, const std::string& table) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return name;
  if (EqualsIgnoreCase(name.substr(0, dot), table)) return name.substr(dot + 1);
  return name;
}

namespace {

void StripQualifiers(Expr* expr, const std::string& table) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumn) {
    expr->column = StripQualifier(expr->column, table);
  }
  StripQualifiers(expr->left.get(), table);
  StripQualifiers(expr->right.get(), table);
  for (auto& item : expr->list) StripQualifiers(item.get(), table);
}

}  // namespace

Result<std::unique_ptr<Expr>> BindTableExpr(const Expr* expr,
                                            const std::string& table,
                                            const Schema& schema,
                                            const std::vector<Value>& params) {
  if (expr == nullptr) return std::unique_ptr<Expr>();
  std::unique_ptr<Expr> bound = expr->Clone();
  StripQualifiers(bound.get(), table);
  HEDC_RETURN_IF_ERROR(BindExpr(bound.get(), schema, params));
  return bound;
}

Status ResolveSelectList(
    const SelectStmt& stmt, size_t num_columns,
    const std::function<Result<size_t>(const std::string&)>& resolve,
    const std::function<std::string(size_t)>& star_name, SelectList* out) {
  for (const std::string& g : stmt.group_by) {
    HEDC_ASSIGN_OR_RETURN(size_t c, resolve(g));
    out->group_cols.push_back(static_cast<int>(c));
  }
  out->agg = !out->group_cols.empty();
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) out->agg = true;
  }
  if (!stmt.order_by.empty()) {
    HEDC_ASSIGN_OR_RETURN(size_t c, resolve(stmt.order_by));
    out->order_col = c;
  }
  if (stmt.star) {
    if (out->agg) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with aggregation");
    }
    for (size_t c = 0; c < num_columns; ++c) {
      out->proj.push_back(c);
      out->columns.push_back(star_name(c));
    }
    return Status::Ok();
  }
  for (const SelectItem& item : stmt.items) {
    out->columns.push_back(item.alias);
    if (!out->agg) {
      HEDC_ASSIGN_OR_RETURN(size_t c, resolve(item.column));
      out->proj.push_back(c);
    } else if (item.agg == AggFunc::kNone) {
      HEDC_ASSIGN_OR_RETURN(size_t c, resolve(item.column));
      const auto it = std::find(out->group_cols.begin(),
                                out->group_cols.end(), static_cast<int>(c));
      if (it == out->group_cols.end()) {
        return Status::InvalidArgument("column " + item.column +
                                       " must appear in GROUP BY");
      }
      out->layout.push_back(GroupedAggregator::OutputSlot{
          true, static_cast<size_t>(it - out->group_cols.begin())});
    } else {
      AggSpec spec{item.agg, -1};
      if (item.agg != AggFunc::kCountStar) {
        HEDC_ASSIGN_OR_RETURN(size_t c, resolve(item.column));
        spec.col = static_cast<int>(c);
      }
      out->layout.push_back(
          GroupedAggregator::OutputSlot{false, out->specs.size()});
      out->specs.push_back(spec);
    }
  }
  return Status::Ok();
}

Value CanonicalJoinKey(const Value& v, bool coerce_numeric) {
  if (!coerce_numeric || v.is_null()) return v;
  return Value::Real(v.AsReal());
}

// ---------------------------------------------------------------------------
// Planner

namespace {

// FROM-order bitmask of the tables a bound subtree references.
void CollectTableMask(const Expr* e, const JoinSchema& js, uint32_t* mask) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumn && e->column_index >= 0) {
    *mask |= 1u << js.TableOfColumn(static_cast<size_t>(e->column_index));
  }
  CollectTableMask(e->left.get(), js, mask);
  CollectTableMask(e->right.get(), js, mask);
  for (const auto& item : e->list) CollectTableMask(item.get(), js, mask);
}

// col = col with the two columns in different tables.
bool IsJoinEdge(const Expr* e, const JoinSchema& js, size_t* flat_a,
                size_t* flat_b) {
  if (e->kind != Expr::Kind::kBinary || e->bin_op != BinOp::kEq) return false;
  const Expr* l = e->left.get();
  const Expr* r = e->right.get();
  if (l == nullptr || r == nullptr) return false;
  if (l->kind != Expr::Kind::kColumn || r->kind != Expr::Kind::kColumn) {
    return false;
  }
  if (l->column_index < 0 || r->column_index < 0) return false;
  const size_t a = static_cast<size_t>(l->column_index);
  const size_t b = static_cast<size_t>(r->column_index);
  if (js.TableOfColumn(a) == js.TableOfColumn(b)) return false;
  *flat_a = a;
  *flat_b = b;
  return true;
}

// Rewrites flat combined-row column indexes to table-local ones.
void ShiftToLocal(Expr* e, size_t offset) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumn && e->column_index >= 0) {
    e->column_index -= static_cast<int>(offset);
  }
  ShiftToLocal(e->left.get(), offset);
  ShiftToLocal(e->right.get(), offset);
  for (auto& item : e->list) ShiftToLocal(item.get(), offset);
}

std::unique_ptr<Expr> FoldAnd(std::vector<std::unique_ptr<Expr>> conjuncts) {
  std::unique_ptr<Expr> acc;
  for (auto& c : conjuncts) {
    if (acc == nullptr) {
      acc = std::move(c);
    } else {
      acc = Expr::Binary(BinOp::kAnd, std::move(acc), std::move(c));
    }
  }
  return acc;
}

// Row estimate for one table under its pushed-down predicate: the exact
// candidate count of an indexed equality (fetched once, for the scan
// that follows), else the live rows in zone-surviving morsels, else
// the live row count.
int64_t EstimateTableRows(const Table& t, AccessPath* path, bool zone_maps) {
  const int64_t n = static_cast<int64_t>(t.num_rows());
  if (path->kind == AccessPath::Kind::kIndexPoint) {
    FetchCandidates(t, path);
    return static_cast<int64_t>(path->candidates.size());
  }
  if (!zone_maps || path->bounds.empty()) return n;
  std::vector<const Table::Morsel*> kept;
  int64_t pruned = 0;
  PruneMorsels(t, path->bounds, &kept, &pruned);
  int64_t est = 0;
  for (const Table::Morsel* m : kept) est += m->live;
  return std::min(est, n);
}

// One hash-join build step in execution order.
struct JoinStepPlan {
  size_t table_idx = 0;   // FROM index of the build table
  size_t build_col = 0;   // flat key column inside the build table
  size_t probe_col = 0;   // flat key column in an earlier-available table
  bool coerce_numeric = false;
  const Expr* edge = nullptr;  // the active equality (row mode re-verifies)
  std::vector<const Expr*> residuals;
  int64_t est_rows = 0;
};

struct JoinPlan {
  // Owning storage for the bound predicate trees; everything below
  // borrows into these.
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> ons;

  // Per FROM table: the AND of its single-table conjuncts, cloned with
  // table-local column indexes (nullptr = unfiltered), its access path
  // under that predicate, and the row estimate.
  std::vector<std::unique_ptr<Expr>> local;
  std::vector<AccessPath> access;
  std::vector<int64_t> est;

  size_t driver = 0;
  std::vector<JoinStepPlan> steps;
  std::vector<int> step_of_table;  // FROM index -> step index; driver = -1
};

Status PlanJoin(const SelectStmt& stmt, const JoinSchema& js,
                const std::vector<Value>& params, const ExecOptions& opts,
                JoinPlan* plan) {
  const size_t n = js.num_tables();
  if (n > 31) return Status::Unimplemented("too many tables in join");

  if (stmt.where != nullptr) {
    plan->where = stmt.where->Clone();
    HEDC_RETURN_IF_ERROR(BindExprJoined(plan->where.get(), js, params));
  }
  for (size_t i = 0; i < stmt.joins.size(); ++i) {
    auto on = stmt.joins[i].on->Clone();
    HEDC_RETURN_IF_ERROR(BindExprJoined(on.get(), js, params));
    uint32_t mask = 0;
    CollectTableMask(on.get(), js, &mask);
    // JOIN i introduces FROM table i+1; its ON clause may reference that
    // table and anything to its left.
    if ((mask & ~((1u << (i + 2)) - 1)) != 0) {
      return Status::InvalidArgument(
          "ON clause of JOIN " + stmt.joins[i].table +
          " references a table joined later");
    }
    plan->ons.push_back(std::move(on));
  }

  // Pool every AND-conjunct from WHERE and all ON clauses, then
  // classify: single-table conjuncts push down to their table's scan,
  // cross-table equalities become join-edge candidates, the rest are
  // residuals interpreted once all their tables are available.
  struct Pooled {
    const Expr* e;
    uint32_t mask;
    bool is_edge;
    size_t flat_a = 0, flat_b = 0;
  };
  std::vector<Pooled> pooled;
  {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(plan->where.get(), &conjuncts);
    for (const auto& on : plan->ons) CollectConjuncts(on.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      Pooled p{c, 0, false};
      CollectTableMask(c, js, &p.mask);
      p.is_edge = IsJoinEdge(c, js, &p.flat_a, &p.flat_b);
      pooled.push_back(p);
    }
  }

  std::vector<std::vector<std::unique_ptr<Expr>>> local_parts(n);
  for (const Pooled& p : pooled) {
    if (p.is_edge || __builtin_popcount(p.mask) > 1) continue;
    // Single-table (or column-free, e.g. a parameterized constant):
    // push to the owning table; column-free conjuncts go to table 0,
    // where a constant-false prunes the whole inner join.
    const size_t t = p.mask == 0 ? 0 : static_cast<size_t>(
                                           __builtin_ctz(p.mask));
    auto clone = p.e->Clone();
    ShiftToLocal(clone.get(), js.table(t).offset);
    local_parts[t].push_back(std::move(clone));
  }
  plan->local.resize(n);
  plan->access.resize(n);
  plan->est.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const Table& table = *js.table(t).table;
    plan->local[t] = FoldAnd(std::move(local_parts[t]));
    plan->access[t] = ChooseAccessPath(table, plan->local[t].get());
    plan->est[t] =
        EstimateTableRows(table, &plan->access[t], opts.zone_maps);
  }

  // Join order. With the planner on, the largest estimated input drives
  // (probe side streams, smaller sides build hash tables) and build
  // steps greedily take the smallest connectable estimate; with it off,
  // FROM order is preserved (table 0 drives).
  if (opts.join_planner) {
    plan->driver = static_cast<size_t>(
        std::max_element(plan->est.begin(), plan->est.end()) -
        plan->est.begin());
  } else {
    plan->driver = 0;
  }

  uint32_t avail = 1u << plan->driver;
  plan->step_of_table.assign(n, -1);
  std::vector<const Expr*> active_edges;
  while (__builtin_popcount(avail) < static_cast<int>(n)) {
    // Tables reachable from the available set via an equality edge.
    size_t best = n;
    for (size_t t = 0; t < n; ++t) {
      if (avail & (1u << t)) continue;
      bool connectable = false;
      for (const Pooled& p : pooled) {
        if (!p.is_edge) continue;
        const size_t ta = js.TableOfColumn(p.flat_a);
        const size_t tb = js.TableOfColumn(p.flat_b);
        if ((ta == t && (avail & (1u << tb))) ||
            (tb == t && (avail & (1u << ta)))) {
          connectable = true;
          break;
        }
      }
      if (!connectable) continue;
      if (best == n) {
        best = t;
      } else if (opts.join_planner && plan->est[t] < plan->est[best]) {
        best = t;
      }
      if (!opts.join_planner) break;  // FROM order: first connectable
    }
    if (best == n) {
      return Status::Unimplemented(
          "JOIN without an equality to an earlier table (cross joins are "
          "not supported)");
    }
    // Pick the active edge for this step.
    JoinStepPlan step;
    step.table_idx = best;
    for (const Pooled& p : pooled) {
      if (!p.is_edge) continue;
      const size_t ta = js.TableOfColumn(p.flat_a);
      const size_t tb = js.TableOfColumn(p.flat_b);
      if (ta == best && (avail & (1u << tb))) {
        step.build_col = p.flat_a;
        step.probe_col = p.flat_b;
      } else if (tb == best && (avail & (1u << ta))) {
        step.build_col = p.flat_b;
        step.probe_col = p.flat_a;
      } else {
        continue;
      }
      step.edge = p.e;
      break;
    }
    const bool build_text = js.column(step.build_col).type == ValueType::kText;
    const bool probe_text = js.column(step.probe_col).type == ValueType::kText;
    step.coerce_numeric = build_text != probe_text;
    step.est_rows = plan->est[best];
    plan->step_of_table[best] = static_cast<int>(plan->steps.size());
    active_edges.push_back(step.edge);
    plan->steps.push_back(std::move(step));
    avail |= 1u << best;
  }

  // Everything not pushed down and not an active edge becomes a
  // residual at the earliest step where all its tables are available.
  for (const Pooled& p : pooled) {
    if (!p.is_edge && __builtin_popcount(p.mask) <= 1) continue;
    if (std::find(active_edges.begin(), active_edges.end(), p.e) !=
        active_edges.end()) {
      continue;
    }
    int attach = -1;
    for (size_t t = 0; t < n; ++t) {
      if (p.mask & (1u << t)) attach = std::max(attach, plan->step_of_table[t]);
    }
    if (attach < 0) {
      // Both sides in the driver table can't happen (cross-table), but a
      // conjunct could in principle collapse after binding; be safe.
      attach = 0;
    }
    plan->steps[static_cast<size_t>(attach)].residuals.push_back(p.e);
  }
  return Status::Ok();
}

// The SELECT list over the flat column space. Aggregation over a join
// keeps first-seen group order and has no ORDER BY.
Status ResolveJoinOutput(const SelectStmt& stmt, const JoinSchema& js,
                         SelectList* out) {
  HEDC_RETURN_IF_ERROR(ResolveSelectList(
      stmt, js.total_columns(),
      [&](const std::string& name) { return js.ResolveColumn(name); },
      [&](size_t flat) { return js.ColumnDisplayName(flat); }, out));
  if (out->agg && out->order_col.has_value()) {
    return Status::Unimplemented("ORDER BY on an aggregated joined SELECT");
  }
  return Status::Ok();
}

// The FROM list, in FROM order.
std::vector<std::string_view> FromList(const SelectStmt& stmt) {
  std::vector<std::string_view> names{stmt.table};
  for (const JoinClause& jc : stmt.joins) names.push_back(jc.table);
  return names;
}

// ---------------------------------------------------------------------------
// Partitioned hash table for one build side

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) == 0;
  }
};

class JoinHashTable {
 public:
  JoinHashTable(size_t local_col, bool coerce)
      : local_col_(local_col), coerce_(coerce) {}

  // Builds from the build side's matches; NULL keys are dropped (NULL =
  // x is never true). Small inputs, or no pool, or one thread: one
  // partition, filled serially. Otherwise 2 × `threads` partitions:
  // keys scatter serially (one hash each), then the partitions fill in
  // parallel on the pool.
  void Build(const std::vector<ScanMatch>& matches, ThreadPool* pool,
             int threads) {
    if (static_cast<int64_t>(matches.size()) < kMinParallelBuild ||
        pool == nullptr || threads <= 1) {
      parts_.resize(1);
      for (const ScanMatch& m : matches) {
        const Value& raw = (*m.row)[local_col_];
        if (raw.is_null()) continue;
        parts_[0].map[CanonicalJoinKey(raw, coerce_)].push_back(m.row);
      }
      return;
    }
    parts_.resize(2 * static_cast<size_t>(threads));
    std::vector<std::vector<std::pair<Value, const Row*>>> scatter(
        parts_.size());
    for (const ScanMatch& m : matches) {
      const Value& raw = (*m.row)[local_col_];
      if (raw.is_null()) continue;
      Value key = CanonicalJoinKey(raw, coerce_);
      const size_t p = key.Hash() % parts_.size();
      scatter[p].emplace_back(std::move(key), m.row);
    }
    ParallelClaim(pool, threads, scatter.size(), [&](int, size_t p) {
      for (auto& kv : scatter[p]) {
        parts_[p].map[std::move(kv.first)].push_back(kv.second);
      }
      return Status::Ok();
    });
  }

  // Matching build rows for a probe value, nullptr when none. The raw
  // value probes directly in the common case: within one comparison
  // class Value::Hash already agrees with Value::Compare.
  const std::vector<const Row*>* Probe(const Value& raw) const {
    if (raw.is_null()) return nullptr;
    if (!coerce_) return Find(raw);
    const Value canon = CanonicalJoinKey(raw, true);
    return Find(canon);
  }

 private:
  static constexpr int64_t kMinParallelBuild = 8192;

  struct Part {
    std::unordered_map<Value, std::vector<const Row*>, ValueHasher, ValueEq>
        map;
  };

  const std::vector<const Row*>* Find(const Value& key) const {
    const Part& p =
        parts_[parts_.size() == 1 ? 0 : key.Hash() % parts_.size()];
    auto it = p.map.find(key);
    return it == p.map.end() ? nullptr : &it->second;
  }

  size_t local_col_;
  bool coerce_;
  std::vector<Part> parts_;
};

// A build side's matches plus the hash table over them; `matches` keeps
// the borrowed row pointers alive for the probe phase.
struct BuiltSide {
  std::vector<ScanMatch> matches;
  std::unique_ptr<JoinHashTable> ht;
};

const char* AccessName(AccessPath::Kind kind) {
  switch (kind) {
    case AccessPath::Kind::kIndexPoint:
      return "INDEX POINT";
    case AccessPath::Kind::kIndexRange:
      return "INDEX RANGE";
    case AccessPath::Kind::kScan:
      break;
  }
  return "SCAN";
}

// EXPLAIN's rendering of a planned join, one line per pipeline stage:
// the driver's access, each hash-join build with its table's access,
// the terminal. `scan_threads` > 0 reports a vectorized driver scan.
std::vector<std::string> RenderPipeline(const JoinSchema& js,
                                        const JoinPlan& plan,
                                        const SelectList& out,
                                        int scan_threads) {
  std::vector<std::string> pipeline;
  const AccessPath::Kind driver_access = plan.access[plan.driver].kind;
  std::string head = StrFormat(
      "%s %s (est %lld rows)", AccessName(driver_access),
      js.table(plan.driver).name.c_str(),
      static_cast<long long>(plan.est[plan.driver]));
  if (scan_threads > 0 && driver_access == AccessPath::Kind::kScan) {
    head += StrFormat(" [vectorized x%d]", scan_threads);
  }
  pipeline.push_back(std::move(head));
  for (const JoinStepPlan& step : plan.steps) {
    std::string s = StrFormat(
        "HASH JOIN build %s (%s, est %lld rows) ON %s = %s",
        js.table(step.table_idx).name.c_str(),
        AccessName(plan.access[step.table_idx].kind),
        static_cast<long long>(step.est_rows),
        js.ColumnDisplayName(step.probe_col).c_str(),
        js.ColumnDisplayName(step.build_col).c_str());
    if (!step.residuals.empty()) {
      s += StrFormat(" + %d residual", static_cast<int>(step.residuals.size()));
    }
    pipeline.push_back(std::move(s));
  }
  if (out.agg) {
    pipeline.push_back(StrFormat("GROUP AGGREGATE (%d keys, %d aggs)",
                                 static_cast<int>(out.group_cols.size()),
                                 static_cast<int>(out.specs.size())));
  } else {
    pipeline.push_back(
        StrFormat("PROJECT %d cols", static_cast<int>(out.proj.size())));
  }
  return pipeline;
}

}  // namespace

// ---------------------------------------------------------------------------
// Database::ExecJoinedSelect

Result<ResultSet> Database::ExecJoinedSelect(
    const SelectStmt& stmt, const std::vector<Value>& params,
    std::vector<std::string>* explain) {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  const std::vector<std::string_view> names = FromList(stmt);
  LatchedTables latched;
  HEDC_RETURN_IF_ERROR(LatchTables(names, /*exclusive=*/false, &latched));
  JoinSchema js;
  for (size_t i = 0; i < names.size(); ++i) {
    HEDC_RETURN_IF_ERROR(
        js.AddTable(std::string(names[i]), &latched.entries[i]->table));
  }
  JoinPlan plan;
  HEDC_RETURN_IF_ERROR(PlanJoin(stmt, js, params, exec_options_, &plan));
  SelectList out;
  HEDC_RETURN_IF_ERROR(ResolveJoinOutput(stmt, js, &out));
  const ScanOptions sopts = StatementScanOptions();
  if (explain != nullptr) {
    *explain = RenderPipeline(
        js, plan, out,
        exec_options_.vectorized
            ? PlannedScanThreads(*js.table(plan.driver).table, sopts)
            : 0);
    return ResultSet{};
  }
  stats_.joins.fetch_add(1, std::memory_order_relaxed);

  const size_t nsteps = plan.steps.size();
  const int threads = exec_options_.vectorized ? sopts.threads : 1;

  // --- Every table's rows come from the one access path: the build
  // sides' into hash tables, the driver's into the probe below.
  std::vector<BuiltSide> built(nsteps);
  for (size_t s = 0; s < nsteps; ++s) {
    const JoinStepPlan& step = plan.steps[s];
    const size_t t = step.table_idx;
    HEDC_RETURN_IF_ERROR(MatchRows(*js.table(t).table, plan.local[t].get(),
                                   std::move(plan.access[t]),
                                   &built[s].matches));
    built[s].ht = std::make_unique<JoinHashTable>(
        js.LocalColumn(step.build_col), step.coerce_numeric);
    built[s].ht->Build(built[s].matches, sopts.pool, threads);
  }
  std::vector<ScanMatch> driver;
  HEDC_RETURN_IF_ERROR(MatchRows(
      *js.table(plan.driver).table, plan.local[plan.driver].get(),
      std::move(plan.access[plan.driver]), &driver));

  // --- Probe. A tuple is a driver row (its index in `driver`) plus one
  // matched build row per completed step; tuples are flat arrays (`rows`
  // with stride nsteps) so a batch allocates nothing after warmup.
  struct TupleBuf {
    std::vector<uint32_t> pos;
    std::vector<const Row*> rows;  // stride = nsteps
  };
  struct ProbeWorker {
    TupleBuf cur, next;
    Row scratch;  // combined row for residuals and aggregation
  };
  const size_t driver_offset = js.table(plan.driver).offset;

  // Flat combined-row value of `flat` for tuple k of `t`.
  auto value_at = [&](const TupleBuf& t, size_t k,
                      size_t flat) -> const Value& {
    const size_t ti = js.TableOfColumn(flat);
    const size_t local = js.LocalColumn(flat);
    if (ti == plan.driver) return (*driver[t.pos[k]].row)[local];
    return (*t.rows[k * nsteps +
                    static_cast<size_t>(plan.step_of_table[ti])])[local];
  };

  // Assembles the combined row for residual interpretation: driver
  // columns, completed steps, plus the candidate row for step `s`.
  // Unavailable tables keep stale values; residual attachment
  // guarantees they are never read.
  auto assemble = [&](const TupleBuf& t, size_t k, size_t s,
                      const Row* candidate, Row* scratch) {
    const Row& drow = *driver[t.pos[k]].row;
    std::copy(drow.begin(), drow.end(), scratch->begin() + driver_offset);
    for (size_t s2 = 0; s2 <= s; ++s2) {
      const Row* brow = s2 == s ? candidate : t.rows[k * nsteps + s2];
      const size_t off = js.table(plan.steps[s2].table_idx).offset;
      std::copy(brow->begin(), brow->end(), scratch->begin() + off);
    }
  };

  // Runs the driver rows [lo, hi) through every join step and emits the
  // surviving tuples into `agg` or `rows_out`. A trailing sort-key
  // column is appended to projected rows when ORDER BY reshuffles them
  // afterwards.
  const bool keyed_sort = out.order_col.has_value();
  std::vector<size_t> needed;  // flat columns the aggregate reads
  for (int c : out.group_cols) needed.push_back(static_cast<size_t>(c));
  for (const AggSpec& spec : out.specs) {
    if (spec.col >= 0) needed.push_back(static_cast<size_t>(spec.col));
  }
  auto probe = [&](size_t lo, size_t hi, ProbeWorker* w,
                   GroupedAggregator* agg,
                   std::vector<Row>* rows_out) -> Status {
    TupleBuf* cur = &w->cur;
    TupleBuf* next = &w->next;
    cur->pos.resize(hi - lo);
    std::iota(cur->pos.begin(), cur->pos.end(), static_cast<uint32_t>(lo));
    cur->rows.clear();
    for (size_t s = 0; s < nsteps; ++s) {
      const JoinStepPlan& step = plan.steps[s];
      next->pos.clear();
      next->rows.clear();
      for (size_t k = 0; k < cur->pos.size(); ++k) {
        const std::vector<const Row*>* hits =
            built[s].ht->Probe(value_at(*cur, k, step.probe_col));
        if (hits == nullptr) continue;
        for (const Row* brow : *hits) {
          if (!step.residuals.empty()) {
            assemble(*cur, k, s, brow, &w->scratch);
            bool keep = true;
            for (const Expr* res : step.residuals) {
              HEDC_ASSIGN_OR_RETURN(Value v, EvalExpr(*res, w->scratch));
              if (!v.AsBool()) {
                keep = false;
                break;
              }
            }
            if (!keep) continue;
          }
          next->pos.push_back(cur->pos[k]);
          for (size_t s2 = 0; s2 < nsteps; ++s2) {
            next->rows.push_back(s2 < s ? cur->rows[k * nsteps + s2]
                                        : (s2 == s ? brow : nullptr));
          }
        }
      }
      std::swap(cur, next);
    }
    for (size_t k = 0; k < cur->pos.size(); ++k) {
      if (out.agg) {
        for (size_t flat : needed) w->scratch[flat] = value_at(*cur, k, flat);
        agg->AccumulateRow(w->scratch, driver[cur->pos[k]].row_id);
        continue;
      }
      Row r;
      r.reserve(out.proj.size() + (keyed_sort ? 1 : 0));
      for (size_t flat : out.proj) r.push_back(value_at(*cur, k, flat));
      if (keyed_sort) r.push_back(value_at(*cur, k, *out.order_col));
      rows_out->push_back(std::move(r));
    }
    return Status::Ok();
  };

  // Many driver rows probe in parallel, in batches claimed off the pool;
  // per-batch slots keep the output in driver order.
  constexpr size_t kProbeBatch = 1024;
  const size_t nbatches = (driver.size() + kProbeBatch - 1) / kProbeBatch;
  const int workers =
      sopts.pool != nullptr &&
              static_cast<int64_t>(driver.size()) >= sopts.min_parallel_rows
          ? static_cast<int>(std::min<size_t>(threads, nbatches))
          : 1;
  GroupedAggregator agg_total(out.group_cols, out.specs);
  std::vector<Row> plain_rows;
  if (workers <= 1) {
    ProbeWorker w;
    w.scratch.resize(js.total_columns());
    HEDC_RETURN_IF_ERROR(
        probe(0, driver.size(), &w, &agg_total, &plain_rows));
  } else {
    std::vector<ProbeWorker> ws(static_cast<size_t>(workers));
    std::vector<GroupedAggregator> partials;
    for (ProbeWorker& w : ws) {
      w.scratch.resize(js.total_columns());
      partials.push_back(agg_total.Fork());
    }
    std::vector<std::vector<Row>> slots(nbatches);
    HEDC_RETURN_IF_ERROR(ParallelClaim(
        sopts.pool, workers, nbatches, [&](int w, size_t b) {
          return probe(b * kProbeBatch,
                       std::min(driver.size(), (b + 1) * kProbeBatch),
                       &ws[static_cast<size_t>(w)],
                       &partials[static_cast<size_t>(w)], &slots[b]);
        }));
    for (const GroupedAggregator& p : partials) agg_total.MergeFrom(p);
    for (std::vector<Row>& slot : slots) {
      for (Row& r : slot) plain_rows.push_back(std::move(r));
    }
  }

  // --- Emit.
  ResultSet result;
  result.columns = std::move(out.columns);
  if (out.agg) {
    agg_total.Emit(out.layout, /*empty_input_row=*/out.group_cols.empty(),
                   &result.rows);
  } else {
    if (keyed_sort) {
      const size_t key_idx = out.proj.size();
      const bool desc = stmt.order_desc;
      std::stable_sort(plain_rows.begin(), plain_rows.end(),
                       [key_idx, desc](const Row& a, const Row& b) {
                         const int cmp = a[key_idx].Compare(b[key_idx]);
                         return desc ? cmp > 0 : cmp < 0;
                       });
      for (Row& r : plain_rows) r.pop_back();
    }
    result.rows = std::move(plain_rows);
  }
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

}  // namespace hedc::db
