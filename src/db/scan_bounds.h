// Sargability analysis shared by the executor, the plan explainer and
// the vectorized scan's zone-map pruning: AND-conjunct decomposition,
// per-column literal bounds extracted from a bound WHERE tree, and the
// one index choice made from those bounds.
#ifndef HEDC_DB_SCAN_BOUNDS_H_
#define HEDC_DB_SCAN_BOUNDS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "db/expr.h"
#include "db/table.h"
#include "db/value.h"

namespace hedc::db {

// Per-column sargable bounds extracted from the WHERE conjuncts.
struct ColumnBounds {
  std::optional<Value> eq;
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;

  bool has_range() const { return lo.has_value() || hi.has_value(); }
};

// Collects AND-connected conjuncts (a single non-AND expression is one
// conjunct). Null `e` yields nothing.
void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out);

// If `e` is `col <op> literal` or `literal <op> col` with op in
// {=, <, <=, >, >=} and a non-NULL literal, records/tightens the bound.
void ExtractBound(const Expr* e,
                  std::unordered_map<int, ColumnBounds>* bounds);

// Convenience: conjunct decomposition + bound extraction in one call.
std::unordered_map<int, ColumnBounds> ExtractColumnBounds(const Expr* where);

// How one table's rows under a bound predicate are found: through an
// index (its row ids are candidates; the whole predicate is re-checked
// on each) or by a scan of the heap.
struct AccessPath {
  enum class Kind { kScan, kIndexPoint, kIndexRange };
  Kind kind = Kind::kScan;
  const IndexDef* index = nullptr;  // null for kScan
  std::unordered_map<int, ColumnBounds> bounds;  // of the whole predicate
  // The index's row ids, filled once by FetchCandidates.
  std::vector<int64_t> candidates;
  bool fetched = false;
};

// The index choice every reader of a table makes (executor, join
// estimate, EXPLAIN): an indexed equality first, then an indexed range,
// else a scan. `where` is bound against `table` (null = no predicate).
AccessPath ChooseAccessPath(const Table& table, const Expr* where);

// Looks the candidates of an index path up (once; later calls keep
// them). No-op for a scan.
void FetchCandidates(const Table& table, AccessPath* path);

}  // namespace hedc::db

#endif  // HEDC_DB_SCAN_BOUNDS_H_
