#include "db/vectorized.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>

namespace hedc::db {

namespace {

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

// Mirror the comparison when the literal is on the left (5 > col
// becomes col < 5).
BinOp FlipOp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;  // =, != are symmetric
  }
}

bool OpHolds(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kEq:
      return cmp == 0;
    case BinOp::kNe:
      return cmp != 0;
    case BinOp::kLt:
      return cmp < 0;
    case BinOp::kLe:
      return cmp <= 0;
    case BinOp::kGt:
      return cmp > 0;
    case BinOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

// Compiles one AND-conjunct; appends to plan.kernels unless the
// conjunct is a vacuous TRUE literal.
void CompileConjunct(const Expr* e, FilterPlan* plan) {
  FilterKernel k;
  // Constant conjunct: WHERE TRUE disappears, WHERE FALSE (and the
  // bound-parameter equivalents) kills the scan without touching rows.
  if (e->kind == Expr::Kind::kLiteral) {
    if (e->literal.AsBool()) return;
    k.kind = FilterKernel::Kind::kConstFalse;
    plan->kernels.push_back(std::move(k));
    ++plan->typed;
    return;
  }
  if (e->kind == Expr::Kind::kUnary && e->left &&
      e->left->kind == Expr::Kind::kColumn &&
      (e->un_op == UnOp::kIsNull || e->un_op == UnOp::kIsNotNull)) {
    k.kind = e->un_op == UnOp::kIsNull ? FilterKernel::Kind::kIsNull
                                       : FilterKernel::Kind::kIsNotNull;
    k.col = e->left->column_index;
    plan->kernels.push_back(std::move(k));
    ++plan->typed;
    return;
  }
  if (e->kind == Expr::Kind::kBinary && e->left && e->right) {
    const Expr* l = e->left.get();
    const Expr* r = e->right.get();
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    BinOp op = e->bin_op;
    if (l->kind == Expr::Kind::kColumn && r->kind == Expr::Kind::kLiteral) {
      col = l;
      lit = r;
    } else if (l->kind == Expr::Kind::kLiteral &&
               r->kind == Expr::Kind::kColumn &&
               e->bin_op != BinOp::kLike) {  // LIKE is not symmetric
      col = r;
      lit = l;
      op = FlipOp(e->bin_op);
    }
    if (col != nullptr && (IsComparison(op) || op == BinOp::kLike)) {
      if (lit->literal.is_null()) {
        // <anything> <cmp> NULL and <anything> LIKE NULL are false for
        // every row under the interpreter's NULL rules.
        k.kind = FilterKernel::Kind::kConstFalse;
      } else {
        k.kind = op == BinOp::kLike ? FilterKernel::Kind::kLike
                                    : FilterKernel::Kind::kCompare;
        k.col = col->column_index;
        k.op = op;
        k.literal = &lit->literal;
      }
      plan->kernels.push_back(std::move(k));
      ++plan->typed;
      return;
    }
  }
  if (e->kind == Expr::Kind::kInList && e->left &&
      e->left->kind == Expr::Kind::kColumn) {
    bool all_literal = true;
    for (const auto& item : e->list) {
      if (item->kind != Expr::Kind::kLiteral) {
        all_literal = false;
        break;
      }
    }
    if (all_literal) {
      k.col = e->left->column_index;
      for (const auto& item : e->list) {
        // NULL items never match anything; drop them at compile time
        // (the interpreter skips them per row).
        if (!item->literal.is_null()) k.in_values.push_back(&item->literal);
      }
      k.kind = k.in_values.empty() ? FilterKernel::Kind::kConstFalse
                                   : FilterKernel::Kind::kInList;
      plan->kernels.push_back(std::move(k));
      ++plan->typed;
      return;
    }
  }
  k.kind = FilterKernel::Kind::kInterpret;
  k.expr = e;
  plan->kernels.push_back(std::move(k));
  ++plan->interpreted;
}

// Drops unselected entries in place: keep[j] corresponds to (*sel)[j].
void CompactSel(std::vector<uint32_t>* sel, const std::vector<uint8_t>& keep) {
  size_t w = 0;
  for (size_t j = 0; j < sel->size(); ++j) {
    if (keep[j]) (*sel)[w++] = (*sel)[j];
  }
  sel->resize(w);
}

// Per-kernel keep bitmap, reused across morsels (a fresh vector per
// morsel shows up in scan profiles).
std::vector<uint8_t>* KeepScratch(size_t n) {
  static thread_local std::vector<uint8_t> keep;
  keep.assign(n, 0);
  return &keep;
}

// Runs `cmp(value)` over the selected non-null slots of a typed vector,
// with the comparison operator resolved once outside the loop.
template <typename T, typename Cmp>
void CompareLoop(const std::vector<uint32_t>& sel,
                 const std::vector<uint8_t>& nulls, const T* values,
                 Cmp cmp, std::vector<uint8_t>* keep) {
  for (size_t j = 0; j < sel.size(); ++j) {
    const uint32_t i = sel[j];
    if (nulls[i]) continue;
    (*keep)[j] = cmp(values[i]);
  }
}

template <typename T>
void DispatchCompare(BinOp op, const std::vector<uint32_t>& sel,
                     const std::vector<uint8_t>& nulls, const T* values,
                     T rhs, std::vector<uint8_t>* keep) {
  switch (op) {
    case BinOp::kEq:
      CompareLoop(sel, nulls, values, [rhs](T v) { return v == rhs; }, keep);
      break;
    case BinOp::kNe:
      CompareLoop(sel, nulls, values, [rhs](T v) { return v != rhs; }, keep);
      break;
    case BinOp::kLt:
      CompareLoop(sel, nulls, values, [rhs](T v) { return v < rhs; }, keep);
      break;
    case BinOp::kLe:
      CompareLoop(sel, nulls, values, [rhs](T v) { return v <= rhs; }, keep);
      break;
    case BinOp::kGt:
      CompareLoop(sel, nulls, values, [rhs](T v) { return v > rhs; }, keep);
      break;
    case BinOp::kGe:
      CompareLoop(sel, nulls, values, [rhs](T v) { return v >= rhs; }, keep);
      break;
    default:
      break;
  }
}

void ApplyCompare(const FilterKernel& k, DataChunk* chunk,
                  std::vector<uint32_t>* sel) {
  const FlatColumn& fc = chunk->Flatten(static_cast<size_t>(k.col));
  const Value& lit = *k.literal;
  const ValueType lt = lit.type();
  std::vector<uint8_t>* keep = KeepScratch(sel->size());

  // Typed fast paths replicate Value::Compare's coercion exactly:
  // int/int compares exactly; any other numeric pairing on the double
  // axis; text/text lexicographically. Everything else (text column vs
  // numeric literal, blobs, mixed columns) goes through Compare itself.
  if (fc.uniform && fc.tag == ValueType::kInt && lt == ValueType::kInt) {
    DispatchCompare<int64_t>(k.op, *sel, fc.nulls, fc.ints.data(),
                             lit.int_value(), keep);
  } else if (fc.uniform && fc.tag == ValueType::kReal &&
             (lt == ValueType::kInt || lt == ValueType::kBool ||
              lt == ValueType::kReal)) {
    DispatchCompare<double>(k.op, *sel, fc.nulls, fc.reals.data(),
                            lit.AsReal(), keep);
  } else if (fc.uniform &&
             (fc.tag == ValueType::kInt || fc.tag == ValueType::kBool) &&
             (lt == ValueType::kBool || lt == ValueType::kReal)) {
    const double rhs = lit.AsReal();
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      if (fc.nulls[i]) continue;
      (*keep)[j] =
          OpHolds(k.op, [&] {
            const double v = static_cast<double>(fc.ints[i]);
            return v < rhs ? -1 : (v > rhs ? 1 : 0);
          }());
    }
  } else if (fc.uniform && fc.tag == ValueType::kText &&
             lt == ValueType::kText) {
    const std::string& rhs = lit.text();
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      if (fc.nulls[i]) continue;
      (*keep)[j] = OpHolds(k.op, fc.texts[i]->compare(rhs));
    }
  } else {
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      const Value& v = chunk->row(i)[static_cast<size_t>(k.col)];
      if (v.is_null()) continue;
      (*keep)[j] = OpHolds(k.op, v.Compare(lit));
    }
  }
  CompactSel(sel, *keep);
}

void ApplyLike(const FilterKernel& k, DataChunk* chunk,
               std::vector<uint32_t>* sel) {
  const FlatColumn& fc = chunk->Flatten(static_cast<size_t>(k.col));
  const std::string pattern = k.literal->AsText();
  std::vector<uint8_t>* keep = KeepScratch(sel->size());
  if (fc.uniform && fc.tag == ValueType::kText) {
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      if (fc.nulls[i]) continue;
      (*keep)[j] = LikeMatch(*fc.texts[i], pattern);
    }
  } else {
    // The interpreter LIKEs the printable rendering of non-text values.
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      const Value& v = chunk->row(i)[static_cast<size_t>(k.col)];
      if (v.is_null()) continue;
      (*keep)[j] = LikeMatch(v.AsText(), pattern);
    }
  }
  CompactSel(sel, *keep);
}

void ApplyInList(const FilterKernel& k, DataChunk* chunk,
                 std::vector<uint32_t>* sel) {
  const FlatColumn& fc = chunk->Flatten(static_cast<size_t>(k.col));
  std::vector<uint8_t>* keep = KeepScratch(sel->size());

  bool all_int = fc.uniform && fc.tag == ValueType::kInt;
  if (all_int) {
    for (const Value* v : k.in_values) {
      if (v->type() != ValueType::kInt) {
        all_int = false;
        break;
      }
    }
  }
  if (all_int) {
    std::vector<int64_t> items;
    items.reserve(k.in_values.size());
    for (const Value* v : k.in_values) items.push_back(v->AsInt());
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      if (fc.nulls[i]) continue;
      const int64_t v = fc.ints[i];
      for (int64_t item : items) {
        if (v == item) {
          (*keep)[j] = 1;
          break;
        }
      }
    }
  } else {
    for (size_t j = 0; j < sel->size(); ++j) {
      const uint32_t i = (*sel)[j];
      const Value& v = chunk->row(i)[static_cast<size_t>(k.col)];
      if (v.is_null()) continue;
      for (const Value* item : k.in_values) {
        if (v.Compare(*item) == 0) {
          (*keep)[j] = 1;
          break;
        }
      }
    }
  }
  CompactSel(sel, *keep);
}

void ApplyNullTest(const FilterKernel& k, DataChunk* chunk,
                   std::vector<uint32_t>* sel) {
  const FlatColumn& fc = chunk->Flatten(static_cast<size_t>(k.col));
  const uint8_t want = k.kind == FilterKernel::Kind::kIsNull ? 1 : 0;
  std::vector<uint8_t>* keep = KeepScratch(sel->size());
  for (size_t j = 0; j < sel->size(); ++j) {
    (*keep)[j] = fc.nulls[(*sel)[j]] == want;
  }
  CompactSel(sel, *keep);
}

Status ApplyInterpret(const FilterKernel& k, DataChunk* chunk,
                      std::vector<uint32_t>* sel) {
  std::vector<uint8_t>* keep = KeepScratch(sel->size());
  for (size_t j = 0; j < sel->size(); ++j) {
    const uint32_t i = (*sel)[j];
    auto v = EvalExpr(*k.expr, chunk->row(i));
    if (!v.ok()) return v.status();
    (*keep)[j] = v.value().AsBool();
  }
  CompactSel(sel, *keep);
  return Status::Ok();
}

// True if `probe` orders consistently against a zone endpoint of
// `zone`'s type under Value::Compare. Numeric zones (int/real/bool)
// compare on the double axis against any non-blob probe — int64-to-
// double narrowing is monotone, so interval logic stays sound. Text
// zones order lexicographically, but Compare coerces text to a number
// when probed with a numeric, which does NOT respect lexicographic
// order — only text probes may prune a text zone.
bool ZoneComparable(const Value& zone, const Value& probe) {
  if (probe.is_null() || probe.type() == ValueType::kBlob) return false;
  switch (zone.type()) {
    case ValueType::kInt:
    case ValueType::kReal:
    case ValueType::kBool:
      return true;
    case ValueType::kText:
      return probe.type() == ValueType::kText;
    default:
      return false;
  }
}

}  // namespace

FilterPlan CompileFilter(const Expr* where) {
  FilterPlan plan;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  plan.kernels.reserve(conjuncts.size());
  for (const Expr* e : conjuncts) CompileConjunct(e, &plan);
  return plan;
}

Status ApplyFilter(const FilterPlan& plan, DataChunk* chunk,
                   std::vector<uint32_t>* sel) {
  for (const FilterKernel& k : plan.kernels) {
    if (sel->empty()) break;
    switch (k.kind) {
      case FilterKernel::Kind::kCompare:
        ApplyCompare(k, chunk, sel);
        break;
      case FilterKernel::Kind::kLike:
        ApplyLike(k, chunk, sel);
        break;
      case FilterKernel::Kind::kInList:
        ApplyInList(k, chunk, sel);
        break;
      case FilterKernel::Kind::kIsNull:
      case FilterKernel::Kind::kIsNotNull:
        ApplyNullTest(k, chunk, sel);
        break;
      case FilterKernel::Kind::kConstFalse:
        sel->clear();
        break;
      case FilterKernel::Kind::kInterpret: {
        Status s = ApplyInterpret(k, chunk, sel);
        if (!s.ok()) return s;
        break;
      }
    }
  }
  return Status::Ok();
}

bool MorselMayMatch(const Table::Morsel& m, size_t col,
                    const ColumnBounds& b) {
  if (col >= m.zmin.size() || !m.zone_ok[col]) return true;
  if (!b.eq.has_value() && !b.has_range()) return true;
  const Value& zmin = m.zmin[col];
  const Value& zmax = m.zmax[col];
  // No non-null value was ever placed in this morsel's column: every
  // live value is NULL and no sargable bound matches NULL.
  if (zmin.is_null()) return false;

  auto excluded_below = [&](const Value& lo, bool inclusive) {
    if (!ZoneComparable(zmax, lo)) return false;
    const int c = zmax.Compare(lo);
    return c < 0 || (c == 0 && !inclusive);
  };
  auto excluded_above = [&](const Value& hi, bool inclusive) {
    if (!ZoneComparable(zmin, hi)) return false;
    const int c = zmin.Compare(hi);
    return c > 0 || (c == 0 && !inclusive);
  };

  if (b.eq.has_value() &&
      (excluded_below(*b.eq, true) || excluded_above(*b.eq, true))) {
    return false;
  }
  if (b.lo.has_value() && excluded_below(*b.lo, b.lo_inclusive)) return false;
  if (b.hi.has_value() && excluded_above(*b.hi, b.hi_inclusive)) return false;
  return true;
}

void PruneMorsels(const Table& table,
                  const std::unordered_map<int, ColumnBounds>& bounds,
                  std::vector<const Table::Morsel*>* out, int64_t* pruned) {
  std::vector<const Table::Morsel*> all;
  table.ListMorsels(&all);
  for (const Table::Morsel* m : all) {
    bool may_match = true;
    for (const auto& [col, b] : bounds) {
      if (col < 0) continue;
      if (!MorselMayMatch(*m, static_cast<size_t>(col), b)) {
        may_match = false;
        break;
      }
    }
    if (may_match) {
      out->push_back(m);
    } else if (pruned != nullptr) {
      ++(*pruned);
    }
  }
}

int PlannedScanThreads(const Table& table, const ScanOptions& opts) {
  if (opts.threads <= 1) return 1;
  if (static_cast<int64_t>(table.num_rows()) < opts.min_parallel_rows) {
    return 1;
  }
  const int64_t morsels = static_cast<int64_t>(table.num_morsels());
  const int64_t t = std::min<int64_t>(opts.threads, morsels);
  return t < 1 ? 1 : static_cast<int>(t);
}

Status ParallelClaim(ThreadPool* pool, int threads, size_t items,
                     const std::function<Status(int, size_t)>& body,
                     int* used) {
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable done_cv;
  Status first_error = Status::Ok();
  int launched = 0;
  int done = 0;
  auto worker = [&](int w) {
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items) break;
      Status s = body(w, i);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = std::move(s);
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  for (int w = 1; pool != nullptr && w < threads; ++w) {
    const bool ok = pool->TrySubmit([&, w] {
      worker(w);
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      done_cv.notify_all();
    });
    if (ok) ++launched;
  }
  worker(0);
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return done == launched; });
  }
  if (used != nullptr) *used = launched + 1;
  return first_error;
}

namespace {

// The morsels a scan of `table` under `where` visits: all of them, or
// those the zone maps cannot rule out.
void ScanMorsels(const Table& table, const Expr* where, bool zone_maps,
                 std::vector<const Table::Morsel*>* out, ScanStats* stats) {
  stats->morsels_total = static_cast<int64_t>(table.num_morsels());
  if (zone_maps && where != nullptr) {
    const auto bounds = ExtractColumnBounds(where);
    if (!bounds.empty()) {
      PruneMorsels(table, bounds, out, &stats->morsels_pruned);
      return;
    }
  }
  table.ListMorsels(out);
}

// One scan worker's reusable buffers and its share of the counts.
struct WorkerScratch {
  DataChunk chunk;
  std::vector<uint32_t> sel;
  int64_t scanned = 0;
  int64_t matched = 0;
};

// Fills `ws.chunk` from `m` and leaves the rows passing `plan` in
// `ws.sel`.
Status FilterMorsel(const Table& table, const Table::Morsel& m,
                    const FilterPlan& plan, WorkerScratch* ws) {
  table.FillChunk(m, &ws->chunk);
  ws->sel.resize(ws->chunk.size());
  std::iota(ws->sel.begin(), ws->sel.end(), 0);
  HEDC_RETURN_IF_ERROR(ApplyFilter(plan, &ws->chunk, &ws->sel));
  ws->scanned += static_cast<int64_t>(ws->chunk.size());
  ws->matched += static_cast<int64_t>(ws->sel.size());
  return Status::Ok();
}

// Appends the rows FilterMorsel kept. No reserve here: exact-fit reserve
// per morsel would defeat push_back's geometric growth and turn large
// result sets quadratic.
void AppendMatches(const WorkerScratch& ws, std::vector<ScanMatch>* out) {
  for (uint32_t i : ws.sel) {
    out->push_back(ScanMatch{ws.chunk.row_id(i), ws.chunk.row_ptr(i)});
  }
}

void AddCounts(const WorkerScratch& ws, ScanStats* stats) {
  stats->rows_scanned += ws.scanned;
  stats->rows_matched += ws.matched;
}

}  // namespace

Status ScanFilter(const Table& table, const Expr* where,
                  const ScanOptions& opts, std::vector<ScanMatch>* out,
                  ScanStats* stats) {
  const FilterPlan plan = CompileFilter(where);
  std::vector<const Table::Morsel*> morsels;
  ScanMorsels(table, where, opts.zone_maps, &morsels, stats);

  const int threads =
      opts.pool != nullptr ? PlannedScanThreads(table, opts) : 1;
  if (threads <= 1 || morsels.size() <= 1) {
    stats->threads_used = 1;
    WorkerScratch ws;
    Status status = Status::Ok();
    for (const Table::Morsel* m : morsels) {
      status = FilterMorsel(table, *m, plan, &ws);
      if (!status.ok()) break;
      AppendMatches(ws, out);
    }
    AddCounts(ws, stats);
    return status;
  }

  // Morsel-driven dispatch: survivors land in per-morsel slots and are
  // merged afterwards, keeping ascending row-id output order. Note: a
  // worker may evaluate rows the serial path would never reach past an
  // interpreter error, so WHICH error surfaces (not whether) can differ
  // from the serial path.
  std::vector<std::vector<ScanMatch>> slots(morsels.size());
  std::vector<WorkerScratch> scratch(static_cast<size_t>(threads));
  const Status status = ParallelClaim(
      opts.pool, threads, morsels.size(),
      [&](int w, size_t i) {
        WorkerScratch& ws = scratch[static_cast<size_t>(w)];
        HEDC_RETURN_IF_ERROR(FilterMorsel(table, *morsels[i], plan, &ws));
        AppendMatches(ws, &slots[i]);
        return Status::Ok();
      },
      &stats->threads_used);
  for (const WorkerScratch& ws : scratch) AddCounts(ws, stats);
  HEDC_RETURN_IF_ERROR(status);
  size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  out->reserve(out->size() + total);
  for (auto& slot : slots) {
    out->insert(out->end(), slot.begin(), slot.end());
  }
  return Status::Ok();
}

// ---- Grouped aggregation ----

namespace {
// Group-key column separator: unlikely in data, and single-column keys
// (the common case) carry no separator at all, matching the historical
// AsText group keys byte for byte.
constexpr char kKeySep = '\x1f';
}  // namespace

GroupedAggregator::GroupedAggregator(std::vector<int> group_cols,
                                     std::vector<AggSpec> specs)
    : group_cols_(std::move(group_cols)), specs_(std::move(specs)) {}

GroupedAggregator GroupedAggregator::Fork() const {
  return GroupedAggregator(group_cols_, specs_);
}

size_t GroupedAggregator::Intern(const std::string& key, int64_t seq,
                                 const Value* kv, size_t nkv) {
  auto [it, inserted] = index_.try_emplace(key, groups_.size());
  if (inserted) {
    Group g;
    g.key = key;
    g.key_vals.assign(kv, kv + nkv);
    g.first_seen = seq;
    g.items.resize(specs_.size());
    groups_.push_back(std::move(g));
  } else if (seq < groups_[it->second].first_seen) {
    groups_[it->second].first_seen = seq;
  }
  return it->second;
}

std::string GroupedAggregator::BuildKey(const Row& row) const {
  std::string key;
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    if (i > 0) key.push_back(kKeySep);
    key += row[static_cast<size_t>(group_cols_[i])].AsText();
  }
  return key;
}

void GroupedAggregator::UpdateMinMax(ItemAgg* a, const Value& v) {
  if (!a->any) {
    a->vmin = v;
    a->vmax = v;
    return;
  }
  if (v.Compare(a->vmin) < 0) a->vmin = v;
  if (v.Compare(a->vmax) > 0) a->vmax = v;
}

void GroupedAggregator::AccumulateItems(Group* g, const Row& row) {
  ++g->rows;
  for (size_t k = 0; k < specs_.size(); ++k) {
    const AggSpec& spec = specs_[k];
    if (spec.col < 0) continue;
    const Value& v = row[static_cast<size_t>(spec.col)];
    if (v.is_null()) continue;
    ItemAgg& a = g->items[k];
    a.sum += v.AsReal();
    UpdateMinMax(&a, v);
    ++a.nonnull;
    a.any = true;
  }
}

void GroupedAggregator::AccumulateRow(const Row& row, int64_t seq) {
  size_t slot;
  if (group_cols_.empty()) {
    slot = Intern(std::string(), seq, nullptr, 0);
  } else {
    std::vector<Value> kv;
    kv.reserve(group_cols_.size());
    for (int c : group_cols_) kv.push_back(row[static_cast<size_t>(c)]);
    slot = Intern(BuildKey(row), seq, kv.data(), kv.size());
  }
  AccumulateItems(&groups_[slot], row);
}

void GroupedAggregator::AccumulateChunk(DataChunk* chunk,
                                        const std::vector<uint32_t>& sel) {
  if (sel.empty()) return;
  gids_.resize(sel.size());

  // Pass 1: group-id per selected row.
  if (group_cols_.empty()) {
    const size_t slot = Intern(std::string(), chunk->row_id(sel[0]), nullptr, 0);
    std::fill(gids_.begin(), gids_.end(), static_cast<uint32_t>(slot));
  } else if (group_cols_.size() == 1) {
    const size_t gc = static_cast<size_t>(group_cols_[0]);
    const FlatColumn& fc = chunk->Flatten(gc);
    auto generic = [&](size_t j, uint32_t i) {
      const Value& v = chunk->row(i)[gc];
      gids_[j] = static_cast<uint32_t>(
          Intern(v.AsText(), chunk->row_id(i), &v, 1));
    };
    if (fc.uniform && fc.tag == ValueType::kInt) {
      for (size_t j = 0; j < sel.size(); ++j) {
        const uint32_t i = sel[j];
        if (fc.nulls[i]) {
          generic(j, i);
          continue;
        }
        const int64_t v = fc.ints[i];
        auto it = int_memo_.find(v);
        if (it == int_memo_.end()) {
          const Value& boxed = chunk->row(i)[gc];
          it = int_memo_
                   .emplace(v, Intern(std::to_string(v), chunk->row_id(i),
                                      &boxed, 1))
                   .first;
        } else if (chunk->row_id(i) < groups_[it->second].first_seen) {
          groups_[it->second].first_seen = chunk->row_id(i);
        }
        gids_[j] = static_cast<uint32_t>(it->second);
      }
    } else if (fc.uniform && fc.tag == ValueType::kText) {
      for (size_t j = 0; j < sel.size(); ++j) {
        const uint32_t i = sel[j];
        if (fc.nulls[i]) {
          generic(j, i);
          continue;
        }
        const Value& boxed = chunk->row(i)[gc];
        gids_[j] = static_cast<uint32_t>(
            Intern(*fc.texts[i], chunk->row_id(i), &boxed, 1));
      }
    } else {
      for (size_t j = 0; j < sel.size(); ++j) generic(j, sel[j]);
    }
  } else {
    std::vector<Value> kv;
    for (size_t j = 0; j < sel.size(); ++j) {
      const uint32_t i = sel[j];
      const Row& row = chunk->row(i);
      kv.clear();
      for (int c : group_cols_) kv.push_back(row[static_cast<size_t>(c)]);
      gids_[j] = static_cast<uint32_t>(
          Intern(BuildKey(row), chunk->row_id(i), kv.data(), kv.size()));
    }
  }

  // Pass 2: COUNT(*) bookkeeping.
  for (size_t j = 0; j < sel.size(); ++j) ++groups_[gids_[j]].rows;

  // Pass 3: one typed kernel per aggregate column.
  for (size_t k = 0; k < specs_.size(); ++k) {
    const AggSpec& spec = specs_[k];
    if (spec.col < 0) continue;
    const size_t col = static_cast<size_t>(spec.col);
    const FlatColumn& fc = chunk->Flatten(col);
    if (fc.uniform && fc.tag == ValueType::kInt) {
      for (size_t j = 0; j < sel.size(); ++j) {
        const uint32_t i = sel[j];
        if (fc.nulls[i]) continue;
        ItemAgg& a = groups_[gids_[j]].items[k];
        a.sum += static_cast<double>(fc.ints[i]);
        UpdateMinMax(&a, chunk->row(i)[col]);
        ++a.nonnull;
        a.any = true;
      }
    } else if (fc.uniform && fc.tag == ValueType::kReal) {
      for (size_t j = 0; j < sel.size(); ++j) {
        const uint32_t i = sel[j];
        if (fc.nulls[i]) continue;
        ItemAgg& a = groups_[gids_[j]].items[k];
        a.sum += fc.reals[i];
        UpdateMinMax(&a, chunk->row(i)[col]);
        ++a.nonnull;
        a.any = true;
      }
    } else {
      for (size_t j = 0; j < sel.size(); ++j) {
        const uint32_t i = sel[j];
        const Value& v = chunk->row(i)[col];
        if (v.is_null()) continue;
        ItemAgg& a = groups_[gids_[j]].items[k];
        a.sum += v.AsReal();
        UpdateMinMax(&a, v);
        ++a.nonnull;
        a.any = true;
      }
    }
  }
}

void GroupedAggregator::MergeFrom(const GroupedAggregator& other) {
  for (const Group& og : other.groups_) {
    const size_t slot =
        Intern(og.key, og.first_seen, og.key_vals.data(), og.key_vals.size());
    Group& g = groups_[slot];
    g.rows += og.rows;
    for (size_t k = 0; k < specs_.size(); ++k) {
      const ItemAgg& oa = og.items[k];
      if (oa.nonnull == 0 && !oa.any) continue;
      ItemAgg& a = g.items[k];
      a.nonnull += oa.nonnull;
      a.sum += oa.sum;
      if (oa.any) {
        UpdateMinMax(&a, oa.vmin);
        a.any = true;  // before the max, or it overwrites the min
        UpdateMinMax(&a, oa.vmax);
      }
    }
  }
}

void GroupedAggregator::Emit(const std::vector<OutputSlot>& layout,
                             bool empty_input_row,
                             std::vector<Row>* out) const {
  if (groups_.empty()) {
    if (!empty_input_row || !group_cols_.empty()) return;
    Row row;
    row.reserve(layout.size());
    for (const OutputSlot& slot : layout) {
      const bool is_count =
          !slot.group_key && (specs_[slot.index].func == AggFunc::kCount ||
                              specs_[slot.index].func == AggFunc::kCountStar);
      row.push_back(is_count ? Value::Int(0) : Value::Null());
    }
    out->push_back(std::move(row));
    return;
  }
  std::vector<size_t> order(groups_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return groups_[a].first_seen < groups_[b].first_seen;
  });
  out->reserve(out->size() + order.size());
  for (size_t gi : order) {
    const Group& g = groups_[gi];
    Row row;
    row.reserve(layout.size());
    for (const OutputSlot& slot : layout) {
      if (slot.group_key) {
        row.push_back(g.key_vals[slot.index]);
        continue;
      }
      const ItemAgg& a = g.items[slot.index];
      switch (specs_[slot.index].func) {
        case AggFunc::kCountStar:
          row.push_back(Value::Int(g.rows));
          break;
        case AggFunc::kCount:
          row.push_back(Value::Int(a.nonnull));
          break;
        case AggFunc::kMin:
          row.push_back(a.any ? a.vmin : Value::Null());
          break;
        case AggFunc::kMax:
          row.push_back(a.any ? a.vmax : Value::Null());
          break;
        case AggFunc::kSum:
          row.push_back(a.any ? Value::Real(a.sum) : Value::Null());
          break;
        case AggFunc::kAvg:
          row.push_back(a.nonnull > 0
                            ? Value::Real(a.sum /
                                          static_cast<double>(a.nonnull))
                            : Value::Null());
          break;
        case AggFunc::kNone:
          row.push_back(Value::Null());  // unreachable: layout maps kNone
          break;                         // items to group-key slots
      }
    }
    out->push_back(std::move(row));
  }
}

Status ScanAggregate(const Table& table, const Expr* where,
                     const ScanOptions& opts, GroupedAggregator* agg,
                     ScanStats* stats) {
  const FilterPlan plan = CompileFilter(where);
  std::vector<const Table::Morsel*> morsels;
  ScanMorsels(table, where, opts.zone_maps, &morsels, stats);

  const int threads =
      opts.pool != nullptr ? PlannedScanThreads(table, opts) : 1;
  if (threads <= 1 || morsels.size() <= 1) {
    stats->threads_used = 1;
    WorkerScratch ws;
    Status status = Status::Ok();
    for (const Table::Morsel* m : morsels) {
      status = FilterMorsel(table, *m, plan, &ws);
      if (!status.ok()) break;
      agg->AccumulateChunk(&ws.chunk, ws.sel);
    }
    AddCounts(ws, stats);
    return status;
  }

  // Morsel-driven claim loop as in ScanFilter; each worker owns a
  // partial aggregator merged into `agg` once every claim is drained.
  std::vector<GroupedAggregator> partials;
  partials.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) partials.push_back(agg->Fork());
  std::vector<WorkerScratch> scratch(static_cast<size_t>(threads));
  const Status status = ParallelClaim(
      opts.pool, threads, morsels.size(),
      [&](int w, size_t i) {
        WorkerScratch& ws = scratch[static_cast<size_t>(w)];
        HEDC_RETURN_IF_ERROR(FilterMorsel(table, *morsels[i], plan, &ws));
        partials[static_cast<size_t>(w)].AccumulateChunk(&ws.chunk, ws.sel);
        return Status::Ok();
      },
      &stats->threads_used);
  for (const WorkerScratch& ws : scratch) AddCounts(ws, stats);
  HEDC_RETURN_IF_ERROR(status);
  for (const GroupedAggregator& partial : partials) agg->MergeFrom(partial);
  return Status::Ok();
}

}  // namespace hedc::db
