#include "db/scan_bounds.h"

namespace hedc::db {

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kBinary && e->bin_op == BinOp::kAnd) {
    CollectConjuncts(e->left.get(), out);
    CollectConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

void ExtractBound(const Expr* e,
                  std::unordered_map<int, ColumnBounds>* bounds) {
  if (e->kind != Expr::Kind::kBinary) return;
  BinOp op = e->bin_op;
  if (op != BinOp::kEq && op != BinOp::kLt && op != BinOp::kLe &&
      op != BinOp::kGt && op != BinOp::kGe) {
    return;
  }
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  bool flipped = false;
  if (e->left->kind == Expr::Kind::kColumn &&
      e->right->kind == Expr::Kind::kLiteral) {
    col = e->left.get();
    lit = e->right.get();
  } else if (e->right->kind == Expr::Kind::kColumn &&
             e->left->kind == Expr::Kind::kLiteral) {
    col = e->right.get();
    lit = e->left.get();
    flipped = true;
  } else {
    return;
  }
  if (lit->literal.is_null()) return;
  if (flipped) {
    // literal < col  ≡  col > literal, etc.
    switch (op) {
      case BinOp::kLt:
        op = BinOp::kGt;
        break;
      case BinOp::kLe:
        op = BinOp::kGe;
        break;
      case BinOp::kGt:
        op = BinOp::kLt;
        break;
      case BinOp::kGe:
        op = BinOp::kLe;
        break;
      default:
        break;
    }
  }
  ColumnBounds& b = (*bounds)[col->column_index];
  switch (op) {
    case BinOp::kEq:
      b.eq = lit->literal;
      break;
    case BinOp::kLt:
      if (!b.hi || lit->literal.Compare(*b.hi) < 0) {
        b.hi = lit->literal;
        b.hi_inclusive = false;
      }
      break;
    case BinOp::kLe:
      if (!b.hi || lit->literal.Compare(*b.hi) < 0) {
        b.hi = lit->literal;
        b.hi_inclusive = true;
      }
      break;
    case BinOp::kGt:
      if (!b.lo || lit->literal.Compare(*b.lo) > 0) {
        b.lo = lit->literal;
        b.lo_inclusive = false;
      }
      break;
    case BinOp::kGe:
      if (!b.lo || lit->literal.Compare(*b.lo) > 0) {
        b.lo = lit->literal;
        b.lo_inclusive = true;
      }
      break;
    default:
      break;
  }
}

std::unordered_map<int, ColumnBounds> ExtractColumnBounds(const Expr* where) {
  std::unordered_map<int, ColumnBounds> bounds;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) ExtractBound(c, &bounds);
  return bounds;
}


AccessPath ChooseAccessPath(const Table& table, const Expr* where) {
  AccessPath path;
  path.bounds = ExtractColumnBounds(where);
  for (const auto& [col, b] : path.bounds) {
    if (!b.eq.has_value()) continue;
    path.index = table.FindIndex(static_cast<size_t>(col), /*need_range=*/false);
    if (path.index != nullptr) {
      path.kind = AccessPath::Kind::kIndexPoint;
      return path;
    }
  }
  for (const auto& [col, b] : path.bounds) {
    if (!b.has_range()) continue;
    path.index = table.FindIndex(static_cast<size_t>(col), /*need_range=*/true);
    if (path.index != nullptr) {
      path.kind = AccessPath::Kind::kIndexRange;
      return path;
    }
  }
  return path;
}

void FetchCandidates(const Table& table, AccessPath* path) {
  if (path->kind == AccessPath::Kind::kScan || path->fetched) return;
  path->fetched = true;
  const ColumnBounds& b = path->bounds.at(static_cast<int>(path->index->column));
  if (path->kind == AccessPath::Kind::kIndexPoint) {
    table.IndexLookup(*path->index, *b.eq, &path->candidates);
  } else {
    table.IndexRange(*path->index, b.lo, b.lo_inclusive, b.hi, b.hi_inclusive,
                     &path->candidates);
  }
}

}  // namespace hedc::db
