#include "db/sql.h"

#include <cctype>
#include <cstring>

#include "core/strings.h"

namespace hedc::db {
namespace {

enum class TokKind {
  kEnd,
  kIdent,
  kInt,
  kReal,
  kString,
  kSymbol,  // punctuation / operators
  kParam,   // '?'
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // ident (upper-cased for keywords kept raw), symbol
  int64_t int_val = 0;
  double real_val = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < sql_.size()) {
      char c = sql_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '-' && i + 1 < sql_.size() && sql_[i + 1] == '-') {
        while (i < sql_.size() && sql_[i] != '\n') ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < sql_.size() &&
               (std::isalnum(static_cast<unsigned char>(sql_[i])) ||
                sql_[i] == '_')) {
          ++i;
        }
        Token t;
        t.kind = TokKind::kIdent;
        t.text = std::string(sql_.substr(start, i - start));
        out->push_back(std::move(t));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && i + 1 < sql_.size() &&
           std::isdigit(static_cast<unsigned char>(sql_[i + 1])))) {
        size_t start = i;
        bool is_real = false;
        while (i < sql_.size() &&
               (std::isdigit(static_cast<unsigned char>(sql_[i])) ||
                sql_[i] == '.' || sql_[i] == 'e' || sql_[i] == 'E' ||
                ((sql_[i] == '+' || sql_[i] == '-') && i > start &&
                 (sql_[i - 1] == 'e' || sql_[i - 1] == 'E')))) {
          if (sql_[i] == '.' || sql_[i] == 'e' || sql_[i] == 'E') {
            is_real = true;
          }
          ++i;
        }
        std::string num(sql_.substr(start, i - start));
        Token t;
        if (is_real) {
          t.kind = TokKind::kReal;
          if (!ParseDouble(num, &t.real_val)) {
            return Status::InvalidArgument("bad numeric literal: " + num);
          }
        } else {
          t.kind = TokKind::kInt;
          if (!ParseInt64(num, &t.int_val)) {
            return Status::InvalidArgument("bad integer literal: " + num);
          }
        }
        out->push_back(std::move(t));
        continue;
      }
      if (c == '\'') {
        ++i;
        std::string s;
        while (true) {
          if (i >= sql_.size()) {
            return Status::InvalidArgument("unterminated string literal");
          }
          if (sql_[i] == '\'') {
            if (i + 1 < sql_.size() && sql_[i + 1] == '\'') {
              s.push_back('\'');
              i += 2;
              continue;
            }
            ++i;
            break;
          }
          s.push_back(sql_[i++]);
        }
        Token t;
        t.kind = TokKind::kString;
        t.text = std::move(s);
        out->push_back(std::move(t));
        continue;
      }
      if (c == '?') {
        Token t;
        t.kind = TokKind::kParam;
        out->push_back(std::move(t));
        ++i;
        continue;
      }
      // Two-char operators first.
      if (i + 1 < sql_.size()) {
        std::string two(sql_.substr(i, 2));
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          Token t;
          t.kind = TokKind::kSymbol;
          t.text = two == "!=" ? "<>" : two;
          out->push_back(std::move(t));
          i += 2;
          continue;
        }
      }
      if (std::strchr("(),*=<>+-/;.", c) != nullptr) {
        Token t;
        t.kind = TokKind::kSymbol;
        t.text = std::string(1, c);
        out->push_back(std::move(t));
        ++i;
        continue;
      }
      return Status::InvalidArgument(
          StrFormat("unexpected character '%c' in SQL", c));
    }
    out->push_back(Token{});  // kEnd
    return Status::Ok();
  }

 private:
  std::string_view sql_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> Parse() {
    auto stmt = std::make_unique<Statement>();
    stmt_ = stmt.get();
    if (IsKeyword("SELECT")) {
      stmt->kind = Statement::Kind::kSelect;
      HEDC_RETURN_IF_ERROR(ParseSelect(&stmt->select));
    } else if (IsKeyword("INSERT")) {
      stmt->kind = Statement::Kind::kInsert;
      HEDC_RETURN_IF_ERROR(ParseInsert(&stmt->insert));
    } else if (IsKeyword("UPDATE")) {
      stmt->kind = Statement::Kind::kUpdate;
      HEDC_RETURN_IF_ERROR(ParseUpdate(&stmt->update));
    } else if (IsKeyword("DELETE")) {
      stmt->kind = Statement::Kind::kDelete;
      HEDC_RETURN_IF_ERROR(ParseDelete(&stmt->del));
    } else if (IsKeyword("CREATE")) {
      HEDC_RETURN_IF_ERROR(ParseCreate(stmt.get()));
    } else if (IsKeyword("DROP")) {
      stmt->kind = Statement::Kind::kDropTable;
      HEDC_RETURN_IF_ERROR(ParseDrop(&stmt->drop_table));
    } else {
      return Status::InvalidArgument("expected a SQL statement, got '" +
                                     Peek().text + "'");
    }
    if (IsSymbol(";")) Advance();
    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing tokens after statement: '" +
                                     Peek().text + "'");
    }
    stmt->num_params = num_params_;
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++pos_; }
  bool IsKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kIdent && EqualsIgnoreCase(t.text, kw);
  }
  bool IsSymbol(std::string_view s, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kSymbol && t.text == s;
  }
  Status Expect(std::string_view kw) {
    if (!IsKeyword(kw)) {
      return Status::InvalidArgument(StrFormat(
          "expected %.*s near '%s'", static_cast<int>(kw.size()), kw.data(),
          Peek().text.c_str()));
    }
    Advance();
    return Status::Ok();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!IsSymbol(s)) {
      return Status::InvalidArgument(StrFormat(
          "expected '%.*s' near '%s'", static_cast<int>(s.size()), s.data(),
          Peek().text.c_str()));
    }
    Advance();
    return Status::Ok();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected identifier, got '" +
                                     Peek().text + "'");
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  // Column reference: ident or qualified table.ident.
  Result<std::string> ExpectColumnName() {
    HEDC_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    if (IsSymbol(".")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      name += "." + col;
    }
    return name;
  }

  static std::optional<AggFunc> AggFromName(std::string_view name) {
    if (EqualsIgnoreCase(name, "COUNT")) return AggFunc::kCount;
    if (EqualsIgnoreCase(name, "MIN")) return AggFunc::kMin;
    if (EqualsIgnoreCase(name, "MAX")) return AggFunc::kMax;
    if (EqualsIgnoreCase(name, "SUM")) return AggFunc::kSum;
    if (EqualsIgnoreCase(name, "AVG")) return AggFunc::kAvg;
    return std::nullopt;
  }

  Status ParseSelect(SelectStmt* out) {
    HEDC_RETURN_IF_ERROR(Expect("SELECT"));
    if (IsSymbol("*")) {
      Advance();
      out->star = true;
    } else {
      while (true) {
        SelectItem item;
        if (Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument("expected select item");
        }
        std::string name = Peek().text;
        auto agg = AggFromName(name);
        if (agg.has_value() && IsSymbol("(", 1)) {
          Advance();  // func name
          Advance();  // '('
          if (IsSymbol("*")) {
            if (*agg != AggFunc::kCount) {
              return Status::InvalidArgument("'*' only valid in COUNT()");
            }
            Advance();
            item.agg = AggFunc::kCountStar;
            item.alias = "COUNT(*)";
          } else {
            HEDC_ASSIGN_OR_RETURN(item.column, ExpectColumnName());
            item.agg = *agg;
            item.alias = ToUpper(name) + "(" + item.column + ")";
          }
          HEDC_RETURN_IF_ERROR(ExpectSymbol(")"));
        } else {
          Advance();
          item.column = name;
          if (IsSymbol(".")) {
            Advance();
            HEDC_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
            item.column += "." + col;
          }
          item.alias = item.column;
        }
        if (IsKeyword("AS")) {
          Advance();
          HEDC_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
        }
        out->items.push_back(std::move(item));
        if (!IsSymbol(",")) break;
        Advance();
      }
    }
    HEDC_RETURN_IF_ERROR(Expect("FROM"));
    HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
    while (IsKeyword("JOIN") || (IsKeyword("INNER") && IsKeyword("JOIN", 1))) {
      if (IsKeyword("INNER")) Advance();
      Advance();  // JOIN
      JoinClause join;
      HEDC_ASSIGN_OR_RETURN(join.table, ExpectIdent());
      HEDC_RETURN_IF_ERROR(Expect("ON"));
      HEDC_ASSIGN_OR_RETURN(join.on, ParseExpr());
      out->joins.push_back(std::move(join));
    }
    if (IsKeyword("WHERE")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(out->where, ParseExpr());
    }
    if (IsKeyword("GROUP")) {
      Advance();
      HEDC_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        HEDC_ASSIGN_OR_RETURN(std::string col, ExpectColumnName());
        out->group_by.push_back(std::move(col));
        if (!IsSymbol(",")) break;
        Advance();
      }
    }
    if (IsKeyword("ORDER")) {
      Advance();
      HEDC_RETURN_IF_ERROR(Expect("BY"));
      HEDC_ASSIGN_OR_RETURN(out->order_by, ExpectColumnName());
      if (IsKeyword("ASC")) {
        Advance();
      } else if (IsKeyword("DESC")) {
        Advance();
        out->order_desc = true;
      }
    }
    if (IsKeyword("LIMIT")) {
      Advance();
      if (Peek().kind != TokKind::kInt) {
        return Status::InvalidArgument("LIMIT expects an integer");
      }
      out->limit = Peek().int_val;
      Advance();
    }
    return Status::Ok();
  }

  Status ParseInsert(InsertStmt* out) {
    HEDC_RETURN_IF_ERROR(Expect("INSERT"));
    HEDC_RETURN_IF_ERROR(Expect("INTO"));
    HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
    if (IsSymbol("(")) {
      Advance();
      while (true) {
        HEDC_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        out->columns.push_back(std::move(col));
        if (IsSymbol(")")) break;
        HEDC_RETURN_IF_ERROR(ExpectSymbol(","));
      }
      Advance();  // ')'
    }
    HEDC_RETURN_IF_ERROR(Expect("VALUES"));
    while (true) {
      HEDC_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<std::unique_ptr<Expr>> row;
      while (true) {
        HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        row.push_back(std::move(e));
        if (IsSymbol(")")) break;
        HEDC_RETURN_IF_ERROR(ExpectSymbol(","));
      }
      Advance();  // ')'
      out->rows.push_back(std::move(row));
      if (!IsSymbol(",")) break;
      Advance();
    }
    return Status::Ok();
  }

  Status ParseUpdate(UpdateStmt* out) {
    HEDC_RETURN_IF_ERROR(Expect("UPDATE"));
    HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
    HEDC_RETURN_IF_ERROR(Expect("SET"));
    while (true) {
      HEDC_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      HEDC_RETURN_IF_ERROR(ExpectSymbol("="));
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      out->assignments.emplace_back(std::move(col), std::move(e));
      if (!IsSymbol(",")) break;
      Advance();
    }
    if (IsKeyword("WHERE")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(out->where, ParseExpr());
    }
    return Status::Ok();
  }

  Status ParseDelete(DeleteStmt* out) {
    HEDC_RETURN_IF_ERROR(Expect("DELETE"));
    HEDC_RETURN_IF_ERROR(Expect("FROM"));
    HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
    if (IsKeyword("WHERE")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(out->where, ParseExpr());
    }
    return Status::Ok();
  }

  Status ParseCreate(Statement* stmt) {
    HEDC_RETURN_IF_ERROR(Expect("CREATE"));
    if (IsKeyword("TABLE")) {
      Advance();
      stmt->kind = Statement::Kind::kCreateTable;
      CreateTableStmt* out = &stmt->create_table;
      if (IsKeyword("IF")) {
        Advance();
        HEDC_RETURN_IF_ERROR(Expect("NOT"));
        HEDC_RETURN_IF_ERROR(Expect("EXISTS"));
        out->if_not_exists = true;
      }
      HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
      HEDC_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<ColumnDef> cols;
      while (true) {
        ColumnDef col;
        HEDC_ASSIGN_OR_RETURN(col.name, ExpectIdent());
        HEDC_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
        if (EqualsIgnoreCase(type_name, "INT") ||
            EqualsIgnoreCase(type_name, "INTEGER") ||
            EqualsIgnoreCase(type_name, "BIGINT")) {
          col.type = ValueType::kInt;
        } else if (EqualsIgnoreCase(type_name, "REAL") ||
                   EqualsIgnoreCase(type_name, "DOUBLE") ||
                   EqualsIgnoreCase(type_name, "FLOAT")) {
          col.type = ValueType::kReal;
        } else if (EqualsIgnoreCase(type_name, "TEXT") ||
                   EqualsIgnoreCase(type_name, "VARCHAR") ||
                   EqualsIgnoreCase(type_name, "STRING")) {
          col.type = ValueType::kText;
          // Tolerate VARCHAR(n).
          if (IsSymbol("(")) {
            Advance();
            if (Peek().kind == TokKind::kInt) Advance();
            HEDC_RETURN_IF_ERROR(ExpectSymbol(")"));
          }
        } else if (EqualsIgnoreCase(type_name, "BOOL") ||
                   EqualsIgnoreCase(type_name, "BOOLEAN")) {
          col.type = ValueType::kBool;
        } else if (EqualsIgnoreCase(type_name, "BLOB")) {
          col.type = ValueType::kBlob;
        } else {
          return Status::InvalidArgument("unknown column type: " + type_name);
        }
        while (true) {
          if (IsKeyword("PRIMARY")) {
            Advance();
            HEDC_RETURN_IF_ERROR(Expect("KEY"));
            col.primary_key = true;
          } else if (IsKeyword("NOT")) {
            Advance();
            HEDC_RETURN_IF_ERROR(Expect("NULL"));
            col.not_null = true;
          } else {
            break;
          }
        }
        cols.push_back(std::move(col));
        if (IsSymbol(")")) break;
        HEDC_RETURN_IF_ERROR(ExpectSymbol(","));
      }
      Advance();  // ')'
      out->schema = Schema(std::move(cols));
      return Status::Ok();
    }
    if (IsKeyword("INDEX")) {
      Advance();
      stmt->kind = Statement::Kind::kCreateIndex;
      CreateIndexStmt* out = &stmt->create_index;
      HEDC_ASSIGN_OR_RETURN(out->index_name, ExpectIdent());
      HEDC_RETURN_IF_ERROR(Expect("ON"));
      HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
      HEDC_RETURN_IF_ERROR(ExpectSymbol("("));
      HEDC_ASSIGN_OR_RETURN(out->column, ExpectIdent());
      HEDC_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (IsKeyword("USING")) {
        Advance();
        HEDC_ASSIGN_OR_RETURN(std::string kind, ExpectIdent());
        if (EqualsIgnoreCase(kind, "HASH")) {
          out->hash = true;
        } else if (!EqualsIgnoreCase(kind, "BTREE")) {
          return Status::InvalidArgument("unknown index kind: " + kind);
        }
      }
      return Status::Ok();
    }
    return Status::InvalidArgument("expected TABLE or INDEX after CREATE");
  }

  Status ParseDrop(DropTableStmt* out) {
    HEDC_RETURN_IF_ERROR(Expect("DROP"));
    HEDC_RETURN_IF_ERROR(Expect("TABLE"));
    if (IsKeyword("IF")) {
      Advance();
      HEDC_RETURN_IF_ERROR(Expect("EXISTS"));
      out->if_exists = true;
    }
    HEDC_ASSIGN_OR_RETURN(out->table, ExpectIdent());
    return Status::Ok();
  }

  // Expression grammar: or_expr := and_expr (OR and_expr)*
  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    while (IsKeyword("OR")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      lhs = Expr::Binary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
    while (IsKeyword("AND")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
      lhs = Expr::Binary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (IsKeyword("NOT")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseNot());
      return Expr::Unary(UnOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());
    // IS [NOT] NULL
    if (IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (IsKeyword("NOT")) {
        Advance();
        negated = true;
      }
      HEDC_RETURN_IF_ERROR(Expect("NULL"));
      return Expr::Unary(negated ? UnOp::kIsNotNull : UnOp::kIsNull,
                         std::move(lhs));
    }
    // [NOT] BETWEEN a AND b / [NOT] LIKE / [NOT] IN (...)
    bool negated = false;
    if (IsKeyword("NOT") &&
        (IsKeyword("BETWEEN", 1) || IsKeyword("LIKE", 1) ||
         IsKeyword("IN", 1))) {
      Advance();
      negated = true;
    }
    if (IsKeyword("BETWEEN")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lo, ParseAdditive());
      HEDC_RETURN_IF_ERROR(Expect("AND"));
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> hi, ParseAdditive());
      auto ge = Expr::Binary(BinOp::kGe, lhs->Clone(), std::move(lo));
      auto le = Expr::Binary(BinOp::kLe, std::move(lhs), std::move(hi));
      auto both = Expr::Binary(BinOp::kAnd, std::move(ge), std::move(le));
      if (negated) return Expr::Unary(UnOp::kNot, std::move(both));
      return both;
    }
    if (IsKeyword("LIKE")) {
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
      auto like = Expr::Binary(BinOp::kLike, std::move(lhs), std::move(rhs));
      if (negated) return Expr::Unary(UnOp::kNot, std::move(like));
      return like;
    }
    if (IsKeyword("IN")) {
      Advance();
      HEDC_RETURN_IF_ERROR(ExpectSymbol("("));
      auto in = std::make_unique<Expr>();
      in->kind = Expr::Kind::kInList;
      in->left = std::move(lhs);
      while (true) {
        HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> item, ParseAdditive());
        in->list.push_back(std::move(item));
        if (IsSymbol(")")) break;
        HEDC_RETURN_IF_ERROR(ExpectSymbol(","));
      }
      Advance();  // ')'
      if (negated) {
        return Expr::Unary(UnOp::kNot, std::move(in));
      }
      return std::unique_ptr<Expr>(std::move(in));
    }
    static const struct {
      const char* sym;
      BinOp op;
    } kOps[] = {
        {"=", BinOp::kEq}, {"<>", BinOp::kNe}, {"<=", BinOp::kLe},
        {">=", BinOp::kGe}, {"<", BinOp::kLt}, {">", BinOp::kGt},
    };
    for (const auto& candidate : kOps) {
      if (IsSymbol(candidate.sym)) {
        Advance();
        HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
        return Expr::Binary(candidate.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
    while (IsSymbol("+") || IsSymbol("-")) {
      BinOp op = IsSymbol("+") ? BinOp::kAdd : BinOp::kSub;
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePrimary());
    while (IsSymbol("*") || IsSymbol("/")) {
      BinOp op = IsSymbol("*") ? BinOp::kMul : BinOp::kDiv;
      Advance();
      HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePrimary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kInt: {
        auto e = Expr::Literal(Value::Int(t.int_val));
        Advance();
        return e;
      }
      case TokKind::kReal: {
        auto e = Expr::Literal(Value::Real(t.real_val));
        Advance();
        return e;
      }
      case TokKind::kString: {
        auto e = Expr::Literal(Value::Text(t.text));
        Advance();
        return e;
      }
      case TokKind::kParam: {
        auto e = Expr::Param(num_params_++);
        Advance();
        return e;
      }
      case TokKind::kIdent: {
        if (EqualsIgnoreCase(t.text, "NULL")) {
          Advance();
          return Expr::Literal(Value::Null());
        }
        if (EqualsIgnoreCase(t.text, "TRUE")) {
          Advance();
          return Expr::Literal(Value::Bool(true));
        }
        if (EqualsIgnoreCase(t.text, "FALSE")) {
          Advance();
          return Expr::Literal(Value::Bool(false));
        }
        std::string name = t.text;
        Advance();
        if (IsSymbol(".")) {
          Advance();
          HEDC_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
          name += "." + col;
        }
        return Expr::Column(std::move(name));
      }
      case TokKind::kSymbol:
        if (t.text == "(") {
          Advance();
          HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
          HEDC_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        if (t.text == "-") {
          Advance();
          HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParsePrimary());
          return Expr::Unary(UnOp::kNeg, std::move(operand));
        }
        break;
      default:
        break;
    }
    return Status::InvalidArgument("unexpected token in expression: '" +
                                   t.text + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int num_params_ = 0;
  Statement* stmt_ = nullptr;
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseSql(std::string_view sql) {
  std::vector<Token> tokens;
  Lexer lexer(sql);
  HEDC_RETURN_IF_ERROR(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace hedc::db
