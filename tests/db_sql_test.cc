// SQL lexer/parser tests.
#include <gtest/gtest.h>

#include "db/sql.h"

namespace hedc::db {
namespace {

TEST(SqlParserTest, SimpleSelect) {
  auto r = ParseSql("SELECT * FROM hle");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Statement& s = *r.value();
  EXPECT_EQ(s.kind, Statement::Kind::kSelect);
  EXPECT_TRUE(s.select.star);
  EXPECT_EQ(s.select.table, "hle");
  EXPECT_EQ(s.select.where, nullptr);
}

TEST(SqlParserTest, SelectWithWhereOrderLimit) {
  auto r = ParseSql(
      "SELECT event_id, peak_energy FROM hle "
      "WHERE start_time >= 100 AND start_time < 200 "
      "ORDER BY peak_energy DESC LIMIT 10;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& sel = r.value()->select;
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[0].column, "event_id");
  EXPECT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.order_by, "peak_energy");
  EXPECT_TRUE(sel.order_desc);
  EXPECT_EQ(sel.limit, 10);
}

TEST(SqlParserTest, Aggregates) {
  auto r = ParseSql(
      "SELECT COUNT(*), MIN(e), MAX(e), SUM(e), AVG(e) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& sel = r.value()->select;
  ASSERT_EQ(sel.items.size(), 5u);
  EXPECT_EQ(sel.items[0].agg, AggFunc::kCountStar);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kMin);
  EXPECT_EQ(sel.items[2].agg, AggFunc::kMax);
  EXPECT_EQ(sel.items[3].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[4].agg, AggFunc::kAvg);
}

TEST(SqlParserTest, GroupBy) {
  auto r = ParseSql("SELECT event_type, COUNT(*) FROM hle GROUP BY event_type");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value()->select.group_by.size(), 1u);
  EXPECT_EQ(r.value()->select.group_by[0], "event_type");
}

TEST(SqlParserTest, GroupByMultipleColumns) {
  auto r = ParseSql(
      "SELECT event_type, run_id, COUNT(*), SUM(peak_energy) FROM hle "
      "GROUP BY event_type, run_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& sel = r.value()->select;
  ASSERT_EQ(sel.group_by.size(), 2u);
  EXPECT_EQ(sel.group_by[0], "event_type");
  EXPECT_EQ(sel.group_by[1], "run_id");
}

TEST(SqlParserTest, JoinWithOn) {
  auto r = ParseSql(
      "SELECT le.rel_path, archives.path_prefix FROM le "
      "JOIN archives ON le.archive_id = archives.archive_id "
      "WHERE le.item_id = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& sel = r.value()->select;
  EXPECT_EQ(sel.table, "le");
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_EQ(sel.joins[0].table, "archives");
  ASSERT_NE(sel.joins[0].on, nullptr);
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[0].column, "le.rel_path");
  EXPECT_EQ(sel.items[1].column, "archives.path_prefix");
}

TEST(SqlParserTest, InnerJoinChain) {
  auto r = ParseSql(
      "SELECT a.x FROM a INNER JOIN b ON a.id = b.id "
      "JOIN c ON b.cid = c.cid AND c.flag = TRUE");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& sel = r.value()->select;
  ASSERT_EQ(sel.joins.size(), 2u);
  EXPECT_EQ(sel.joins[0].table, "b");
  EXPECT_EQ(sel.joins[1].table, "c");
}

TEST(SqlParserTest, JoinRequiresOn) {
  auto r = ParseSql("SELECT * FROM a JOIN b");
  EXPECT_FALSE(r.ok());
}

TEST(SqlParserTest, QualifiedAggregateArgument) {
  auto r = ParseSql(
      "SELECT COUNT(*), MAX(t.v) FROM t JOIN u ON t.id = u.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& sel = r.value()->select;
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kMax);
  EXPECT_EQ(sel.items[1].column, "t.v");
}

TEST(SqlParserTest, InsertWithColumns) {
  auto r = ParseSql(
      "INSERT INTO users (user_id, name) VALUES (1, 'alice'), (2, 'bob')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const InsertStmt& ins = r.value()->insert;
  EXPECT_EQ(ins.table, "users");
  ASSERT_EQ(ins.columns.size(), 2u);
  ASSERT_EQ(ins.rows.size(), 2u);
}

TEST(SqlParserTest, InsertWithoutColumns) {
  auto r = ParseSql("INSERT INTO t VALUES (1, 2.5, 'x', TRUE, NULL)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value()->insert.rows[0].size(), 5u);
}

TEST(SqlParserTest, UpdateStatement) {
  auto r = ParseSql("UPDATE ana SET is_public = TRUE, note = 'ok' "
                    "WHERE ana_id = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const UpdateStmt& up = r.value()->update;
  EXPECT_EQ(up.table, "ana");
  ASSERT_EQ(up.assignments.size(), 2u);
  EXPECT_EQ(up.assignments[0].first, "is_public");
  EXPECT_NE(up.where, nullptr);
}

TEST(SqlParserTest, DeleteStatement) {
  auto r = ParseSql("DELETE FROM hle WHERE owner = 'eve'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->del.table, "hle");
}

TEST(SqlParserTest, CreateTable) {
  auto r = ParseSql(
      "CREATE TABLE hle (hle_id INT PRIMARY KEY, start REAL NOT NULL, "
      "label VARCHAR(64), active BOOL, payload BLOB)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CreateTableStmt& ct = r.value()->create_table;
  EXPECT_EQ(ct.table, "hle");
  ASSERT_EQ(ct.schema.num_columns(), 5u);
  EXPECT_TRUE(ct.schema.column(0).primary_key);
  EXPECT_EQ(ct.schema.column(1).type, ValueType::kReal);
  EXPECT_TRUE(ct.schema.column(1).not_null);
  EXPECT_EQ(ct.schema.column(2).type, ValueType::kText);
  EXPECT_EQ(ct.schema.column(4).type, ValueType::kBlob);
}

TEST(SqlParserTest, CreateTableIfNotExists) {
  auto r = ParseSql("CREATE TABLE IF NOT EXISTS t (a INT)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value()->create_table.if_not_exists);
}

TEST(SqlParserTest, CreateIndex) {
  auto r = ParseSql("CREATE INDEX hle_by_time ON hle (start_time)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CreateIndexStmt& ci = r.value()->create_index;
  EXPECT_EQ(ci.index_name, "hle_by_time");
  EXPECT_FALSE(ci.hash);

  auto h = ParseSql("CREATE INDEX loc ON location (item_id) USING HASH");
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h.value()->create_index.hash);
}

TEST(SqlParserTest, DropTable) {
  auto r = ParseSql("DROP TABLE IF EXISTS tmp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value()->drop_table.if_exists);
}

// Multi-statement atomicity is Database::ExecuteAtomically; the dialect
// has no transaction statements.
TEST(SqlParserTest, TransactionKeywords) {
  for (const char* sql : {"BEGIN", "COMMIT", "ROLLBACK"}) {
    EXPECT_EQ(ParseSql(sql).status().code(), StatusCode::kInvalidArgument)
        << sql;
  }
}

TEST(SqlParserTest, ParamsCounted) {
  auto r = ParseSql("SELECT * FROM t WHERE a = ? AND b BETWEEN ? AND ?");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->num_params, 3);
}

TEST(SqlParserTest, BetweenAndLikeAndIn) {
  auto r = ParseSql(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND name LIKE 'fl%' "
      "AND kind IN ('flare', 'grb') AND note IS NOT NULL");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(SqlParserTest, NotVariants) {
  ASSERT_TRUE(ParseSql("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2").ok());
  ASSERT_TRUE(ParseSql("SELECT * FROM t WHERE a NOT LIKE 'x%'").ok());
  ASSERT_TRUE(ParseSql("SELECT * FROM t WHERE a NOT IN (1, 2)").ok());
  ASSERT_TRUE(ParseSql("SELECT * FROM t WHERE NOT (a = 1)").ok());
}

TEST(SqlParserTest, StringEscapes) {
  auto r = ParseSql("INSERT INTO t VALUES ('it''s')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(SqlParserTest, LineComments) {
  auto r = ParseSql("SELECT * FROM t -- trailing comment\nWHERE a = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELEC * FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(ParseSql("CREATE TABLE t (a UNKNOWNTYPE)").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra junk").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE s = 'unterminated").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE a @ 1").ok());
  EXPECT_FALSE(ParseSql("SELECT MIN(*) FROM t").ok());
}

TEST(SqlParserTest, NegativeNumbers) {
  auto r = ParseSql("SELECT * FROM t WHERE a > -5 AND b < -2.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(SqlParserTest, NotEqualSpellings) {
  ASSERT_TRUE(ParseSql("SELECT * FROM t WHERE a <> 1").ok());
  ASSERT_TRUE(ParseSql("SELECT * FROM t WHERE a != 1").ok());
}

TEST(SqlParserTest, SelectItemAlias) {
  auto r = ParseSql("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->select.items[0].alias, "n");
}

}  // namespace
}  // namespace hedc::db
