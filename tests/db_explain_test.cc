// Plan explanation tests: ExplainSelect must agree with the executor's
// actual access-path choice (validated via the stats counters).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "db/explain.h"

namespace hedc::db {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE hle (hle_id INT PRIMARY KEY, "
                            "t_start REAL, owner TEXT)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX hle_by_id ON hle (hle_id) USING HASH")
            .ok());
    ASSERT_TRUE(db_.Execute("CREATE INDEX hle_by_time ON hle (t_start)")
                    .ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO hle VALUES (?, ?, 'u')",
                              {Value::Int(i), Value::Real(i * 2.0)})
                      .ok());
    }
  }

  // True if executing `sql` used an index (no full scan).
  bool ExecutorUsedIndex(const std::string& sql) {
    int64_t scans_before = db_.stats().full_scans.load();
    EXPECT_TRUE(db_.Execute(sql).ok());
    return db_.stats().full_scans.load() == scans_before;
  }

  Database db_;
};

TEST_F(ExplainTest, PointQueryUsesHashIndex) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE hle_id = 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexPoint);
  EXPECT_EQ(plan.value().column, "hle_id");
  EXPECT_TRUE(ExecutorUsedIndex("SELECT * FROM hle WHERE hle_id = 7"));
}

TEST_F(ExplainTest, RangeQueryUsesBTree) {
  auto plan = ExplainSelect(
      &db_, "SELECT * FROM hle WHERE t_start >= 10 AND t_start < 30");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexRange);
  EXPECT_EQ(plan.value().column, "t_start");
  EXPECT_TRUE(ExecutorUsedIndex(
      "SELECT * FROM hle WHERE t_start >= 10 AND t_start < 30"));
}

TEST_F(ExplainTest, UnindexedPredicateScans) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE owner = 'u'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kFullScan);
  EXPECT_FALSE(ExecutorUsedIndex("SELECT * FROM hle WHERE owner = 'u'"));
}

TEST_F(ExplainTest, NoPredicateScans) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kFullScan);
}

TEST_F(ExplainTest, EqualityPreferredOverRange) {
  auto plan = ExplainSelect(
      &db_, "SELECT * FROM hle WHERE t_start > 5 AND hle_id = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexPoint);
  EXPECT_EQ(plan.value().column, "hle_id");
}

TEST_F(ExplainTest, ParametersArePlannable) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE hle_id = ?");
  ASSERT_TRUE(plan.ok());
  // Parameter markers are planning-opaque; the executor binds them to
  // literals first, so the point access is only chosen at execution.
  // Explain reports the conservative answer.
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexPoint);
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(ExplainSelect(&db_, "SELECT * FROM nope").ok());
  EXPECT_FALSE(ExplainSelect(&db_, "DELETE FROM hle").ok());
  EXPECT_FALSE(ExplainSelect(&db_, "garbage").ok());
}

TEST_F(ExplainTest, ToStringIsReadable) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE hle_id = 7");
  ASSERT_TRUE(plan.ok());
  std::string text = plan.value().ToString();
  EXPECT_NE(text.find("INDEX POINT"), std::string::npos);
  EXPECT_NE(text.find("hle_id"), std::string::npos);
}

TEST_F(ExplainTest, FullScanReportsVectorizedStrategy) {
  // Shrink the morsels so the 50-row table spans several of them, and
  // pin the parallelism knob to a known value.
  ExecOptions opts = db_.exec_options();
  opts.morsel_rows = 16;  // Table clamps below 16
  opts.scan_threads = 4;
  db_.set_exec_options(opts);
  ASSERT_TRUE(db_.Execute("CREATE TABLE narrow (id INT PRIMARY KEY, "
                          "v REAL)")
                  .ok());
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO narrow VALUES (?, ?)",
                            {Value::Int(i + 1), Value::Real(i * 1.0)})
                    .ok());
  }

  auto plan = ExplainSelect(&db_, "SELECT * FROM narrow WHERE v < 8.0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const QueryPlan& p = plan.value();
  EXPECT_EQ(p.access, QueryPlan::Access::kFullScan);
  EXPECT_TRUE(p.vectorized);
  EXPECT_EQ(p.morsel_count, 4);  // ids 1..48, 16 per morsel
  // v < 8.0 touches only rows with v 0..7 (the first morsel).
  EXPECT_GE(p.morsels_pruned, p.morsel_count / 2);
  // 48 rows is below the serial threshold, so the planned degree is 1;
  // the knob caps it, not the table size.
  EXPECT_EQ(p.parallelism, 1);
  std::string text = p.ToString();
  EXPECT_NE(text.find("vectorized"), std::string::npos);
  EXPECT_NE(text.find("morsels"), std::string::npos);
  EXPECT_NE(text.find("pruned"), std::string::npos);
}

TEST_F(ExplainTest, RowAtATimePlanOmitsVectorizedSuffix) {
  ExecOptions opts = db_.exec_options();
  opts.vectorized = false;
  db_.set_exec_options(opts);
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE owner = 'u'");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().vectorized);
  EXPECT_EQ(plan.value().ToString().find("vectorized"), std::string::npos);
}

// Property: for random predicates over columns with a hash index, a
// B-tree index and no index, EXPLAIN's access for every table of a
// single-table or joined SELECT is what the executor did, read from the
// index_scans / full_scans deltas.
class ExplainPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Occurrences of `needle` in `hay`.
int Count(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST_P(ExplainPropertyTest, ExplainedAccessIsExecutedAccess) {
  Rng rng(GetParam());
  Database db;
  // p: h hash-indexed, b B-tree-indexed, n unindexed; q the same shape
  // with k as the join key.
  for (const char* t : {"p", "q"}) {
    const std::string name(t);
    ASSERT_TRUE(db.Execute("CREATE TABLE " + name +
                           " (h INT, b INT, n INT, k INT)")
                    .ok());
    ASSERT_TRUE(db.Execute("CREATE INDEX " + name + "_h ON " + name +
                           " (h) USING HASH")
                    .ok());
    ASSERT_TRUE(
        db.Execute("CREATE INDEX " + name + "_b ON " + name + " (b)").ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO " + name + " VALUES (?, ?, ?, ?)",
                             {Value::Int(i % 17), Value::Int(i % 23),
                              Value::Int(i % 29), Value::Int(i % 31)})
                      .ok());
    }
  }
  // One random conjunct over `t`'s columns, sargable or not.
  auto atom = [&](const std::string& t) {
    static const char* kCols[] = {"h", "b", "n"};
    static const char* kOps[] = {"=", "<", ">=", "<>"};
    const std::string col = t + "." + kCols[rng.UniformInt(0, 2)];
    const std::string lit = std::to_string(rng.UniformInt(0, 25));
    if (rng.Bernoulli(0.15)) {
      return "(" + col + " = " + lit + " OR " + col + " = 1)";
    }
    return col + " " + kOps[rng.UniformInt(0, 3)] + " " + lit;
  };
  auto predicate = [&](const std::string& t) {
    std::string where = atom(t);
    for (int i = rng.UniformInt(0, 2); i > 0; --i) where += " AND " + atom(t);
    return where;
  };

  for (int step = 0; step < 150; ++step) {
    ExecOptions opts = db.exec_options();
    opts.vectorized = rng.Bernoulli(0.7);
    db.set_exec_options(opts);
    const bool joined = rng.Bernoulli(0.5);
    const std::string sql =
        joined ? "SELECT p.h FROM p JOIN q ON p.k = q.k WHERE " +
                     predicate("p") + " AND " + predicate("q")
               : "SELECT p.h FROM p WHERE " + predicate("p");
    auto plan = ExplainSelect(&db, sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    const std::string text = plan.value().ToString();
    int indexed = 0;
    if (joined) {
      indexed = Count(text, "INDEX POINT") + Count(text, "INDEX RANGE");
    } else if (plan.value().access != QueryPlan::Access::kFullScan) {
      indexed = 1;
    }
    const int tables = joined ? 2 : 1;

    const int64_t index_before = db.stats().index_scans.load();
    const int64_t scans_before = db.stats().full_scans.load();
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
    EXPECT_EQ(db.stats().index_scans.load() - index_before, indexed)
        << sql << "\n" << text;
    EXPECT_EQ(db.stats().full_scans.load() - scans_before, tables - indexed)
        << sql << "\n" << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplainPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace hedc::db
