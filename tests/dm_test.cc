// DM component tests: schema, users, sessions, query spec, I/O layer,
// semantic layer, processes, redirection.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "db/explain.h"
#include "dm/dm.h"
#include "dm/hedc_schema.h"
#include "dm/process_layer.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc::dm {
namespace {

class DmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(CreateFullSchema(&db_).ok());
    archives_.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                       std::make_unique<archive::DiskArchive>());
    archives_.Register({2, archive::ArchiveType::kTape, "tape0", true},
                       std::make_unique<archive::TapeArchive>(
                           std::make_unique<archive::DiskArchive>(), &clock_));
    Config config;
    config.Set("root.filename", "/hedc");
    mapper_ = std::make_unique<archive::NameMapper>(&db_, config);
    ASSERT_TRUE(mapper_->Init().ok());
    ASSERT_TRUE(mapper_->RegisterArchive(1, "disk", "raid1").ok());
    ASSERT_TRUE(mapper_->RegisterArchive(2, "tape", "tape0").ok());

    DataManager::Options options;
    options.pool.connection_setup_cost = 0;
    options.sessions.session_setup_cost = 0;
    dm_ = std::make_unique<DataManager>("dm0", &db_, &archives_,
                                        mapper_.get(), &clock_, options);

    // Users: alice (analyst), bob (browser), root (super).
    UserProfile analyst;
    analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
    alice_id_ = dm_->users().CreateUser("alice", "pw-a", analyst).value();
    bob_id_ = dm_->users().CreateUser("bob", "pw-b", UserProfile{}).value();
    UserProfile super_user;
    super_user.is_super = true;
    root_id_ = dm_->users().CreateUser("root", "pw-r", super_user).value();

    alice_ = SessionFor("alice", "pw-a", "10.0.0.1");
    bob_ = SessionFor("bob", "pw-b", "10.0.0.2");
    root_ = SessionFor("root", "pw-r", "10.0.0.3");
  }

  Session SessionFor(const std::string& user, const std::string& pw,
                     const std::string& ip) {
    UserProfile profile = dm_->users().Authenticate(user, pw).value();
    return dm_->sessions()
        .GetOrCreate(profile, ip, "cookie-" + user, SessionKind::kHle)
        .value();
  }

  VirtualClock clock_;
  db::Database db_;
  archive::ArchiveManager archives_;
  std::unique_ptr<archive::NameMapper> mapper_;
  std::unique_ptr<DataManager> dm_;
  int64_t alice_id_ = 0, bob_id_ = 0, root_id_ = 0;
  Session alice_, bob_, root_;
};

TEST_F(DmTest, SchemaIsIdempotent) {
  EXPECT_TRUE(CreateFullSchema(&db_).ok());
  EXPECT_NE(db_.GetTable("hle"), nullptr);
  EXPECT_NE(db_.GetTable("ana"), nullptr);
  EXPECT_NE(db_.GetTable("users"), nullptr);
}

TEST_F(DmTest, AuthenticationChecksPassword) {
  EXPECT_TRUE(dm_->users().Authenticate("alice", "pw-a").ok());
  EXPECT_TRUE(dm_->users()
                  .Authenticate("alice", "wrong")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(dm_->users()
                  .Authenticate("mallory", "x")
                  .status()
                  .IsPermissionDenied());
}

TEST_F(DmTest, AuthenticationCostsOneQueryOneUpdate) {
  int64_t q0 = db_.stats().queries.load();
  int64_t u0 = db_.stats().updates.load();
  ASSERT_TRUE(dm_->users().Authenticate("alice", "pw-a").ok());
  EXPECT_EQ(db_.stats().queries.load() - q0, 1);
  EXPECT_EQ(db_.stats().updates.load() - u0, 1);
}

TEST_F(DmTest, SessionCacheHitsByIpAndCookie) {
  UserProfile profile = dm_->users().GetProfile(alice_id_).value();
  int64_t created0 = dm_->sessions().sessions_created();
  Session s1 = dm_->sessions()
                   .GetOrCreate(profile, "1.2.3.4", "ck", SessionKind::kHle)
                   .value();
  Session s2 = dm_->sessions()
                   .GetOrCreate(profile, "1.2.3.4", "ck", SessionKind::kHle)
                   .value();
  EXPECT_EQ(s1.session_id, s2.session_id);
  EXPECT_EQ(dm_->sessions().sessions_created() - created0, 1);
  // Different kind -> different session (up to 3 per user, §5.3).
  Session s3 = dm_->sessions()
                   .GetOrCreate(profile, "1.2.3.4", "ck",
                                SessionKind::kAnalysis)
                   .value();
  EXPECT_NE(s1.session_id, s3.session_id);
}

TEST_F(DmTest, SessionCreationPaysSetupCost) {
  SessionManager::Options options;
  options.session_setup_cost = 777;
  SessionManager sessions(&clock_, options);
  Micros t0 = clock_.Now();
  UserProfile profile = AnonymousUser();
  ASSERT_TRUE(sessions.GetOrCreate(profile, "ip", "c", SessionKind::kHle)
                  .ok());
  EXPECT_EQ(clock_.Now() - t0, 777);
  // Cache hit: free.
  ASSERT_TRUE(sessions.GetOrCreate(profile, "ip", "c", SessionKind::kHle)
                  .ok());
  EXPECT_EQ(clock_.Now() - t0, 777);
}

TEST_F(DmTest, QuerySpecRendersSql) {
  QuerySpec spec("hle");
  spec.Select("hle_id")
      .Select("event_type")
      .Where("t_start", CondOp::kGe, db::Value::Real(10))
      .Where("event_type", CondOp::kEq, db::Value::Text("flare"))
      .OrderBy("t_start", true)
      .Limit(5);
  std::vector<db::Value> params;
  auto sql = spec.ToSql(&params);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql.value(),
            "SELECT hle_id, event_type FROM hle WHERE t_start >= ? AND "
            "event_type = ? ORDER BY t_start DESC LIMIT 5");
  ASSERT_EQ(params.size(), 2u);

  // A join with qualified names, scoped to a non-super user: the rule
  // lands on the joined table and the user id is a bound parameter.
  QuerySpec joined("catalog_members");
  joined.Select("catalog_members.hle_id")
      .Join("hle", "hle_id")
      .Where("catalog_members.catalog_id", CondOp::kEq, db::Value::Int(3))
      .OrderBy("catalog_members.hle_id")
      .VisibleTo(alice_.profile);
  sql = joined.ToSql(&params);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql.value(),
            "SELECT catalog_members.hle_id FROM catalog_members JOIN hle ON "
            "catalog_members.hle_id = hle.hle_id WHERE "
            "catalog_members.catalog_id = ? AND (hle.is_public = TRUE OR "
            "hle.owner_id = ?) ORDER BY catalog_members.hle_id");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].AsInt(), 3);
  EXPECT_EQ(params[1].AsInt(), alice_id_);
  // No user id (no digit at all) is formatted into the text.
  EXPECT_EQ(sql.value().find_first_of("0123456789"), std::string::npos);

  // Unjoined, the rule lands on the base table, also with no other
  // condition; a super user's query is not scoped.
  QuerySpec scoped("hle");
  scoped.CountOnly().VisibleTo(bob_.profile);
  sql = scoped.ToSql(&params);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql.value(),
            "SELECT COUNT(*) FROM hle WHERE (hle.is_public = TRUE OR "
            "hle.owner_id = ?)");
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0].AsInt(), bob_id_);
  QuerySpec unscoped("hle");
  unscoped.Where("hle_id", CondOp::kEq, db::Value::Int(7))
      .VisibleTo(root_.profile);
  sql = unscoped.ToSql(&params);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql.value(), "SELECT * FROM hle WHERE hle_id = ?");
  EXPECT_EQ(params.size(), 1u);
}

TEST_F(DmTest, QuerySpecRejectsInjection) {
  std::vector<db::Value> params;
  EXPECT_FALSE(QuerySpec("hle; DROP TABLE hle").ToSql(&params).ok());
  QuerySpec bad_field("hle");
  bad_field.Select("a, b FROM x");
  EXPECT_FALSE(bad_field.ToSql(&params).ok());
  QuerySpec bad_cond("hle");
  bad_cond.Where("x = 1 OR", CondOp::kEq, db::Value::Int(1));
  EXPECT_FALSE(bad_cond.ToSql(&params).ok());
  // Each part of a qualified name is checked, and only one qualifier is
  // allowed.
  for (const char* field : {"hle.x; DROP", "hle; DROP.x", "a.b.c", "hle.",
                            ".hle_id"}) {
    QuerySpec bad_qualified("hle");
    bad_qualified.Select(field);
    EXPECT_FALSE(bad_qualified.ToSql(&params).ok()) << field;
    QuerySpec bad_where("hle");
    bad_where.Where(field, CondOp::kEq, db::Value::Int(1));
    EXPECT_FALSE(bad_where.ToSql(&params).ok()) << field;
    QuerySpec bad_order("hle");
    bad_order.OrderBy(field);
    EXPECT_FALSE(bad_order.ToSql(&params).ok()) << field;
  }
  QuerySpec bad_join_table("catalog_members");
  bad_join_table.Join("hle; DROP TABLE hle", "hle_id");
  EXPECT_FALSE(bad_join_table.ToSql(&params).ok());
  QuerySpec bad_join_column("catalog_members");
  bad_join_column.Join("hle", "hle_id = hle.hle_id OR 1");
  EXPECT_FALSE(bad_join_column.ToSql(&params).ok());
  QuerySpec qualified_join_column("catalog_members");
  qualified_join_column.Join("hle", "hle.hle_id");
  EXPECT_FALSE(qualified_join_column.ToSql(&params).ok());
}

TEST_F(DmTest, HleCrudAndVisibility) {
  HleRecord record;
  record.event_type = "flare";
  record.t_start = 100;
  record.t_end = 200;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, record).value();

  // Owner sees it; bob does not (private); root (super) does.
  EXPECT_TRUE(dm_->semantics().GetHle(alice_, hle_id).ok());
  EXPECT_TRUE(dm_->semantics().GetHle(bob_, hle_id).status().IsNotFound());
  EXPECT_TRUE(dm_->semantics().GetHle(root_, hle_id).ok());

  // Publish: now visible to bob.
  ASSERT_TRUE(dm_->semantics().SetHlePublic(alice_, hle_id, true).ok());
  EXPECT_TRUE(dm_->semantics().GetHle(bob_, hle_id).ok());

  // Only the owner (or super) may modify.
  EXPECT_TRUE(dm_->semantics()
                  .SetHlePublic(bob_, hle_id, false)
                  .IsPermissionDenied());
}

// The access rule is a separate AND conjunct, so a scoped point read
// still probes the id index instead of scanning the table.
TEST_F(DmTest, ScopedPointReadUsesIdIndex) {
  HleRecord record;
  record.is_public = true;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, record).value();
  QuerySpec spec("hle");
  spec.Where("hle_id", CondOp::kEq, db::Value::Int(hle_id))
      .VisibleTo(bob_.profile);
  std::vector<db::Value> params;
  auto sql = spec.ToSql(&params);
  ASSERT_TRUE(sql.ok());
  auto plan = db::ExplainSelect(&db_, sql.value(), params);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().access, db::QueryPlan::Access::kIndexPoint)
      << plan.value().ToString();
  EXPECT_EQ(plan.value().index_name, "hle_by_id");

  int64_t scans = db_.stats().full_scans.load();
  EXPECT_TRUE(dm_->semantics().GetHle(bob_, hle_id).ok());
  EXPECT_EQ(db_.stats().full_scans.load(), scans);
}

TEST_F(DmTest, ListHlesScopedBySessionView) {
  HleRecord mine;
  mine.event_type = "flare";
  mine.t_start = 10;
  dm_->semantics().CreateHle(alice_, mine).value();
  HleRecord pub = mine;
  pub.is_public = true;
  pub.t_start = 20;
  dm_->semantics().CreateHle(alice_, pub).value();

  auto bob_sees = dm_->semantics().ListHles(bob_, 0, 100);
  ASSERT_TRUE(bob_sees.ok());
  EXPECT_EQ(bob_sees.value().size(), 1u);  // only the public one
  auto alice_sees = dm_->semantics().ListHles(alice_, 0, 100);
  EXPECT_EQ(alice_sees.value().size(), 2u);
  auto root_sees = dm_->semantics().ListHles(root_, 0, 100);
  EXPECT_EQ(root_sees.value().size(), 2u);
}

TEST_F(DmTest, AnaRequiresVisibleHle) {
  AnaRecord ana;
  ana.hle_id = 424242;
  ana.routine = "imaging";
  EXPECT_TRUE(dm_->semantics().CreateAna(alice_, ana).status().IsNotFound());

  HleRecord hle;
  hle.event_type = "flare";
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  ana.hle_id = hle_id;
  EXPECT_TRUE(dm_->semantics().CreateAna(alice_, ana).ok());
  // Bob cannot attach analyses to alice's private HLE.
  EXPECT_TRUE(dm_->semantics().CreateAna(bob_, ana).status().IsNotFound());
}

TEST_F(DmTest, DeleteHleBlockedByAnalyses) {
  HleRecord hle;
  hle.event_type = "grb";
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "lightcurve";
  int64_t ana_id = dm_->semantics().CreateAna(alice_, ana).value();

  EXPECT_EQ(dm_->semantics().DeleteHle(alice_, hle_id).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(dm_->semantics().DeleteAna(alice_, ana_id).ok());
  EXPECT_TRUE(dm_->semantics().DeleteHle(alice_, hle_id).ok());
}

TEST_F(DmTest, AnaCreationWritesLineage) {
  HleRecord hle;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "imaging";
  int64_t ana_id = dm_->semantics().CreateAna(alice_, ana).value();
  auto sources = dm_->semantics().LineageSources(ana_id);
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources.value().size(), 1u);
  EXPECT_EQ(sources.value()[0], hle_id);
}

// Concurrent entity transactions (§4.4) all commit, each with exactly
// one lineage row.
TEST_F(DmTest, ConcurrentCreateAnaStress) {
  HleRecord hle;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::vector<int64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        AnaRecord ana;
        ana.hle_id = hle_id;
        ana.routine = "lightcurve";
        ana.parameters = "thread=" + std::to_string(t);
        Result<int64_t> id = dm_->semantics().CreateAna(alice_, ana);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids[t].push_back(id.value());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto count = [this](const std::string& sql, int64_t arg) {
    return db_.Execute(sql, {db::Value::Int(arg)}).value().rows[0][0].AsInt();
  };
  EXPECT_EQ(count("SELECT COUNT(*) FROM ana WHERE hle_id = ?", hle_id),
            kThreads * kPerThread);
  for (const std::vector<int64_t>& thread_ids : ids) {
    ASSERT_EQ(thread_ids.size(), static_cast<size_t>(kPerThread));
    for (int64_t ana_id : thread_ids) {
      EXPECT_EQ(count("SELECT COUNT(*) FROM lineage WHERE item_id = ?",
                      ana_id),
                1)
          << "ana " << ana_id;
    }
  }
}

// Every PRIMARY KEY the program declares has an index, so the uniqueness
// check on insert is a lookup rather than a scan of the table.
TEST_F(DmTest, EveryPrimaryKeyIsIndexed) {
  int checked = 0;
  for (const std::string& name : db_.TableNames()) {
    const db::Table* table = db_.GetTable(name);
    std::optional<size_t> pk = table->schema().PrimaryKeyIndex();
    if (!pk.has_value()) continue;
    ++checked;
    EXPECT_NE(table->FindIndex(*pk, /*need_range=*/false), nullptr)
        << name << "." << table->schema().column(*pk).name;
  }
  EXPECT_GE(checked, 18);
}

TEST_F(DmTest, FindExistingAnalysisDetectsOverlap) {
  HleRecord hle;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "imaging";
  ana.parameters = "pixels=64;t_end=2";
  ana.status = "done";
  ana.is_public = true;
  dm_->semantics().CreateAna(alice_, ana).value();

  auto found = dm_->semantics().FindExistingAnalysis(bob_, hle_id, "imaging",
                                                     "pixels=64;t_end=2");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.value().has_value());
  auto missing = dm_->semantics().FindExistingAnalysis(
      bob_, hle_id, "imaging", "pixels=128;t_end=2");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().has_value());
}

TEST_F(DmTest, PrivateAnalysisNotOfferedToOthers) {
  HleRecord hle;
  hle.is_public = true;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "histogram";
  ana.parameters = "bins=64";
  ana.status = "done";
  ana.is_public = false;  // private
  dm_->semantics().CreateAna(alice_, ana).value();
  auto found = dm_->semantics().FindExistingAnalysis(bob_, hle_id,
                                                     "histogram", "bins=64");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.value().has_value());
}

TEST_F(DmTest, SupersedeVersionsHle) {
  HleRecord v1;
  v1.event_type = "flare";
  v1.calibration_version = 1;
  int64_t old_id = dm_->semantics().CreateHle(alice_, v1).value();
  HleRecord v2 = v1;
  v2.calibration_version = 2;
  int64_t new_id = dm_->semantics().SupersedeHle(alice_, old_id, v2).value();

  HleRecord old_record = dm_->semantics().GetHle(alice_, old_id).value();
  HleRecord new_record = dm_->semantics().GetHle(alice_, new_id).value();
  EXPECT_EQ(old_record.superseded_by, new_id);
  EXPECT_EQ(new_record.version, 2);
  EXPECT_EQ(new_record.superseded_by, 0);
}

TEST_F(DmTest, CatalogMembershipRules) {
  HleRecord hle;
  hle.is_public = true;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  int64_t catalog_id =
      dm_->semantics().CreateCatalog(alice_, "flares2002", "my flares", false)
          .value();
  ASSERT_TRUE(dm_->semantics().AddToCatalog(alice_, catalog_id, hle_id).ok());
  auto members = dm_->semantics().ListCatalogHles(alice_, catalog_id);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members.value().size(), 1u);
  // Bob cannot add to alice's catalog.
  EXPECT_TRUE(dm_->semantics()
                  .AddToCatalog(bob_, catalog_id, hle_id)
                  .IsPermissionDenied());
  // Duplicate catalog names are rejected.
  EXPECT_EQ(dm_->semantics()
                .CreateCatalog(alice_, "flares2002", "", false)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

// ListCatalogHles is one joined statement. The per-member GetHle loop it
// replaced is the oracle: same ids, same order, for every session.
TEST_F(DmTest, ListCatalogHlesMatchesPerMemberOracle) {
  auto make_hle = [this](const Session& owner, bool is_public) {
    HleRecord record;
    record.is_public = is_public;
    return dm_->semantics().CreateHle(owner, record).value();
  };
  const int64_t alice_public = make_hle(alice_, true);
  const int64_t alice_private = make_hle(alice_, false);
  const int64_t bob_private = make_hle(bob_, false);
  const int64_t bob_public = make_hle(bob_, true);
  const int64_t root_private = make_hle(root_, false);
  const int64_t deleted = make_hle(alice_, true);

  const int64_t mixed =
      dm_->semantics().CreateCatalog(root_, "mixed", "", true).value();
  // Out of id order, one member twice, and one whose HLE goes away.
  for (int64_t hle_id : {bob_public, deleted, alice_private, alice_public,
                         root_private, bob_private, alice_public}) {
    ASSERT_TRUE(dm_->semantics().AddToCatalog(root_, mixed, hle_id).ok());
  }
  // Deleting the tuple directly leaves its membership row dangling.
  ASSERT_TRUE(db_.Execute("DELETE FROM hle WHERE hle_id = ?",
                          {db::Value::Int(deleted)})
                  .ok());
  const int64_t alices =
      dm_->semantics().CreateCatalog(alice_, "alices", "", false).value();
  for (int64_t hle_id : {bob_public, alice_private}) {
    ASSERT_TRUE(dm_->semantics().AddToCatalog(alice_, alices, hle_id).ok());
  }
  const int64_t empty =
      dm_->semantics().CreateCatalog(bob_, "empty", "", true).value();

  auto oracle = [this](const Session& session, int64_t catalog_id) {
    auto members = db_.Execute(
        "SELECT hle_id FROM catalog_members WHERE catalog_id = ? "
        "ORDER BY hle_id",
        {db::Value::Int(catalog_id)});
    EXPECT_TRUE(members.ok());
    std::vector<int64_t> visible;
    for (const db::Row& row : members.value().rows) {
      if (dm_->semantics().GetHle(session, row[0].AsInt()).ok()) {
        visible.push_back(row[0].AsInt());
      }
    }
    return visible;
  };
  for (const Session* session : {&alice_, &bob_, &root_}) {
    for (int64_t catalog_id : {mixed, alices, empty}) {
      auto listed = dm_->semantics().ListCatalogHles(*session, catalog_id);
      ASSERT_TRUE(listed.ok()) << listed.status().ToString();
      EXPECT_EQ(listed.value(), oracle(*session, catalog_id))
          << session->profile.name << " catalog " << catalog_id;
    }
  }
  // The sessions see different lists, so the comparison has teeth.
  EXPECT_EQ(dm_->semantics().ListCatalogHles(bob_, mixed).value(),
            (std::vector<int64_t>{alice_public, alice_public, bob_private,
                                  bob_public}));
  EXPECT_EQ(dm_->semantics().ListCatalogHles(root_, mixed).value().size(),
            6u);
  EXPECT_TRUE(dm_->semantics().ListCatalogHles(alice_, empty).value().empty());
}

TEST_F(DmTest, IoLayerFileRoundTripViaNameMapping) {
  std::vector<uint8_t> data = {9, 8, 7};
  ASSERT_TRUE(dm_->io().WriteItemFile(555, 1, "raw", data).ok());
  auto read = dm_->io().ReadItemFile(555);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), data);
  ASSERT_TRUE(dm_->io().DeleteItemFile(555).ok());
  EXPECT_FALSE(dm_->io().ReadItemFile(555).ok());
}

TEST_F(DmTest, IoLayerRoutesTables) {
  db::Database other;
  ASSERT_TRUE(other.Execute("CREATE TABLE special (a INT)").ok());
  ASSERT_TRUE(other.Execute("INSERT INTO special VALUES (7)").ok());
  dm_->io().RouteTable("special", &other, nullptr);
  QuerySpec spec("special");
  auto rs = dm_->io().Query(spec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(dm_->io().DatabaseFor("special"), &other);
  EXPECT_EQ(dm_->io().DatabaseFor("hle"), &db_);
}

TEST_F(DmTest, OperationalLogPersisted) {
  ASSERT_TRUE(dm_->LogOperational("test", "hello world").ok());
  auto rs = db_.Execute("SELECT COUNT(*) FROM op_logs WHERE component = "
                        "'test'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1);
}

// --- process layer -----------------------------------------------------

class ProcessTest : public DmTest {
 protected:
  void SetUp() override {
    DmTest::SetUp();
    process_ = std::make_unique<ProcessLayer>(dm_.get(), /*raw_archive=*/1);
    // Synthetic telemetry with guaranteed events.
    rhessi::TelemetryOptions options;
    options.duration_sec = 1200;
    options.flares_per_hour = 15;
    options.saa_per_hour = 0;
    options.seed = 11;
    telemetry_ = rhessi::GenerateTelemetry(options);
    // One unit covering the whole observation so it contains events.
    units_ = rhessi::SegmentIntoUnits(telemetry_.photons, 10000000, 1);
  }

  std::unique_ptr<ProcessLayer> process_;
  rhessi::Telemetry telemetry_;
  std::vector<rhessi::RawDataUnit> units_;
};

TEST_F(ProcessTest, LoadRawUnitCreatesEverything) {
  ASSERT_FALSE(units_.empty());
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().hle_ids.size(), 0u);

  // Raw unit tuple exists.
  auto unit_count = db_.Execute("SELECT COUNT(*) FROM raw_units");
  EXPECT_EQ(unit_count.value().rows[0][0].AsInt(), 1);
  // File retrievable through name mapping.
  EXPECT_TRUE(dm_->io().ReadItemFile(report.value().unit_id).ok());
  // Wavelet view stored.
  EXPECT_TRUE(dm_->io()
                  .ReadItemFile(ProcessLayer::ViewItemId(
                      report.value().unit_id))
                  .ok());
  // HLEs are in the public standard catalog, visible to bob.
  auto catalog =
      dm_->semantics().GetCatalogByName(bob_, "standard");
  ASSERT_TRUE(catalog.ok());
  auto members = dm_->semantics().ListCatalogHles(
      bob_, catalog.value().catalog_id);
  EXPECT_EQ(members.value().size(), report.value().hle_ids.size());
}

// Each unit is searched over its own span. A unit that starts late in
// the observation must neither become one unit-long "flare" nor gain a
// quiet event covering the time before its first photon.
TEST_F(ProcessTest, EveryHleLiesInsideItsUnit) {
  std::vector<rhessi::RawDataUnit> units = rhessi::SegmentIntoUnits(
      telemetry_.photons, telemetry_.photons.size() / 4 + 1, 1);
  ASSERT_EQ(units.size(), 4u);
  for (const rhessi::RawDataUnit& unit : units) {
    auto report = process_->LoadRawUnit(root_, unit.Pack());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (int64_t hle_id : report.value().hle_ids) {
      auto hle = dm_->semantics().GetHle(root_, hle_id);
      ASSERT_TRUE(hle.ok());
      // Events are whole 1-s bins counted from the first photon's second.
      EXPECT_GE(hle.value().t_start, std::floor(unit.t_start))
          << "unit " << unit.unit_id << " " << hle.value().event_type;
      EXPECT_LE(hle.value().t_end, unit.t_stop + 1.0)
          << "unit " << unit.unit_id << " " << hle.value().event_type;
      EXPECT_LT(hle.value().photon_count,
                static_cast<int64_t>(unit.photons.size()))
          << "unit " << unit.unit_id << " " << hle.value().event_type;
    }
  }
}

TEST_F(ProcessTest, LoadRejectsGarbageWithoutSideEffects) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4};
  EXPECT_FALSE(process_->LoadRawUnit(root_, garbage).ok());
  auto unit_count = db_.Execute("SELECT COUNT(*) FROM raw_units");
  EXPECT_EQ(unit_count.value().rows[0][0].AsInt(), 0);
}

TEST_F(ProcessTest, RelocationMovesFilesAndNamesOnly) {
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok());
  int64_t unit_id = report.value().unit_id;
  auto before = mapper_->Resolve(unit_id, archive::NameType::kFilename);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().archive_id, 1);

  ASSERT_TRUE(process_->RelocateItems({unit_id}, 1, 2, "archived").ok());
  auto after = mapper_->Resolve(unit_id, archive::NameType::kFilename);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().archive_id, 2);
  // Data still readable (now from tape).
  EXPECT_TRUE(dm_->io().ReadItemFile(unit_id).ok());
}

TEST_F(ProcessTest, RecalibrationSupersedesHles) {
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report.value().hle_ids.size(), 0u);

  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  for (int d = 0; d < rhessi::kNumCollimators; ++d) v2.gain[d] = 1.02;
  ASSERT_TRUE(calibrations.Register(v2).ok());

  auto recal = process_->RecalibrateUnit(root_, report.value().unit_id,
                                         calibrations, 2);
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();
  EXPECT_GT(recal.value().hle_ids.size(), 0u);

  // Old HLEs are marked superseded; unit tuple carries the new version.
  auto rs = db_.Execute(
      "SELECT COUNT(*) FROM hle WHERE superseded_by > 0");
  EXPECT_GT(rs.value().rows[0][0].AsInt(), 0);
  auto unit = db_.Execute(
      "SELECT calibration_version FROM raw_units WHERE unit_id = ?",
      {db::Value::Int(report.value().unit_id)});
  EXPECT_EQ(unit.value().rows[0][0].AsInt(), 2);
}

TEST_F(ProcessTest, GenerateCatalogGroupsByType) {
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok());
  auto catalog_id =
      process_->GenerateCatalog(root_, "all_flares", "flare");
  ASSERT_TRUE(catalog_id.ok()) << catalog_id.status().ToString();
  auto members =
      dm_->semantics().ListCatalogHles(root_, catalog_id.value());
  ASSERT_TRUE(members.ok());
  EXPECT_GT(members.value().size(), 0u);
  // Idempotent: regeneration does not duplicate members.
  size_t count = members.value().size();
  ASSERT_TRUE(process_->GenerateCatalog(root_, "all_flares", "flare").ok());
  EXPECT_EQ(dm_->semantics()
                .ListCatalogHles(root_, catalog_id.value())
                .value()
                .size(),
            count);
}

}  // namespace
}  // namespace hedc::dm
