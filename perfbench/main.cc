// End-to-end benchmark of the MOOD engine: one named workload per process,
// a closed loop of seeded rounds over the paper's Vehicle schema, every answer
// checked against a model the benchmark keeps itself. See README.md.
//
//   mood_perfbench --workload <paths_large|mv_write_mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --dir <scratch dir> [--trace-out <file>]
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/parser.h"
#include "txn/version_store.h"

namespace fs = std::filesystem;
using namespace mood;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Small utilities

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Rng {  // splitmix64: the benchmark's own, independent of the engine's
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull) {}
  uint64_t Next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint32_t Uniform(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
};

double Quantile(std::vector<double> v, double q) {  // nearest rank
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

std::optional<int64_t> IntOf(const MoodValue& v) {
  if (v.kind() == ValueKind::kInteger) return v.AsInteger();
  if (v.kind() == ValueKind::kLongInteger) return v.AsLongInteger();
  return std::nullopt;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// The database at <dir>/db keeps its pages in db.mood and its log in db.wal.
uint64_t FileBytes(const fs::path& dir, const char* name) {
  std::error_code ec;
  const auto n = fs::file_size(dir / name, ec);
  return ec ? 0 : n;
}

using Counters = std::map<std::string, double>;

Counters Snap(Database* db) {
  Counters c;
  for (const auto& [name, value] : db->metrics()->Snapshot().values) c[name] = value;
  return c;
}

void AddDelta(Counters* acc, const Counters& before, const Counters& after) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*acc)[name] += value - (it == before.end() ? 0 : it->second);
  }
}

double Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Operation types and workload shapes

enum OpType { kPoint = 0, kPath = 1, kScan = 2, kWrite = 3, kOpTypes = 4 };
const char* const kOpNames[kOpTypes] = {"point", "path", "scan", "write"};

struct WorkloadSpec {
  std::string name;
  uint32_t vehicles;  // companies = 10x, drivetrains = engines = vehicles/2
  size_t pool_pages;
  bool matview;
  std::vector<OpType> round;
  // Fixed tail percentile per op type, chosen where it repeated between runs
  // with at least 10 samples beyond it (README.md gives each choice).
  double tail_q[kOpTypes];
};

// The typical latency reported per op type. Reads use p75: this host runs
// the engine's reads in a fast or a slow state, 1.7x apart, and a run's
// median falls between them by the share of time in each, where p75 lies in
// the slow state the host is in most of the time. A write's median repeats;
// its p75 nears a second, slow mode of about 5 % of writes.
const double kTypicalQ[kOpTypes] = {0.75, 0.75, 0.75, 0.50};

WorkloadSpec SpecFor(const std::string& name) {
  if (name == "paths_large") {
    // Every write follows a read that scanned a whole extent through the
    // small pool, so it finds its pages evicted (a write after a write finds
    // them cached and is a second, faster mode). Every read follows a write,
    // so it misses the result cache.
    return {name, 6000, 128, false,
            {kWrite, kPoint, kWrite, kScan, kWrite, kPoint, kWrite, kScan, kWrite, kPoint,
             kWrite, kScan, kWrite, kPath},
            {0.90, 0.90, 0.90, 0.99}};
  }
  if (name == "mv_write_mix") {
    return {name, 4000, 16384, true, {kWrite, kPath, kScan, kPoint}, {0.90, 0.90, 0.90, 0.99}};
  }
  Die("unknown workload '" + name + "' (paths_large, mv_write_mix)");
}

DatabaseOptions OptionsFor(const WorkloadSpec& spec) {
  DatabaseOptions o;  // every behaviour-changing option set explicitly
  o.pool_pages = spec.pool_pages;
  o.pool_shards = 4;
  o.readahead_pages = 4;
  o.deref_cache_entries = 4096;
  o.enable_wal = true;
  o.wal_fsync = WalFsync::kAlways;
  o.exec_threads = 1;
  o.batch_size = 1024;
  o.slow_query_ms = 250;
  o.slow_query_log_size = 64;
  o.stats_histogram_buckets = 32;
  o.feedback_entries = 256;
  o.stats_refresh_epoch_delta = 256;
  o.plan_cache_entries = 128;
  o.result_cache_bytes = 4u << 20;
  return o;
}

constexpr size_t kServerWorkers = 4;    // traced run's replay server
constexpr int kSetupRepeats = 3;
// Vehicles one write transaction updates. A commit is one fsync, whose time on
// a shared host drifts by 1.7x over minutes; with several updates per commit
// the engine's own work, not the disk, is most of a write.
constexpr int kWriteRows = 8;
constexpr uint32_t kScanWidth = 20;     // weight range width (of 2000 values)
constexpr int kMvScanRanges = 8;        // fixed engine-size ranges, all warmed
constexpr uint32_t kSampleOneIn = 8;    // traced run: decomposed share of reads
constexpr uint32_t kWireProbes = 200;   // traced run: literal point lookups timed for net

const char* const kDdl = R"SQL(
CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer);
CREATE CLASS VehicleDriveTrain
  TUPLE (engine REFERENCE (VehicleEngine), transmission String(32));
CREATE CLASS Company TUPLE (name String(32), location String(32));
CREATE CLASS Vehicle
  TUPLE (id Integer, weight Integer, sales Integer,
         drivetrain REFERENCE (VehicleDriveTrain), company REFERENCE (Company));
)SQL";

const char* const kPointSql = "SELECT v.weight, v.sales FROM Vehicle v WHERE v.id = ?";
const char* const kPathSql =
    "SELECT v.id FROM Vehicle v WHERE v.company.name = ? AND v.drivetrain.engine.cylinders = ?";
const char* const kScanSql = "SELECT v.id FROM Vehicle v WHERE v.weight >= ? AND v.weight < ?";
const char* const kViewSql =
    "SELECT v.id, v.weight, v.drivetrain.engine.cylinders FROM Vehicle v "
    "WHERE v.drivetrain.engine.cylinders > 4";

// ---------------------------------------------------------------------------
// The model: the generator's own copy of every object and committed write.

struct Model {
  struct Vehicle {
    int32_t weight;
    uint32_t drivetrain;
    uint32_t company;
    int64_t sales = 0;
  };
  std::vector<int32_t> engine_size, engine_cyl;
  std::vector<uint32_t> dt_engine;
  std::vector<std::string> dt_trans, company_name, company_loc;
  std::vector<Vehicle> vehicles;
  std::vector<std::vector<uint32_t>> by_company;        // company -> vehicle ids
  std::vector<std::pair<int32_t, uint32_t>> by_weight;  // as loaded, for scans
  uint64_t user_bytes = 0;

  void Generate(uint32_t n, uint64_t seed) {
    Rng rng(seed ^ 0xD1B54A32D192ED03ull);
    const uint32_t n_eng = std::max<uint32_t>(1, n / 2), n_dt = n_eng;
    const uint32_t n_co = 10 * n, co_pool = std::max<uint32_t>(1, n_co / 10);
    for (uint32_t i = 0; i < n_eng; i++) {
      engine_size.push_back(static_cast<int32_t>(1000 + i));
      engine_cyl.push_back(static_cast<int32_t>(2 + 2 * rng.Uniform(16)));
    }
    for (uint32_t i = 0; i < n_dt; i++) {
      dt_engine.push_back(rng.Uniform(n_eng));
      dt_trans.push_back(rng.Uniform(2) ? "AUTOMATIC" : "MANUAL");
    }
    for (uint32_t i = 0; i < n_co; i++) {
      company_name.push_back("co" + std::to_string(i));
      company_loc.push_back("city" + std::to_string(i % 50));
    }
    by_company.assign(n_co, {});
    for (uint32_t i = 0; i < n; i++) {
      Vehicle v{static_cast<int32_t>(800 + rng.Uniform(2000)), rng.Uniform(n_dt),
                rng.Uniform(co_pool)};
      vehicles.push_back(v);
      by_company[v.company].push_back(i);
    }
    for (uint32_t i = 0; i < n; i++) by_weight.push_back({vehicles[i].weight, i});
    std::sort(by_weight.begin(), by_weight.end());
  }

  int32_t Cyl(uint32_t v) const { return engine_cyl[dt_engine[vehicles[v].drivetrain]]; }

  std::vector<int64_t> PathAnswer(uint32_t company, int32_t cyl) const {
    std::vector<int64_t> ids;
    for (uint32_t v : by_company[company]) {
      if (Cyl(v) == cyl) ids.push_back(v);
    }
    return ids;
  }

  std::vector<int64_t> ScanAnswer(int32_t lo, int32_t hi) const {
    std::vector<int64_t> ids;
    auto it = std::lower_bound(by_weight.begin(), by_weight.end(),
                               std::make_pair(lo, uint32_t{0}));
    for (; it != by_weight.end() && it->first < hi; ++it) ids.push_back(it->second);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::vector<int64_t> EngineScanAnswer(int32_t lo, int32_t hi) const {
    std::vector<int64_t> sizes;
    for (int32_t s : engine_size) {
      if (s >= lo && s < hi) sizes.push_back(s);
    }
    return sizes;
  }

  std::vector<std::tuple<int64_t, int64_t, int64_t>> ViewAnswer() const {
    std::vector<std::tuple<int64_t, int64_t, int64_t>> rows;
    for (uint32_t i = 0; i < vehicles.size(); i++) {
      if (Cyl(i) > 4) rows.emplace_back(i, vehicles[i].weight, Cyl(i));
    }
    return rows;
  }
};

// ---------------------------------------------------------------------------
// Database lifecycle

struct SetupTimes {
  double total_s = 0;
  double analyze_s = 0;
};

SetupTimes Setup(Database* db, const fs::path& dir, const WorkloadSpec& spec,
                 Model* model) {
  SetupTimes t;
  auto t0 = Clock::now();
  Must(db->Open((dir / "db").string(), OptionsFor(spec)), "open");
  Must(db->ExecuteScript(kDdl).status(), "schema");
  ObjectManager* om = db->objects();
  uint64_t bytes = 0;
  std::vector<Oid> engines, dts, companies;
  for (size_t i = 0; i < model->engine_size.size(); i++) {
    auto r = om->CreateObject("VehicleEngine",
                              MoodValue::Tuple({MoodValue::Integer(model->engine_size[i]),
                                                MoodValue::Integer(model->engine_cyl[i])}));
    Must(r.status(), "load engine");
    engines.push_back(*r);
    bytes += 8;
  }
  for (size_t i = 0; i < model->dt_engine.size(); i++) {
    auto r = om->CreateObject(
        "VehicleDriveTrain",
        MoodValue::Tuple({MoodValue::Reference(engines[model->dt_engine[i]]),
                          MoodValue::String(model->dt_trans[i])}));
    Must(r.status(), "load drivetrain");
    dts.push_back(*r);
    bytes += 8 + model->dt_trans[i].size();
  }
  for (size_t i = 0; i < model->company_name.size(); i++) {
    auto r = om->CreateObject("Company",
                              MoodValue::Tuple({MoodValue::String(model->company_name[i]),
                                                MoodValue::String(model->company_loc[i])}));
    Must(r.status(), "load company");
    companies.push_back(*r);
    bytes += model->company_name[i].size() + model->company_loc[i].size();
  }
  for (size_t i = 0; i < model->vehicles.size(); i++) {
    const auto& v = model->vehicles[i];
    auto r = om->CreateObject(
        "Vehicle", MoodValue::Tuple({MoodValue::Integer(static_cast<int32_t>(i)),
                                     MoodValue::Integer(v.weight), MoodValue::Integer(0),
                                     MoodValue::Reference(dts[v.drivetrain]),
                                     MoodValue::Reference(companies[v.company])}));
    Must(r.status(), "load vehicle");
    bytes += 4 + 4 + 4 + 8 + 8;
  }
  model->user_bytes = bytes;
  Must(db->Execute("CREATE UNIQUE INDEX vehicle_id ON Vehicle(id) USING BTREE").status(),
       "index vehicle_id");
  Must(db->Execute("CREATE INDEX company_name ON Company(name) USING BTREE").status(),
       "index company_name");
  auto ta = Clock::now();
  Must(db->Execute("ANALYZE").status(), "analyze");
  t.analyze_s = UsBetween(ta, Clock::now()) / 1e6;
  if (spec.matview) {
    Must(db->Execute(std::string("CREATE MATERIALIZED VIEW vehicle_cyl AS ") + kViewSql)
             .status(),
         "create view");
    auto views = db->matviews()->Views();
    if (views.empty() || !views[0].delta_maintainable) {
      Die("view is not delta-maintainable: " + (views.empty() ? "" : views[0].refusal));
    }
  }
  Must(db->Checkpoint(), "checkpoint");  // the load itself is not logged
  t.total_s = UsBetween(t0, Clock::now()) / 1e6;
  return t;
}

// ---------------------------------------------------------------------------
// Results, spans and checks

struct Span {
  uint64_t id, parent;
  std::string name;
  double start_us, dur_us;
};

struct Sample {  // a read statement chosen for per-layer decomposition
  uint64_t span_id;
  OpType type;
  std::string sql;                // with literals, or with ? placeholders
  std::vector<MoodValue> params;  // the placeholders' values, if any
};

struct RunStats {
  std::vector<double> lat_ms[kOpTypes];
  uint64_t attempted[kOpTypes] = {};
  uint64_t failed[kOpTypes] = {};
  uint64_t wrong = 0;                   // wrong answers
  std::vector<std::string> wrong_seen;  // the first few of them
  std::vector<Span> spans;
  std::vector<Sample> samples;
  std::vector<double> commit_us;

  void Wrong(const std::string& what) {
    if (wrong++ < 5) wrong_seen.push_back(what);
  }
  uint64_t Ops() const {
    uint64_t n = 0;
    for (int t = 0; t < kOpTypes; t++) n += attempted[t];
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (int t = 0; t < kOpTypes; t++) n += failed[t];
    return n;
  }
};

std::vector<int64_t> Column(const std::vector<std::vector<MoodValue>>& rows, size_t col,
                            bool* ok) {
  std::vector<int64_t> out;
  for (const auto& r : rows) {
    auto v = r.size() > col ? IntOf(r[col]) : std::nullopt;
    if (!v) {
      *ok = false;
      return {};
    }
    out.push_back(*v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// One operation, generated from the seeded stream.
struct Op {
  OpType type;
  uint32_t key = 0;                                // point vehicle id
  std::vector<std::pair<uint32_t, int32_t>> rows;  // write: vehicle id, new weight
  uint32_t company = 0;                            // path
  int32_t cyl = 0;                                 // path
  int32_t lo = 0, hi = 0;                          // scan range
};

// ---------------------------------------------------------------------------
// The runner: one in-process session.

class Bench {
 public:
  Bench(WorkloadSpec spec, Model* model, uint64_t seed)
      : spec_(std::move(spec)), model_(model), rng_(seed * 1000003ull + 1) {
    // Point and write keys walk a seeded permutation of the ids, so a point
    // read never repeats within a run.
    const uint32_t n = static_cast<uint32_t>(model_->vehicles.size());
    for (uint32_t k = 0; k < n; k++) keys_.push_back(k);
    for (size_t i = keys_.size(); i > 1; i--) {
      std::swap(keys_[i - 1], keys_[rng_.Uniform(static_cast<uint32_t>(i))]);
    }
    Rng r(seed ^ 0x5DEECE66Dull);
    const uint32_t n_eng = static_cast<uint32_t>(model_->engine_size.size());
    for (int i = 0; i < kMvScanRanges; i++) {
      int32_t lo = 1000 + static_cast<int32_t>(r.Uniform(n_eng - 50));
      mv_ranges_.push_back({lo, lo + 40});
    }
  }

  std::vector<Op> NextRound() {
    std::vector<Op> round;
    const uint32_t n = static_cast<uint32_t>(model_->vehicles.size());
    for (OpType t : spec_.round) {
      Op op{t};
      switch (t) {
        case kPoint:
          op.key = NextKey();
          break;
        case kWrite:
          for (int i = 0; i < kWriteRows; i++) {
            op.rows.push_back({NextKey(), static_cast<int32_t>(800 + rng_.Uniform(2000))});
          }
          break;
        case kPath:
          op.company = model_->vehicles[rng_.Uniform(n)].company;
          op.cyl = static_cast<int32_t>(2 + 2 * rng_.Uniform(16));
          break;
        case kScan:
          if (spec_.matview) {
            const auto& r = mv_ranges_[rng_.Uniform(kMvScanRanges)];
            op.lo = r.first;
            op.hi = r.second;
          } else {
            op.lo = static_cast<int32_t>(800 + rng_.Uniform(2000 - kScanWidth));
            op.hi = op.lo + static_cast<int32_t>(kScanWidth);
          }
          break;
        default:
          break;
      }
      round.push_back(op);
    }
    return round;
  }

  // Reads run as prepared statements, except on mv_write_mix, whose path is
  // the view's text and whose scan is a text statement the result cache
  // answers every time.
  bool UsesPrepared(OpType t) const { return t != kWrite && (!spec_.matview || t == kPoint); }

  static std::string PreparedSql(OpType t) {
    return t == kPoint ? kPointSql : t == kPath ? kPathSql : kScanSql;
  }

  static std::string EngineScanSql(int32_t lo, int32_t hi) {
    return "SELECT e.size FROM VehicleEngine e WHERE e.size >= " + std::to_string(lo) +
           " AND e.size < " + std::to_string(hi);
  }

  // The statement text of a read, as it runs and as the decomposition
  // replays it.
  std::string ReadSql(const Op& op) const {
    if (UsesPrepared(op.type)) return PreparedSql(op.type);
    return op.type == kPath ? kViewSql : EngineScanSql(op.lo, op.hi);
  }

  std::string UpdateSql(uint32_t key, int32_t weight) const {
    if (spec_.matview) {
      return "UPDATE Vehicle v SET weight = " + std::to_string(weight) +
             " WHERE v.id = " + std::to_string(key);
    }
    return "UPDATE Vehicle v SET sales = v.sales + 1 WHERE v.id = " + std::to_string(key);
  }

  // Caches every mv_write_mix scan range, so that every timed scan hits.
  void WarmScanCache(Session* s) const {
    for (const auto& [lo, hi] : mv_ranges_) {
      Must(s->Execute(EngineScanSql(lo, hi)).status(), "warm scan");
    }
  }

  std::vector<MoodValue> Params(const Op& op) const {
    switch (op.type) {
      case kPoint:
        return {MoodValue::Integer(static_cast<int32_t>(op.key))};
      case kPath:
        return {MoodValue::String(model_->company_name[op.company]),
                MoodValue::Integer(op.cyl)};
      case kScan:
        return {MoodValue::Integer(op.lo), MoodValue::Integer(op.hi)};
      default:
        return {};
    }
  }

  // Checks a read's rows against the model.
  bool Check(const Op& op, const std::vector<std::vector<MoodValue>>& rows,
             std::string* why) const {
    bool ok = true;
    switch (op.type) {
      case kPoint: {
        if (rows.size() != 1 || rows[0].size() != 2) {
          *why = "point " + std::to_string(op.key) + ": " + std::to_string(rows.size()) +
                 " rows";
          return false;
        }
        auto w = IntOf(rows[0][0]);
        auto s = IntOf(rows[0][1]);
        const auto& v = model_->vehicles[op.key];
        if (!w || !s || *w != v.weight || *s != v.sales) {
          *why = "point " + std::to_string(op.key) + ": wrong weight/sales";
          return false;
        }
        return true;
      }
      case kPath: {
        if (spec_.matview) return CheckView(rows, why);
        auto got = Column(rows, 0, &ok);
        if (!ok || got != model_->PathAnswer(op.company, op.cyl)) {
          *why = "path " + model_->company_name[op.company] + "/" + std::to_string(op.cyl);
          return false;
        }
        return true;
      }
      case kScan: {
        auto got = Column(rows, 0, &ok);
        auto want = spec_.matview ? model_->EngineScanAnswer(op.lo, op.hi)
                                  : model_->ScanAnswer(op.lo, op.hi);
        if (!ok || got != want) {
          *why = "scan [" + std::to_string(op.lo) + "," + std::to_string(op.hi) + ")";
          return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  bool CheckView(const std::vector<std::vector<MoodValue>>& rows, std::string* why) const {
    std::vector<std::tuple<int64_t, int64_t, int64_t>> got;
    for (const auto& r : rows) {
      auto a = r.size() == 3 ? IntOf(r[0]) : std::nullopt;
      auto b = r.size() == 3 ? IntOf(r[1]) : std::nullopt;
      auto c = r.size() == 3 ? IntOf(r[2]) : std::nullopt;
      if (!a || !b || !c) {
        *why = "view row shape";
        return false;
      }
      got.emplace_back(*a, *b, *c);
    }
    std::sort(got.begin(), got.end());
    if (got != model_->ViewAnswer()) {
      *why = "view answer differs from the model (" + std::to_string(got.size()) + " rows)";
      return false;
    }
    return true;
  }

  struct Prepared {
    PreparedStatement point, path, scan;
  };

  Prepared PrepareAll(Session* s) {
    Prepared p;
    auto prep = [&](const std::string& sql) {
      auto r = s->Prepare(sql);
      Must(r.status(), "prepare " + sql);
      return std::move(*r);
    };
    p.point = prep(PreparedSql(kPoint));
    p.path = prep(PreparedSql(kPath));
    p.scan = prep(PreparedSql(kScan));
    return p;
  }

  // Runs one op; returns false on a failed operation.
  bool Run(Session* s, const Prepared& p, const Op& op, RunStats* st, double* commit_us) {
    if (op.type == kWrite) {
      auto txn = s->Begin();
      if (!txn.ok()) return false;
      for (const auto& [key, weight] : op.rows) {
        auto r = s->Execute(UpdateSql(key, weight));
        if (!r.ok() || r->affected != 1) {
          (void)txn->Abort();
          return false;
        }
      }
      auto tc = Clock::now();
      if (!txn->Commit().ok()) return false;
      *commit_us = UsBetween(tc, Clock::now());
      for (const auto& [key, weight] : op.rows) {
        if (spec_.matview) model_->vehicles[key].weight = weight;
        else model_->vehicles[key].sales++;
      }
      return true;
    }
    Result<ExecResult> r = Status::Internal("unset");
    if (UsesPrepared(op.type)) {
      const PreparedStatement& ps = op.type == kPoint ? p.point
                                    : op.type == kPath ? p.path
                                                       : p.scan;
      r = s->ExecutePrepared(ps, Params(op));
    } else {
      r = s->Execute(ReadSql(op));
    }
    if (!r.ok()) return false;
    std::string why;
    if (!Check(op, r->query.rows, &why)) st->Wrong(why);
    return true;
  }

  const WorkloadSpec& spec() const { return spec_; }

 private:
  uint32_t NextKey() { return keys_[next_key_++ % keys_.size()]; }

  WorkloadSpec spec_;
  Model* model_;
  Rng rng_;
  std::vector<uint32_t> keys_;
  size_t next_key_ = 0;
  std::vector<std::pair<int32_t, int32_t>> mv_ranges_;
};

// ---------------------------------------------------------------------------
// Timed phases

uint64_t g_span_ids = 1;

struct PhaseOptions {
  double seconds;
  bool trace;
  uint64_t sample_seed;
  Clock::time_point epoch;  // span clock
};

// A closed loop: whole rounds until the deadline has passed.
RunStats RunPhase(Bench* bench, Session* s, const Bench::Prepared& p, const PhaseOptions& po) {
  RunStats st;
  Rng sampler(po.sample_seed * 7919);
  const auto deadline = Clock::now() + std::chrono::duration<double>(po.seconds);
  do {
    for (const Op& op : bench->NextRound()) {
      double commit_us = -1;
      auto t0 = Clock::now();
      const bool ok = bench->Run(s, p, op, &st, &commit_us);
      auto t1 = Clock::now();
      st.attempted[op.type]++;
      if (!ok) {
        st.failed[op.type]++;
        continue;
      }
      st.lat_ms[op.type].push_back(UsBetween(t0, t1) / 1000.0);
      if (commit_us >= 0) st.commit_us.push_back(commit_us);
      if (!po.trace) continue;
      const uint64_t id = g_span_ids++;
      st.spans.push_back({id, 0, kOpNames[op.type], UsBetween(po.epoch, t0), UsBetween(t0, t1)});
      if (commit_us >= 0) {
        st.spans.push_back({g_span_ids++, id, "txn.commit", UsBetween(po.epoch, t1) - commit_us,
                            commit_us});
      }
      if (op.type != kWrite && sampler.Uniform(kSampleOneIn) == 0 &&
          !(op.type == kPath && bench->spec().matview)) {
        const bool prepared = bench->UsesPrepared(op.type);
        st.samples.push_back({id, op.type, bench->ReadSql(op),
                              prepared ? bench->Params(op) : std::vector<MoodValue>{}});
      }
    }
  } while (Clock::now() < deadline);
  return st;
}

// ---------------------------------------------------------------------------
// Per-layer decomposition of one sampled read statement.

struct Decomposed {
  uint64_t span_id = 0;
  double start_us = 0;  // when the decomposition ran, on the span clock
  double parse_us = 0, optimize_us = 0, execute_us = 0, session_us = 0, rtt_us = 0;
  double pool_fetches = 0, q_error_max = 0, rows_processed = 0, rows_out = 0;
};

double MaxQError(const QueryProfile& p) {
  double q = 0;
  if (p.has_estimates && p.est_rows > 0 && p.rows_out > 0) {
    const double a = static_cast<double>(p.rows_out);
    q = std::max(p.est_rows / a, a / p.est_rows);
  }
  for (const auto& c : p.children) q = std::max(q, MaxQError(*c));
  return q;
}

double RowsProcessed(const QueryProfile& p) {
  double n = static_cast<double>(p.rows_out);
  for (const auto& c : p.children) n += RowsProcessed(*c);
  return n;
}

Decomposed Decompose(Database* db, Session* s, const Sample& smp, net::MoodClient* wire,
                     Clock::time_point epoch) {
  Decomposed d;
  d.span_id = smp.span_id;
  d.start_us = UsBetween(epoch, Clock::now());
  const bool prepared = !smp.params.empty();
  const std::string& sql = smp.sql;
  QueryOptions uncached;
  uncached.use_cache = false;
  QueryOptions profiled = uncached;
  profiled.collect_profile = true;
  profiled.feedback = false;  // do not feed measured cardinalities back
  Result<PreparedStatement> ps = Status::Internal("unset");
  if (prepared) {
    ps = s->Prepare(sql);
    Must(ps.status(), "prepare sample");
  }
  auto run = [&](const QueryOptions& qo) {
    return prepared ? s->ExecutePrepared(*ps, smp.params, qo) : s->Execute(sql, qo);
  };
  Must(run(uncached).status(), "warm sample");  // every stage below runs warm

  // Parse and optimize take microseconds: the median of three timings.
  std::vector<double> parse_us, optimize_us;
  Result<Statement> parsed = Status::Internal("unset");
  Result<QueryOptimizer::Optimized> opt = Status::Internal("unset");
  for (int i = 0; i < 3; i++) {
    auto t0 = Clock::now();
    parsed = Parser::Parse(sql);
    parse_us.push_back(UsBetween(t0, Clock::now()));
    Must(parsed.status(), "parse sample");
  }
  const auto& sel = std::get<SelectStmt>(*parsed);
  for (int i = 0; i < 3; i++) {
    auto t0 = Clock::now();
    opt = db->optimizer()->Optimize(sel, true);
    optimize_us.push_back(UsBetween(t0, Clock::now()));
    Must(opt.status(), "optimize sample");
  }
  d.parse_us = Median(parse_us);
  d.optimize_us = Median(optimize_us);
  {
    // As Database::ExecSelectCached runs it: shared commit gate, a statement
    // snapshot pin, the configured executor defaults.
    VersionStore* vs = db->versions();
    CommitGate::SharedGuard gate(&vs->gate());
    const uint64_t snap = vs->PinSnapshot();
    ExecOptions eo;
    eo.snapshot = SnapshotView{vs, snap};
    if (prepared) eo.params = &smp.params;
    const double f0 = db->metrics()->Snapshot().ValueOf("bufferpool.fetches");
    auto t0 = Clock::now();
    auto r = db->executor()->ExecuteSelect(*opt, eo);
    d.execute_us = UsBetween(t0, Clock::now());
    d.pool_fetches = db->metrics()->Snapshot().ValueOf("bufferpool.fetches") - f0;
    vs->UnpinSnapshot(snap);
    Must(r.status(), "execute sample");
  }
  auto t0 = Clock::now();
  auto plain = run(uncached);
  d.session_us = UsBetween(t0, Clock::now());
  Must(plain.status(), "session sample");
  auto prof = run(profiled);
  Must(prof.status(), "profiled sample");
  if (prof->profile != nullptr) {
    d.q_error_max = MaxQError(*prof->profile);
    d.rows_processed = RowsProcessed(*prof->profile);
    d.rows_out = static_cast<double>(prof->query.rows.size());
  }
  // The same statement over the wire; the connection's session skips the
  // caches, as the in-process timing above does.
  if (prepared) {
    auto wp = wire->Prepare(sql);
    Must(wp.status(), "wire prepare sample");
    t0 = Clock::now();
    auto r = wire->ExecutePrepared(*wp, smp.params);
    d.rtt_us = UsBetween(t0, Clock::now());
    Must(r.status(), "wire sample");
    Must(wire->ClosePrepared(*wp), "wire close sample");
  } else {
    t0 = Clock::now();
    auto r = wire->Execute(sql);
    d.rtt_us = UsBetween(t0, Clock::now());
    Must(r.status(), "wire sample");
  }
  return d;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

struct Args {
  std::string workload, dir, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else Die("unknown argument " + k);
  }
  if (a.workload.empty() || a.dir.empty() || a.seconds <= 0) {
    Die("usage: mood_perfbench --workload W --seed N --seconds S --trace 0|1 --dir D");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec spec = SpecFor(args.workload);
  const fs::path root(args.dir);

  // --- Set-up, repeated; the median is setup_s, the last one is measured.
  Model model;
  model.Generate(spec.vehicles, args.seed);
  std::vector<double> setup_s;
  double analyze_s = 0;
  auto db = std::make_unique<Database>();
  for (int i = 0; i < kSetupRepeats; i++) {
    fs::remove_all(root);
    fs::create_directories(root);
    if (i > 0) db = std::make_unique<Database>();
    SetupTimes t = Setup(db.get(), root, spec, &model);
    setup_s.push_back(t.total_s);
    analyze_s = t.analyze_s;
    if (i + 1 < kSetupRepeats) Must(db->Close(), "close");
  }
  const uint64_t data_bytes_loaded = FileBytes(root, "db.mood");

  Bench bench(spec, &model, args.seed);
  auto session = db->CreateSession();
  const Bench::Prepared prepared = bench.PrepareAll(session.get());
  const Clock::time_point trace_epoch = Clock::now();
  auto run_phase = [&](double seconds, bool trace) {
    return RunPhase(&bench, session.get(), prepared, {seconds, trace, args.seed, trace_epoch});
  };

  // --- Warm-up: a short untimed phase (every MV scan range gets cached).
  {
    RunStats warm = run_phase(std::min(1.0, args.seconds / 5), false);
    if (spec.matview) bench.WarmScanCache(session.get());
    if (warm.wrong > 0) Die("warm-up answer wrong: " + warm.wrong_seen[0]);
    if (warm.Failed() > 0) Die("warm-up operation failed");
  }

  // --- Timed phase(s).
  RunStats stats;
  RunStats untraced_half;
  Counters layer_delta, wire_delta;
  std::vector<double> probe_rtt_us, probe_engine_us, probe_wire_us;
  double wal_bytes_traced = 0;
  std::vector<Decomposed> decomposed[kOpTypes];
  double measured_s = 0, untraced_s = 0;
  if (!args.trace) {
    auto t0 = Clock::now();
    stats = run_phase(args.seconds, false);
    measured_s = UsBetween(t0, Clock::now()) / 1e6;
  } else {
    auto t0 = Clock::now();
    untraced_half = run_phase(args.seconds / 2, false);
    untraced_s = UsBetween(t0, Clock::now()) / 1e6;
    const uint64_t wal0 = FileBytes(root, "db.wal");
    const Counters before = Snap(db.get());
    t0 = Clock::now();
    stats = run_phase(args.seconds / 2, true);
    measured_s = UsBetween(t0, Clock::now()) / 1e6;
    // Registry deltas at the phase's boundaries: only workload operations
    // run inside it (the decomposition below runs after it).
    AddDelta(&layer_delta, before, Snap(db.get()));
    wal_bytes_traced = static_cast<double>(FileBytes(root, "db.wal")) - static_cast<double>(wal0);

    // Per-layer decomposition of the sampled reads, each also replayed over
    // one loopback connection to a wire server in this process.
    auto s = db->CreateSession();
    net::MoodServer server;
    net::ServerOptions so;
    so.worker_threads = kServerWorkers;
    so.idle_timeout_ms = 0;  // the idle reaper can drop a live connection (README.md)
    Must(server.Start(db.get(), so), "server start");
    net::MoodClient wire;
    Must(wire.Connect("127.0.0.1", server.port()), "connect");
    Must(wire.SetOption("use_cache", 0), "wire use_cache");
    for (const Sample& smp : stats.samples) {
      decomposed[smp.type].push_back(Decompose(db.get(), s.get(), smp, &wire, trace_epoch));
    }
    // The replayed reads take milliseconds, too long for the wire's own cost
    // to show beside their run-to-run variation. The net metrics come from a
    // literal point lookup on the unique index instead, timed over the
    // connection and in process, alternately.
    QueryOptions uncached;
    uncached.use_cache = false;
    const Counters wire_before = Snap(db.get());
    for (uint32_t k = 0; k < kWireProbes; k++) {
      const std::string sql = "SELECT v.weight, v.sales FROM Vehicle v WHERE v.id = " +
                              std::to_string(k % spec.vehicles);
      auto t0 = Clock::now();
      Must(wire.Execute(sql).status(), "wire probe");
      probe_rtt_us.push_back(UsBetween(t0, Clock::now()));
      t0 = Clock::now();
      Must(s->Execute(sql, uncached).status(), "engine probe");
      probe_engine_us.push_back(UsBetween(t0, Clock::now()));
      probe_wire_us.push_back(probe_rtt_us.back() - probe_engine_us.back());
    }
    AddDelta(&wire_delta, wire_before, Snap(db.get()));
    wire.Close();
    server.Stop();
  }
  session.reset();

  // --- Durability: close, reopen, re-check every committed write.
  bool durable = true;
  std::string durable_why;
  Must(db->Close(), "close");
  db = std::make_unique<Database>();
  Must(db->Open((root / "db").string(), OptionsFor(spec)), "reopen");
  {
    auto r = db->Query("SELECT v.id, v.weight, v.sales FROM Vehicle v");
    Must(r.status(), "reopen query");
    size_t seen = 0;
    for (const auto& row : r->rows) {
      auto id = row.size() == 3 ? IntOf(row[0]) : std::nullopt;
      auto w = row.size() == 3 ? IntOf(row[1]) : std::nullopt;
      auto sl = row.size() == 3 ? IntOf(row[2]) : std::nullopt;
      if (!id || !w || !sl || *id < 0 || *id >= static_cast<int64_t>(model.vehicles.size()) ||
          *w != model.vehicles[*id].weight || *sl != model.vehicles[*id].sales) {
        durable = false;
        durable_why = "vehicle row after reopen differs from the model";
        break;
      }
      seen++;
    }
    if (durable && seen != model.vehicles.size()) {
      durable = false;
      durable_why = "vehicle count after reopen differs from the model";
    }
  }
  Must(db->Checkpoint(), "final checkpoint");
  const uint64_t data_bytes = FileBytes(root, "db.mood");
  Must(db->Close(), "final close");
  db.reset();
  fs::remove_all(root);

  // --- Report. No operation fails on either workload, so a failed one
  // fails the run as a wrong answer does, and cannot pass for a fast one.
  const uint64_t attempted = stats.Ops(), failed = stats.Failed();
  const bool correct = stats.wrong == 0 && untraced_half.wrong == 0 && durable &&
                       failed + untraced_half.Failed() == 0;
  std::printf("workload %s seed %llu: %.2f s measured, setup %.3f s (median of %d), "
              "data %.1f MiB loaded / pool %.1f MiB\n",
              spec.name.c_str(), (unsigned long long)args.seed, measured_s, Median(setup_s),
              kSetupRepeats, data_bytes_loaded / 1048576.0, spec.pool_pages * 4096 / 1048576.0);
  for (int t = 0; t < kOpTypes; t++) {
    const auto& v = stats.lat_ms[t];
    const double beyond = static_cast<double>(v.size()) * (1 - spec.tail_q[t]);
    std::printf("  %-5s attempted %6llu failed %llu  p50 %.3f  p75 %.3f  p90 %.3f  p95 %.3f  "
                "p99 %.3f  max %.3f ms; tail p%g%s\n",
                kOpNames[t], (unsigned long long)stats.attempted[t],
                (unsigned long long)stats.failed[t], Median(v), Quantile(v, 0.75),
                Quantile(v, 0.9), Quantile(v, 0.95), Quantile(v, 0.99), Quantile(v, 1.0),
                spec.tail_q[t] * 100, beyond < 10 ? " (fewer than 10 samples beyond it)" : "");
  }
  for (const auto& w : stats.wrong_seen) std::printf("  WRONG: %s\n", w.c_str());
  if (stats.wrong > 0) {
    std::printf("  %llu wrong answers\n", (unsigned long long)stats.wrong);
  }
  if (!durable) std::printf("  WRONG: %s\n", durable_why.c_str());
  if (failed + untraced_half.Failed() > 0) {
    std::printf("  FAILED: %llu operations\n",
                (unsigned long long)(failed + untraced_half.Failed()));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back(
        {"throughput_ops_s", static_cast<double>(attempted - failed) / measured_s, "1/s"});
    for (int t = 0; t < kOpTypes; t++) {
      const std::string typical = "_p" + std::to_string(std::lround(kTypicalQ[t] * 100)) + "_ms";
      metrics.push_back(
          {kOpNames[t] + typical, Quantile(stats.lat_ms[t], kTypicalQ[t]), "ms"});
      // The write tail is the host's I/O stalls more than the engine's work:
      // it did not repeat between runs (README.md), so it is printed above
      // but not reported.
      if (t == kWrite) continue;
      metrics.push_back({std::string(kOpNames[t]) + "_tail_ms",
                         Quantile(stats.lat_ms[t], spec.tail_q[t]), "ms"});
    }
    metrics.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
    metrics.push_back({"disk_bytes_per_user_byte",
                       static_cast<double>(data_bytes) / static_cast<double>(model.user_bytes),
                       "ratio"});
  } else {
    const Counters& d = layer_delta;
    const double ops = static_cast<double>(attempted);
    const double reads = ops - static_cast<double>(stats.attempted[kWrite]);
    const double writes = static_cast<double>(stats.attempted[kWrite]);
    auto med = [&](int type_mask, double Decomposed::*f) {
      std::vector<double> v;
      for (int t = 0; t < kOpTypes; t++) {
        if (!(type_mask & (1 << t))) continue;
        for (const auto& x : decomposed[t]) v.push_back(x.*f);
      }
      return Median(v);
    };
    const int all_reads = (1 << kPoint) | (1 << kPath) | (1 << kScan);
    std::vector<double> core_us;
    double rows_processed = 0, rows_out = 0, q_path = 0;
    for (int t = 0; t < kOpTypes; t++) {
      for (const auto& x : decomposed[t]) {
        core_us.push_back(x.session_us - x.parse_us - x.optimize_us - x.execute_us);
        rows_processed += x.rows_processed;
        rows_out += x.rows_out;
        if (t == kPath) q_path = std::max(q_path, x.q_error_max);
      }
    }
    std::vector<double> path_spans;
    for (const auto& sp : stats.spans) {
      if (sp.name == "path") path_spans.push_back(sp.dur_us);
    }
    const double mv_hits = Get(d, "mv.hits");
    const double hits = Get(d, "bufferpool.hits"), misses = Get(d, "bufferpool.misses");
    const double dh = Get(d, "objects.deref_cache.hits"),
                 dm = Get(d, "objects.deref_cache.misses");
    const double ph = Get(d, "cache.plan.hits"), pm = Get(d, "cache.plan.misses");
    const double rh = Get(d, "cache.result.hits"), rm = Get(d, "cache.result.misses");
    const double path_ops = static_cast<double>(stats.attempted[kPath]);
    // Tracing overhead: workload throughput, untraced half vs traced half.
    const double thr_untraced = static_cast<double>(untraced_half.Ops()) / untraced_s;
    const double thr_traced = ops / measured_s;
    metrics = {
        {"net.rtt_us", Median(probe_rtt_us), "us"},
        {"net.engine_us", Median(probe_engine_us), "us"},
        {"net.wire_us", Median(probe_wire_us), "us"},
        {"net.frames_per_op", Ratio(Get(wire_delta, "net.frames"), kWireProbes), "count/op"},
        {"sql.parse_us", med(all_reads, &Decomposed::parse_us), "us"},
        {"optimizer.optimize_us", med(all_reads, &Decomposed::optimize_us), "us"},
        {"optimizer.q_error_max", q_path, "ratio"},
        {"exec.execute_us", med(all_reads, &Decomposed::execute_us), "us"},
        {"exec.rows_in_per_row_out", Ratio(rows_processed, std::max(1.0, rows_out)), "ratio"},
        {"exec.batches_per_op", Ratio(Get(d, "exec.batch.batches"), reads), "count/op"},
        {"cache.plan.hit_ratio", Ratio(ph, ph + pm), "ratio"},
        {"cache.result.hit_ratio", Ratio(rh, rh + rm), "ratio"},
        {"mv.hits_per_read", Ratio(mv_hits, path_ops), "count/op"},
        {"mv.maintenance_rows_per_write", Ratio(Get(d, "mv.maintenance_rows"), writes),
         "count/op"},
        {"mv.full_refreshes", Get(d, "mv.full_refreshes"), "count"},
        {"mv.serve_us", spec.matview ? Median(path_spans) : 0, "us"},
        {"objects.derefs_per_op", Ratio(dh + dm, reads), "count/op"},
        {"objects.deref_cache.hit_ratio", Ratio(dh, dh + dm), "ratio"},
        {"storage.record_reads_per_op", Ratio(Get(d, "storage.record_reads"), ops),
         "count/op"},
        {"index.pool_fetches_per_lookup", med(1 << kPoint, &Decomposed::pool_fetches),
         "count/op"},
        {"bufferpool.fetches_per_op", Ratio(Get(d, "bufferpool.fetches"), ops), "count/op"},
        {"bufferpool.hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"bufferpool.evictions_per_op", Ratio(Get(d, "bufferpool.evictions"), ops),
         "count/op"},
        {"disk.reads_per_op", Ratio(Get(d, "storage.disk_reads"), ops), "count/op"},
        {"disk.writes_per_op", Ratio(Get(d, "storage.disk_writes"), ops), "count/op"},
        {"txn.commit_us", Median(stats.commit_us), "us"},
        {"wal.fsyncs_per_txn", Ratio(Get(d, "wal.fsyncs"), writes), "count/op"},
        {"wal.bytes_per_user_byte", Ratio(wal_bytes_traced, writes * kWriteRows * 4), "ratio"},
        {"lockman.acquires_per_txn", Ratio(Get(d, "lockman.acquires"), writes), "count/op"},
        {"lockman.wait_blocks", Get(d, "lockman.wait_blocks"), "count"},
        {"stats.analyze_s", analyze_s, "s"},
        {"core.overhead_us", Median(core_us), "us"},
        {"trace.overhead_pct", (Ratio(thr_untraced, thr_traced) - 1) * 100, "%"},
    };
    // Spans and the per-layer self-time summary go to the trace file.
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      for (const auto& sp : stats.spans) {
        out << "{\"id\": " << sp.id << ", \"parent\": " << sp.parent << ", \"name\": \""
            << sp.name << "\", \"start_us\": " << sp.start_us << ", \"dur_us\": " << sp.dur_us
            << "}\n";
      }
      // Decomposition spans: children of the sampled op's span, timed by
      // re-running the same statement stage by stage after the phase.
      for (int t = 0; t < kOpTypes; t++) {
        for (const auto& x : decomposed[t]) {
          double at = x.start_us;
          auto child = [&](const char* name, double dur) {
            out << "{\"id\": " << g_span_ids++ << ", \"parent\": " << x.span_id
                << ", \"name\": \"" << name << "\", \"start_us\": " << at
                << ", \"dur_us\": " << dur << "}\n";
            at += dur;
          };
          child("sql.parse", x.parse_us);
          child("optimizer.optimize", x.optimize_us);
          child("exec.execute_select", x.execute_us);
          child("core.session_execute", x.session_us);
          child("net.rtt", x.rtt_us);
        }
      }
      std::map<std::string, double> self;
      for (int t = 0; t < kOpTypes; t++) {
        for (const auto& x : decomposed[t]) {
          self["sql"] += x.parse_us;
          self["optimizer"] += x.optimize_us;
          self["exec"] += x.execute_us;
          self["core"] += x.session_us - x.parse_us - x.optimize_us - x.execute_us;
          self["net"] += x.rtt_us - x.session_us;
        }
      }
      for (double c : stats.commit_us) self["txn.commit"] += c;
      out << "{\"summary\": {\"self_us\": {";
      size_t k = 0;
      for (const auto& [layer, us] : self) {
        out << (k++ ? ", " : "") << "\"" << layer << "\": " << us;
      }
      out << "}, \"sampled_reads\": " << stats.samples.size() << ", \"metrics\": {";
      for (size_t m = 0; m < metrics.size(); m++) {
        out << (m ? ", " : "") << "\"" << metrics[m].name << "\": " << metrics[m].value;
      }
      out << "}}}\n";
      std::printf("  trace: %zu spans, %zu decomposed reads -> %s\n", stats.spans.size(),
                  stats.samples.size(), args.trace_out.c_str());
      for (const auto& [layer, us] : self) {
        std::printf("  self time %-10s %12.1f us\n", layer.c_str(), us);
      }
    }
  }
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
