// Steady-state workload driver for the perfbench benchmark.
//
// One process runs one workload for one seed. It calls the public
// functions of each layer from outside (no code under src/ is changed
// for the benchmark), records raw per-step samples, per-layer samples
// and correctness checks, and writes them as one JSON document to
// --out. perfbench/run.py turns that document into the benchmark's
// metrics; every statistic (warm-up cut, medians, tail percentiles) is
// computed there, not here.
//
//   perfbench_driver --workload fed_steady --seed 1 --seconds 10
//                    --trace 0 --out raw.json [--spans spans.jsonl]
//
// Workloads (perfbench/README.md gives the reason for each):
//   fed_steady       RAM store, 100k users, depth-1 rounds.
//   fed_tiered_cold  mmap store, 1M users behind the hot-row cache,
//                    pipeline depth 2, rounds driven in fixed blocks.
//   paper_defense    ML-1M-scale PIECK-UEA vs DEFENSE(ours), 150
//                    rounds, then ER@10 and HR@10.
//   serve_topk       exact fused top-K over 50k x d=64 natural scores.
//
// With --trace 1 each workload runs twice from fresh set-ups: an
// untraced pass, then a traced pass of the same amount of work that
// records a span (name, round, start, end) around every public call.
// The traced pass must reproduce the untraced pass's digest.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/simulation.h"
#include "data/interaction_csr.h"
#include "data/synthetic.h"
#include "fed/client_state_store.h"
#include "fed/server.h"
#include "model/rec_model.h"
#include "serving/topk_select.h"
#include "serving/topk_server.h"
#include "storage/storage.h"

namespace pieck::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Worker threads of every workload (see README: 3 of 4 vCPUs held the
// paper run within 2.3%, 4 threads spread 45%).
constexpr int kThreads = 3;
// Set-ups per run; run.py reports their median as setup_s.
constexpr int kSetupRepeats = 5;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

int64_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// Cumulative CPU time of all vCPUs from /proc/stat, in clock ticks.
/// `steal` is time the hypervisor ran something else while a vCPU of
/// this guest was ready to run: interference from outside the guest.
struct CpuTimes {
  int64_t steal = 0;
  int64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[10] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld %lld %lld",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                  &v[8], &v[9]) >= 8) {
    // Fields 8 and 9 (guest, guest_nice) are already counted in user.
    for (int i = 0; i < 8; ++i) t.total += v[i];
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a fold of raw double bits (bitwise fingerprint of a run).
uint64_t FoldDoubles(uint64_t h, const double* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &p[i], sizeof(bits));
    h ^= bits;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t ModelDigest(const GlobalModel& g, const std::vector<double>& losses) {
  uint64_t h = FoldDoubles(0xcbf29ce484222325ULL,
                           g.item_embeddings.data().data(),
                           g.item_embeddings.data().size());
  return FoldDoubles(h, losses.data(), losses.size());
}

// ---------------------------------------------------------------------
// Raw output: named sample lists and scalars, checks, and spans.

struct Span {
  const char* name;
  int round;
  Clock::time_point start;
  Clock::time_point end;
};

class RawOutput {
 public:
  explicit RawOutput(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& series, double v) { series_[series].push_back(v); }
  void Set(const std::string& name, double v) { values_[name] = v; }

  /// Records one run-level correctness check.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "check failed: %s (%s)\n", name.c_str(),
                          detail.c_str());
  }
  /// Counts one operation of the timed window (a round or a batch).
  void CountOp(bool ok) {
    ++ops_attempted_;
    if (!ok) ++ops_failed_;
  }

  /// The spans of the traced pass, kept in memory until Write.
  std::vector<Span>& spans() { return spans_; }

  bool Write(const std::string& path, const std::string& spans_path) const;

 private:
  struct CheckRecord {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::string workload_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
  std::vector<CheckRecord> checks_;
  std::vector<Span> spans_;
  int64_t ops_attempted_ = 0;
  int64_t ops_failed_ = 0;
};

void WriteNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fprintf(f, "null");  // run.py rejects a non-finite measurement
  }
}

bool RawOutput::Write(const std::string& path,
                      const std::string& spans_path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"threads\": %d,\n",
               workload_.c_str(), kThreads);
  std::fprintf(f, "\"ops_attempted\": %lld, \"ops_failed\": %lld,\n",
               static_cast<long long>(ops_attempted_),
               static_cast<long long>(ops_failed_));
  std::fprintf(f, "\"values\": {");
  const char* sep = "";
  for (const auto& [name, v] : values_) {
    std::fprintf(f, "%s\"%s\": ", sep, name.c_str());
    WriteNumber(f, v);
    sep = ", ";
  }
  std::fprintf(f, "},\n\"series\": {");
  sep = "";
  for (const auto& [name, list] : series_) {
    std::fprintf(f, "%s\n\"%s\": [", sep, name.c_str());
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) std::fputc(',', f);
      WriteNumber(f, list[i]);
    }
    std::fprintf(f, "]");
    sep = ",";
  }
  std::fprintf(f, "},\n\"checks\": [");
  sep = "";
  for (const CheckRecord& c : checks_) {
    std::fprintf(f, "%s\n{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                 sep, c.name.c_str(), c.ok ? "true" : "false",
                 c.detail.c_str());
    sep = ",";
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::fclose(f) == 0;
  if (spans_path.empty() || spans_.empty()) return ok;

  // One JSON line per span, times in microseconds from the first span.
  std::FILE* s = std::fopen(spans_path.c_str(), "w");
  if (s == nullptr) return false;
  const Clock::time_point origin = spans_.front().start;
  for (const Span& sp : spans_) {
    std::fprintf(s,
                 "{\"name\": \"%s\", \"round\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}\n",
                 sp.name, sp.round, MsBetween(origin, sp.start) * 1e3,
                 MsBetween(origin, sp.end) * 1e3);
  }
  return std::fclose(s) == 0 && ok;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------
// Federated population workloads (fed_steady, fed_tiered_cold).

struct PopulationConfig {
  int num_users = 0;
  int num_items = 50'000;
  int interactions_per_user = 8;
  int dim = 16;
  int cohort = 512;
  StorageKind storage = StorageKind::kRam;
  int pipeline_depth = 1;
};

/// One wired population: adjacency, store, server and round RNG.
struct Population {
  std::unique_ptr<RecModel> model;
  std::shared_ptr<StoreDir> store_dir;  // mmap only; outlives the store
  std::unique_ptr<ClientStateStore> store;
  std::unique_ptr<FederatedServer> server;
  Rng round_rng{0};
};

/// Hash-derived sparse adjacency streamed into the CSR builder (each
/// user interacts with `interactions_per_user` stride-spaced items), so
/// set-up is O(population) and never materializes an interaction list.
std::unique_ptr<Population> BuildPopulation(const PopulationConfig& c,
                                            uint64_t seed) {
  auto pop = std::make_unique<Population>();
  StorageConfig storage;
  storage.kind = c.storage;
  if (c.storage == StorageKind::kMmap) {
    // Empty dir: a private directory under $TMPDIR, removed with the
    // store (run.py points $TMPDIR inside the checkout).
    auto dir = StoreDir::Resolve("");
    if (!dir.ok()) {
      std::fprintf(stderr, "store dir: %s\n", dir.status().ToString().c_str());
      std::exit(1);
    }
    pop->store_dir = *dir;
    storage.dir = pop->store_dir->path();
  }
  auto builder = c.storage == StorageKind::kMmap
                     ? std::make_unique<InteractionCsrBuilder>(
                           c.num_users, c.num_items,
                           pop->store_dir->FilePath("csr_offsets.bin"),
                           pop->store_dir->FilePath("csr_items.bin"))
                     : std::make_unique<InteractionCsrBuilder>(c.num_users,
                                                               c.num_items);
  std::vector<int> items(static_cast<size_t>(c.interactions_per_user));
  for (int u = 0; u < c.num_users; ++u) {
    const uint64_t h = Mix(seed ^ static_cast<uint64_t>(u));
    const int64_t base = static_cast<int64_t>(h % c.num_items);
    const int64_t step = 1 + static_cast<int64_t>((h >> 32) % (c.num_items - 1));
    for (int j = 0; j < c.interactions_per_user; ++j) {
      items[static_cast<size_t>(j)] =
          static_cast<int>((base + j * step) % c.num_items);
    }
    if (Status st = builder->AddUser(items.data(), items.size()); !st.ok()) {
      std::fprintf(stderr, "adjacency: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  auto csr = builder->Finish();
  if (!csr.ok()) {
    std::fprintf(stderr, "csr: %s\n", csr.status().ToString().c_str());
    std::exit(1);
  }
  builder.reset();

  pop->model = MakeModel(ModelKind::kMatrixFactorization, c.dim);
  Rng master(seed);
  Rng init_rng = master.Fork();
  GlobalModel global = pop->model->InitGlobalModel(c.num_items, init_rng);
  pop->store = std::make_unique<ClientStateStore>(
      *pop->model, std::move(*csr),
      std::make_shared<const NegativeSampler>(1.0), LossKind::kBce, 1.0,
      storage);
  pop->store->set_user_seed_base(master.ForkSeed());

  ServerConfig sc;
  sc.learning_rate = 1.0;
  sc.users_per_round = c.cohort;
  sc.num_threads = kThreads;
  sc.workload.seed ^= seed;
  sc.async.pipeline_depth = c.pipeline_depth;
  pop->server = std::make_unique<FederatedServer>(
      *pop->model, std::move(global), sc, std::make_unique<SumAggregator>());
  pop->round_rng = master.Fork();
  return pop;
}

/// Times kSetupRepeats set-ups into "setup_s" and returns the last.
template <typename T, typename Build>
std::unique_ptr<T> TimedSetups(RawOutput& raw, Build build) {
  std::unique_ptr<T> last;
  for (int i = 0; i < kSetupRepeats; ++i) {
    last.reset();  // the previous set-up's memory is gone before timing
    const Clock::time_point t0 = Clock::now();
    last = build();
    raw.Add("setup_s", SecondsSince(t0));
  }
  return last;
}

/// Per-round observation shared by both fed workloads.
struct FedRun {
  std::vector<double> losses;  // every round's mean benign loss
  int rounds = 0;              // rounds executed (warm-up included)
  uint64_t digest = 0;
};

/// Checks a round's mean benign loss; a window round counts as one
/// operation.
void CheckRound(RawOutput& raw, double loss, bool in_window) {
  if (in_window) raw.CountOp(std::isfinite(loss) && loss > 0.0);
}

void RecordStoreState(RawOutput& raw, ClientStateStore& store,
                      const std::string& prefix) {
  raw.Set(prefix + "footprint_bytes",
          static_cast<double>(store.FootprintBytes()));
  raw.Set(prefix + "materialized_rngs",
          static_cast<double>(store.materialized_rngs()));
  raw.Set(prefix + "materialized_defenses",
          static_cast<double>(store.materialized_defenses()));
}

// fed_steady ----------------------------------------------------------

PopulationConfig SteadyConfig() {
  PopulationConfig c;
  c.num_users = 100'000;
  return c;
}

/// Warm-up rounds: 5 * users / cohort, so > 99% of users participated.
int SteadyWarmupRounds(const PopulationConfig& c) {
  return (5 * c.num_users + c.cohort - 1) / c.cohort;
}

/// Untraced pass: the engine's own RunRound loop, one step per round.
/// Runs the warm-up, then rounds until `window_s` has passed.
FedRun SteadyEnginePass(RawOutput& raw, Population& pop, int warmup,
                        double window_s) {
  FedRun run;
  const std::vector<ClientInterface*> none;
  Clock::time_point window_start = Clock::now();
  for (int r = 0;; ++r) {
    if (r == warmup) {
      window_start = Clock::now();
      raw.Set("peak_rss_bytes",
              static_cast<double>(PeakRssBytes()));
      raw.Set("fed.store.bytes_per_user",
              static_cast<double>(pop.store->FootprintBytes()) /
                  pop.store->num_users());
    }
    if (r >= warmup && SecondsSince(window_start) >= window_s) break;
    const Clock::time_point t0 = Clock::now();
    const RoundStats s = pop.server->RunRound(*pop.store, none, r, pop.round_rng);
    raw.Add("step_ms", MsBetween(t0, Clock::now()));
    run.losses.push_back(s.mean_benign_loss);
    CheckRound(raw, s.mean_benign_loss, r >= warmup);
    run.rounds = r + 1;
  }
  run.digest = ModelDigest(pop.server->global(), run.losses);
  return run;
}

/// Traced pass: the same depth-1 rounds composed from the public calls
/// (select -> prefetch/prepare -> train fan-out -> ApplyUpdates ->
/// flush), one span per call. Bit-identical to RunRound by contract.
FedRun SteadyTracedPass(RawOutput& raw, Population& pop, int total_rounds,
                        int warmup) {
  FedRun run;
  ClientStateStore& store = *pop.store;
  FederatedServer& server = *pop.server;
  ThreadPool* pool = server.pool();
  const int num_slots = pool != nullptr ? static_cast<int>(pool->max_slots()) : 1;
  std::vector<RoundScratch> scratch(static_cast<size_t>(num_slots));
  std::vector<ClientUpdate> updates;
  std::vector<double> losses;
  std::vector<double> client_us;
  std::vector<Span>& spans = raw.spans();
  spans.reserve(static_cast<size_t>(total_rounds) * 6);

  for (int r = 0; r < total_rounds; ++r) {
    const bool in_window = r >= warmup;
    const Clock::time_point t_round = Clock::now();
    // The server's selection arena; valid until the next selection.
    const std::vector<int>& cohort =
        server.SelectParticipants(store.num_users(), 0, r, pop.round_rng);
    const Clock::time_point t_prepare = Clock::now();
    store.PrefetchUsers(cohort);
    store.PrepareRound(cohort);
    const Clock::time_point t_train = Clock::now();

    updates.resize(cohort.size());
    losses.assign(cohort.size(), 0.0);
    client_us.assign(cohort.size(), 0.0);
    const GlobalModel& g = server.global();
    ThreadPool::ParallelForOrSerialSlots(
        pool, cohort.size(), [&](size_t slot, size_t i) {
          const Clock::time_point c0 = Clock::now();
          losses[i] = BenignClientLogic::ParticipateRound(
              store, cohort[i], g, r, scratch[slot], &updates[i]);
          client_us[i] = MsBetween(c0, Clock::now()) * 1e3;
        });
    const Clock::time_point t_apply = Clock::now();
    RoundStats stats;
    server.ApplyUpdates(updates, &stats);
    const Clock::time_point t_flush = Clock::now();
    store.FlushDirtyRows();
    const Clock::time_point t_flushed = Clock::now();

    double loss_sum = 0.0;
    for (double l : losses) loss_sum += l;
    const double mean_loss = cohort.empty() ? 0.0 : loss_sum / cohort.size();
    run.losses.push_back(mean_loss);
    CheckRound(raw, mean_loss, in_window);
    // The round span closes after the driver's own bookkeeping, so the
    // child spans' coverage of it is a measurement, not a tautology.
    const Clock::time_point t_end = Clock::now();

    spans.push_back({"round", r, t_round, t_end});
    spans.push_back({"workload.select", r, t_round, t_prepare});
    spans.push_back({"fed.store.prepare", r, t_prepare, t_train});
    spans.push_back({"fed.train", r, t_train, t_apply});
    spans.push_back({"fed.route_apply", r, t_apply, t_flush});
    spans.push_back({"fed.flush", r, t_flush, t_flushed});
    if (!in_window) continue;

    const double train_ms = MsBetween(t_train, t_apply);
    double busy_us = 0.0;
    size_t touched = 0;
    for (size_t i = 0; i < cohort.size(); ++i) {
      busy_us += client_us[i];
      touched += updates[i].item_grads.size();
    }
    raw.Add("traced_step_ms", MsBetween(t_round, t_end));
    raw.Add("workload.select_ms", MsBetween(t_round, t_prepare));
    raw.Add("fed.store.prepare_ms", MsBetween(t_prepare, t_train));
    raw.Add("fed.select_stage_ms", MsBetween(t_round, t_train));
    raw.Add("fed.train_ms", train_ms);
    raw.Add("fed.train_efficiency",
            busy_us / (num_slots * train_ms * 1e3));
    raw.Add("fed.route_ms", stats.route_ms);
    raw.Add("fed.apply_ms", stats.apply_ms);
    raw.Add("fed.router_entries", static_cast<double>(stats.router_entries));
    raw.Add("fed.flush_ms", MsBetween(t_flush, t_flushed));
    raw.Add("fed.stall_ms", 0.0);  // depth 1 never waits on a snapshot
    // Bytes a client's step moves through the kernels: its user row
    // read and written, and per touched item the embedding row read and
    // the gradient row written (d doubles each).
    raw.Add("tensor.train_bytes_per_client",
            (2.0 * touched / cohort.size() + 2.0) * store.dim() *
                sizeof(double));
    if (r % 8 == 0) {  // a fixed subsample keeps the raw file small
      for (double us : client_us) raw.Add("fed.train_client_us", us);
    }
  }
  run.rounds = total_rounds;
  run.digest = ModelDigest(server.global(), run.losses);
  return run;
}

void RunFedSteady(RawOutput& raw, uint64_t seed, double seconds, bool trace) {
  const PopulationConfig c = SteadyConfig();
  const int warmup = SteadyWarmupRounds(c);
  raw.Set("users_per_step", c.cohort);
  raw.Set("warmup_steps", warmup);
  auto build = [&] { return BuildPopulation(c, seed); };
  std::unique_ptr<Population> pop =
      TimedSetups<Population>(raw, build);
  if (!trace) {
    SteadyEnginePass(raw, *pop, warmup, seconds);
    RecordStoreState(raw, *pop->store, "fed.store.");
    return;
  }
  // Untraced pass for half the window, then the traced pass for exactly
  // as many rounds from a fresh set-up; their digests must match.
  const FedRun untraced = SteadyEnginePass(raw, *pop, warmup, seconds / 2);
  pop.reset();
  pop = build();
  const FedRun traced =
      SteadyTracedPass(raw, *pop, untraced.rounds, warmup);
  raw.Check("traced_digest_matches_untraced", traced.digest == untraced.digest,
            Hex(untraced.digest) + " vs " + Hex(traced.digest));
  RecordStoreState(raw, *pop->store, "fed.store.");
}

// fed_tiered_cold -----------------------------------------------------

PopulationConfig TieredConfig() {
  PopulationConfig c;
  c.num_users = 1'000'000;
  c.storage = StorageKind::kMmap;
  c.pipeline_depth = 2;
  return c;
}

// Rounds per RunRounds call. Both passes use the same blocks, so their
// digests match; the pipeline drains once per block.
constexpr int kTieredBlock = 8;
// Default hot-row cache rows (StorageConfig::cache_rows <= 0).
constexpr int kDefaultCacheRows = 65'536;

/// Warm-up: enough rounds for the cohorts to fill the hot-row cache
/// twice over, rounded up to whole blocks.
int TieredWarmupBlocks(const PopulationConfig& c) {
  const int rounds = 2 * kDefaultCacheRows / c.cohort;
  return (rounds + kTieredBlock - 1) / kTieredBlock;
}

/// Runs whole blocks: the warm-up, then blocks until `window_s` has
/// passed (or exactly `fixed_blocks` window blocks when >= 0). One step
/// is one block; its sample is the block's wall time per round. With
/// `traced`, also records a span per block and per-layer samples from
/// the engine's RoundStats and the store's counters.
FedRun TieredPass(RawOutput& raw, Population& pop, int warmup_blocks,
                  double window_s, int fixed_blocks, bool traced) {
  FedRun run;
  const std::vector<ClientInterface*> none;
  std::vector<RoundStats> stats;
  StorageCounters at_window;
  Clock::time_point window_start = Clock::now();
  int window_blocks = 0;
  for (int b = 0;; ++b) {
    if (b == warmup_blocks) {
      window_start = Clock::now();
      at_window = pop.store->storage_counters();
      raw.Set("peak_rss_bytes",
              static_cast<double>(PeakRssBytes()));
      raw.Set("fed.store.bytes_per_user",
              static_cast<double>(pop.store->FootprintBytes()) /
                  pop.store->num_users());
    }
    if (b >= warmup_blocks) {
      if (fixed_blocks >= 0 ? window_blocks >= fixed_blocks
                            : SecondsSince(window_start) >= window_s) {
        break;
      }
    }
    const bool in_window = b >= warmup_blocks;
    stats.clear();
    const Clock::time_point t0 = Clock::now();
    pop.server->RunRounds(*pop.store, none, b * kTieredBlock, kTieredBlock,
                          pop.round_rng, &stats);
    const Clock::time_point t1 = Clock::now();
    raw.Add(traced ? "traced_step_ms" : "step_ms",
            MsBetween(t0, t1) / kTieredBlock);
    if (traced) raw.spans().push_back({"fed.run_rounds", b, t0, t1});
    for (const RoundStats& s : stats) {
      run.losses.push_back(s.mean_benign_loss);
      CheckRound(raw, s.mean_benign_loss, in_window);
      if (!traced || !in_window) continue;
      raw.Add("fed.select_stage_ms", s.select_ms);
      raw.Add("fed.store.prepare_ms", s.select_ms);
      raw.Add("fed.train_ms", s.train_ms);
      raw.Add("fed.route_ms", s.route_ms);
      raw.Add("fed.apply_ms", s.apply_ms);
      raw.Add("fed.router_entries", static_cast<double>(s.router_entries));
      raw.Add("fed.stall_ms", s.stall_ms);
    }
    if (in_window) ++window_blocks;
    run.rounds += kTieredBlock;
  }
  if (traced) {
    const StorageCounters end = pop.store->storage_counters();
    const double rounds = static_cast<double>(window_blocks) * kTieredBlock;
    const double hits = static_cast<double>(end.hits - at_window.hits);
    const double misses = static_cast<double>(end.misses - at_window.misses);
    const double read_rows =
        misses - static_cast<double>(end.staged_hits - at_window.staged_hits) -
        static_cast<double>(end.rematerializations -
                            at_window.rematerializations);
    const double read_runs =
        static_cast<double>(end.io_read_runs - at_window.io_read_runs);
    raw.Set("storage.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    raw.Set("storage.misses", misses / rounds);
    raw.Set("storage.writebacks",
            static_cast<double>(end.writebacks - at_window.writebacks) / rounds);
    raw.Set("storage.rows_per_read_run",
            read_runs > 0 ? std::max(0.0, read_rows) / read_runs : 0.0);
    raw.Set("storage.staged_hit_rate",
            misses > 0 ? static_cast<double>(end.staged_hits -
                                             at_window.staged_hits) /
                             misses
                       : 0.0);
  }
  run.digest = ModelDigest(pop.server->global(), run.losses);
  return run;
}

void RunFedTieredCold(RawOutput& raw, uint64_t seed, double seconds,
                      bool trace) {
  const PopulationConfig c = TieredConfig();
  const int warmup_blocks = TieredWarmupBlocks(c);
  raw.Set("users_per_step", c.cohort);
  raw.Set("warmup_steps", warmup_blocks);
  auto build = [&] { return BuildPopulation(c, seed); };
  std::unique_ptr<Population> pop =
      TimedSetups<Population>(raw, build);
  if (!trace) {
    TieredPass(raw, *pop, warmup_blocks, seconds, -1, /*traced=*/false);
    RecordStoreState(raw, *pop->store, "fed.store.");
    return;
  }
  const FedRun untraced =
      TieredPass(raw, *pop, warmup_blocks, seconds / 2, -1, /*traced=*/false);
  pop.reset();
  pop = build();
  const int window_blocks = untraced.rounds / kTieredBlock - warmup_blocks;
  const FedRun traced =
      TieredPass(raw, *pop, warmup_blocks, 0.0, window_blocks, /*traced=*/true);
  raw.Check("traced_digest_matches_untraced", traced.digest == untraced.digest,
            Hex(untraced.digest) + " vs " + Hex(traced.digest));
  RecordStoreState(raw, *pop->store, "fed.store.");
}

// paper_defense -------------------------------------------------------

/// The paper's ML-1M setting: 6,040 users x 3,706 items, MF d=16,
/// 256 clients per round, 150 rounds, PIECK-UEA at 5% malicious (318
/// clients, mined set N=20) against DEFENSE(ours). Spelled out here
/// rather than taken from the bench/ harness calibration, so that the
/// workload stays fixed when that calibration changes.
ExperimentConfig PaperConfig(uint64_t seed) {
  ExperimentConfig c;
  c.dataset = MovieLens1MConfig(1.0);
  c.model_kind = ModelKind::kMatrixFactorization;
  c.embedding_dim = 16;
  c.learning_rate = 1.0;
  c.users_per_round = 256;
  c.rounds = 150;
  c.malicious_fraction = 0.05;
  c.aggregator_params.malicious_fraction = c.malicious_fraction;
  c.attack = AttackKind::kPieckUea;
  c.attack_config.mined_top_n = 20;
  c.defense = DefenseKind::kOurs;
  c.num_threads = kThreads;
  c.seed = seed;
  return c;
}

std::unique_ptr<Simulation> MustCreate(const ExperimentConfig& config) {
  auto sim = Simulation::Create(config);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulation: %s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(sim).value();
}

struct PaperRun {
  double er = 0.0;
  double hr = 0.0;
  uint64_t digest = 0;
};

/// One full paper run on a fresh simulation: 150 timed rounds, then
/// ER@10 and HR@10. Round times go to "step_ms", or with `traced` to
/// "traced_step_ms" plus the per-layer series and spans.
PaperRun PaperPass(RawOutput& raw, Simulation& sim, bool traced) {
  PaperRun run;
  std::vector<double> losses;
  const Clock::time_point t_start = Clock::now();
  for (int r = 0; r < sim.config().rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    const RoundStats s = sim.RunRound();
    const Clock::time_point t1 = Clock::now();
    losses.push_back(s.mean_benign_loss);
    raw.Add(traced ? "traced_step_ms" : "step_ms", MsBetween(t0, t1));
    CheckRound(raw, s.mean_benign_loss, true);
    if (!traced) continue;
    raw.spans().push_back({"core.round", r, t0, t1});
    raw.Add("core.round_ms", MsBetween(t0, t1));
    raw.Add("fed.select_stage_ms", s.select_ms);
    raw.Add("fed.store.prepare_ms", s.select_ms);
    raw.Add("fed.train_ms", s.train_ms);
    raw.Add("fed.route_ms", s.route_ms);
    raw.Add("fed.apply_ms", s.apply_ms);
    raw.Add("fed.router_entries", static_cast<double>(s.router_entries));
    raw.Add("fed.stall_ms", s.stall_ms);
  }
  const Clock::time_point t_er = Clock::now();
  run.er = sim.EvaluateEr(10);
  const Clock::time_point t_hr = Clock::now();
  run.hr = sim.EvaluateHr(10);
  const Clock::time_point t_end = Clock::now();
  if (!traced) {
    raw.Add("result_s", MsBetween(t_start, t_end) / 1e3);
  } else {
    const int rounds = sim.config().rounds;
    raw.spans().push_back({"metrics.er", rounds, t_er, t_hr});
    raw.spans().push_back({"metrics.hr", rounds, t_hr, t_end});
    raw.Set("metrics.er_ms", MsBetween(t_er, t_hr));
    raw.Set("metrics.hr_ms", MsBetween(t_hr, t_end));
  }
  run.digest = ModelDigest(sim.global(), losses);
  return run;
}

void RecordPaperResult(RawOutput& raw, Simulation& sim, const PaperRun& run) {
  raw.Set("metrics.er_at_10", run.er);
  raw.Set("metrics.hr_at_10", run.hr);
  ClientStateStore& store = sim.mutable_store();
  RecordStoreState(raw, store, "fed.store.");
  raw.Set("fed.store.bytes_per_user",
          static_cast<double>(store.FootprintBytes()) / store.num_users());
  // ER/HR are rates over users: finite and within [0, 1].
  raw.Check("er_hr_in_range",
            std::isfinite(run.er) && std::isfinite(run.hr) && run.er >= 0.0 &&
                run.er <= 1.0 && run.hr >= 0.0 && run.hr <= 1.0,
            "er=" + std::to_string(run.er) + " hr=" + std::to_string(run.hr));
}

void RunPaperDefense(RawOutput& raw, uint64_t seed, double seconds,
                     bool trace) {
  const ExperimentConfig config = PaperConfig(seed);
  raw.Set("users_per_step", config.users_per_round);
  raw.Set("warmup_steps", 0);  // the whole paper run is the unit of work
  auto build = [&] { return MustCreate(config); };
  std::unique_ptr<Simulation> sim =
      TimedSetups<Simulation>(raw, build);
  if (!trace) {
    // Whole paper runs: another starts only while the previous run's
    // length still fits in the window (at least one run).
    const Clock::time_point window_start = Clock::now();
    PaperRun run;
    double last_s = 0.0;
    do {
      if (!sim) sim = build();
      const Clock::time_point t0 = Clock::now();
      run = PaperPass(raw, *sim, /*traced=*/false);
      last_s = SecondsSince(t0);
      RecordPaperResult(raw, *sim, run);
      raw.Set("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
      sim.reset();
    } while (SecondsSince(window_start) + last_s <= seconds);
    return;
  }
  const PaperRun untraced = PaperPass(raw, *sim, /*traced=*/false);
  sim.reset();
  sim = build();
  const PaperRun traced = PaperPass(raw, *sim, /*traced=*/true);
  raw.Check("traced_digest_matches_untraced",
            traced.digest == untraced.digest && traced.er == untraced.er &&
                traced.hr == untraced.hr,
            Hex(untraced.digest) + " vs " + Hex(traced.digest));
  RecordPaperResult(raw, *sim, traced);
}

// serve_topk ----------------------------------------------------------

constexpr int kServeItems = 50'000;
constexpr int kServeDim = 64;
constexpr int kServeK = 10;
constexpr int kServeBatch = 48;    // users per RecommendBatch call
constexpr int kServeBatches = 64;  // distinct batches, served round-robin
constexpr int kServeWarmup = 16;   // batches before the timed window
constexpr int kVerifyEvery = 16;   // batches 0, 16, 32, 48 are verified

struct ServeSetup {
  std::unique_ptr<RecModel> model;
  GlobalModel global;
  std::vector<Matrix> batches;
  std::unique_ptr<serving::TopKServer> server;
  std::unique_ptr<ThreadPool> pool;
};

std::unique_ptr<ServeSetup> BuildServe(uint64_t seed) {
  auto s = std::make_unique<ServeSetup>();
  s->model = MakeModel(ModelKind::kMatrixFactorization, kServeDim);
  Rng rng(seed);
  s->global = s->model->InitGlobalModel(kServeItems, rng);
  for (int b = 0; b < kServeBatches; ++b) {
    Matrix users(kServeBatch, kServeDim);
    users.RandomNormal(rng, 0.0, 0.5);
    s->batches.push_back(std::move(users));
  }
  s->server = std::make_unique<serving::TopKServer>(*s->model, s->global);
  s->pool = std::make_unique<ThreadPool>(kThreads);
  return s;
}

/// The full-scan oracle: score every item, then exact select.
void FullScanTopK(const RecModel& model, const GlobalModel& g, const Vec& u,
                  std::vector<serving::ScoredItem>* out) {
  Vec scores(static_cast<size_t>(g.num_items()));
  model.ScoreItems(g, u, scores.data());
  std::vector<serving::ScoredItem> cands;
  cands.reserve(scores.size());
  for (int j = 0; j < g.num_items(); ++j) {
    cands.push_back({scores[static_cast<size_t>(j)], j});
  }
  serving::SelectTopK(&cands, kServeK, out);
}

bool SameList(const std::vector<serving::ScoredItem>& a,
              const std::vector<serving::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The lists a pass served: each batch's lists from its last serving,
/// and whether it was served at all.
struct ServedLists {
  std::vector<std::vector<std::vector<serving::ScoredItem>>> lists;
  std::vector<bool> served;
};

/// Closed loop of RecommendBatch calls (one client, fixed batches).
/// Fills `*out` and returns the number of window batches.
int ServePass(RawOutput& raw, ServeSetup& s, double window_s, int fixed,
              bool traced, ServedLists* out) {
  out->lists.assign(kServeBatches, {});
  out->served.assign(kServeBatches, false);
  Clock::time_point window_start = Clock::now();
  int window = 0;
  for (int i = 0;; ++i) {
    if (i == kServeWarmup) window_start = Clock::now();
    if (i >= kServeWarmup &&
        (fixed >= 0 ? window >= fixed : SecondsSince(window_start) >= window_s)) {
      break;
    }
    const int b = i % kServeBatches;
    const Clock::time_point t0 = Clock::now();
    s.server->RecommendBatch(s.batches[static_cast<size_t>(b)], kServeK,
                             s.pool.get(),
                             &out->lists[static_cast<size_t>(b)]);
    const Clock::time_point t1 = Clock::now();
    out->served[static_cast<size_t>(b)] = true;
    if (i < kServeWarmup) continue;
    ++window;
    raw.CountOp(true);  // served; VerifyServe checks a fixed sample
    raw.Add(traced ? "traced_step_ms" : "step_ms", MsBetween(t0, t1));
    if (traced) {
      raw.spans().push_back({"serving.recommend_batch", i, t0, t1});
      raw.Add("serving.batch_ms", MsBetween(t0, t1));
    }
  }
  return window;
}

/// Bitwise check of a fixed sample of served batches (every
/// kVerifyEvery-th one the pass served) against the full-scan oracle;
/// each verified batch counts as one operation. Also measures tile
/// pruning on the same users through Recommend's stats.
void VerifyServe(RawOutput& raw, ServeSetup& s, const ServedLists& out,
                 bool traced) {
  std::vector<serving::ScoredItem> oracle;
  std::vector<serving::ScoredItem> got;
  int64_t scored = 0;
  int64_t pruned = 0;
  int users = 0;
  int failed = 0;
  for (int b = 0; b < kServeBatches; b += kVerifyEvery) {
    if (!out.served[static_cast<size_t>(b)]) continue;
    const auto& served = out.lists[static_cast<size_t>(b)];
    bool ok = served.size() == static_cast<size_t>(kServeBatch);
    for (int i = 0; ok && i < kServeBatch; ++i) {
      const double* row = s.batches[static_cast<size_t>(b)].RowPtr(i);
      const Vec u(row, row + kServeDim);
      FullScanTopK(*s.model, s.global, u, &oracle);
      ok = SameList(served[static_cast<size_t>(i)], oracle);
      if (traced) {
        serving::RecommendStats stats;
        s.server->Recommend(u, kServeK, nullptr, 0, &got, &stats);
        scored += stats.tiles_scored;
        pruned += stats.tiles_pruned;
        ++users;
      }
    }
    raw.CountOp(ok);
    if (!ok) ++failed;
  }
  raw.Check("served_lists_match_full_scan", failed == 0,
            std::to_string(failed) + " verified batches differ");
  if (traced && users > 0) {
    const double tiles = static_cast<double>(scored + pruned);
    raw.Set("serving.tiles_pruned_frac", tiles > 0 ? pruned / tiles : 0.0);
    // Every scored tile streams its item rows once per user.
    const double rows_per_user =
        static_cast<double>(scored) / users *
        serving::TopKServerOptions{}.tile_items;
    raw.Set("tensor.serve_bytes_per_user",
            std::min<double>(rows_per_user, kServeItems) * kServeDim *
                sizeof(double));
  }
}

void RunServeTopK(RawOutput& raw, uint64_t seed, double seconds, bool trace) {
  raw.Set("users_per_step", kServeBatch);
  raw.Set("warmup_steps", 0);  // warm-up batches are never recorded
  auto build = [&] { return BuildServe(seed); };
  std::unique_ptr<ServeSetup> s =
      TimedSetups<ServeSetup>(raw, build);
  ServedLists outs;
  if (!trace) {
    ServePass(raw, *s, seconds, -1, false, &outs);
    VerifyServe(raw, *s, outs, false);
    raw.Set("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
    return;
  }
  const int window = ServePass(raw, *s, seconds / 2, -1, false, &outs);
  VerifyServe(raw, *s, outs, false);
  ServePass(raw, *s, 0.0, window, true, &outs);
  VerifyServe(raw, *s, outs, true);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "fed_steady|fed_tiered_cold|paper_defense|serve_topk "
               "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace") || !args.count("out")) {
    return Usage();
  }
  const std::string workload = args["workload"];
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0) || seconds > 600.0) return Usage();
  const bool trace = args["trace"] == "1";
  if (!trace && args["trace"] != "0") return Usage();

  const std::map<std::string,
                 std::function<void(RawOutput&, uint64_t, double, bool)>>
      workloads = {{"fed_steady", RunFedSteady},
                   {"fed_tiered_cold", RunFedTieredCold},
                   {"paper_defense", RunPaperDefense},
                   {"serve_topk", RunServeTopK}};
  const auto it = workloads.find(workload);
  if (it == workloads.end()) return Usage();

  RawOutput raw(workload);
  const CpuTimes before = ReadCpuTimes();
  it->second(raw, seed, seconds, trace);
  const CpuTimes after = ReadCpuTimes();
  // Share of all vCPU time stolen by the hypervisor during the run;
  // run.py measures again when it is high.
  raw.Set("host_steal_share",
          after.total > before.total
              ? static_cast<double>(after.steal - before.steal) /
                    static_cast<double>(after.total - before.total)
              : 0.0);
  if (!raw.Write(args["out"], args.count("spans") ? args["spans"] : "")) {
    std::fprintf(stderr, "cannot write %s\n", args["out"].c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pieck::perfbench

int main(int argc, char** argv) { return pieck::perfbench::Main(argc, argv); }
