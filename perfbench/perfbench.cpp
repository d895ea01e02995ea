// perfbench — the measuring program of the repository benchmark. run.py
// builds it, runs it once per benchmark run and attaches the units that
// BENCHMARK.json declares (see perfbench/README.md).
//
// It generates its workload from --seed, then makes measuring rounds until
// --seconds have passed (always at least one). Each round sets the workload
// up, replays the workload's churn streams on fresh stream::IncrementalBc
// maintainers, and calls every batch engine (Brandes, MRBC, SBBC, MFBC) once
// per chunk of kChunk sources. Every round repeats the same inputs, so each
// call and each streamed batch is timed once per round. Each timed stretch
// runs between two runs of a fixed reference kernel (class Reference) and
// is scaled to the kernel's reference speed, so a reported time is in
// reference seconds: wall seconds x kRefSeconds / the kernel's time around
// them. A reported time is the median round's, summed over the chunks (or,
// for ingest latency, taken per batch before the percentiles). Every engine
// result and every maintained score vector is checked against sequential
// Brandes, and every exact counter (rounds, modeled network seconds)
// against the first round's.
//
//   perfbench --workload rmat-skew|road-deep --seed N
//             --seconds S [--trace 0|1] [--size full|smoke] [--perturb]
//
// With --trace 1 every engine call is made twice, untraced and traced, and
// the metrics are the per-layer split read off the obs::Tracer spans the
// library already emits. --size smoke shrinks every input for the smoke
// test; --perturb corrupts one MRBC score before it is checked, so a wrong
// answer must show up as a failure. The last line of standard output is one
// JSON object: {"attempted", "failed", "rounds", "ingest_batches",
// "worst_rel_gap", "metrics": {name: value}}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/brandes_seq.h"
#include "baselines/mfbc.h"
#include "baselines/sbbc.h"
#include "core/mrbc.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "partition/partition.h"
#include "stream/edge_batch.h"
#include "stream/incremental_bc.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace mrbc;
using graph::Graph;
using graph::VertexId;

// Execution configuration shared by every workload.
constexpr partition::HostId kHosts = 8;
constexpr partition::Policy kPolicy = partition::Policy::kCartesianVertexCut;
constexpr std::uint32_t kBatchSize = 32;
constexpr std::size_t kThreads = 1;
constexpr std::uint32_t kSources = 64;
// Sources per engine call: one MRBC/MFBC batch. Short calls, repeated every
// round, give each call many samples in a run.
constexpr std::uint32_t kChunk = kBatchSize;
constexpr double kRelTol = 1e-9;
// Set-up is repeated within a round until this much time is spent, so a
// short set-up still gives a run several samples.
constexpr double kMinSetupSeconds = 0.25;
// Holds the longest traced call (SBBC on road-deep: ~4.3k BSP rounds of
// ~12 spans per chunk) without wrapping; the ring restarts on every call.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;
// The reference kernel's time at the reference speed, about its time on an
// unloaded core of the 2.0 GHz Xeon KVM guest the benchmark was tuned on.
// Timed stretches are scaled by kRefSeconds / (the kernel's time around
// them).
constexpr double kRefSeconds = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool perturb = false;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed of one churn stream's graph (tag 0), samples (1) or batches (2).
std::uint64_t stream_seed(const Args& a, int instance, std::uint64_t tag) {
  return derive_seed(derive_seed(a.seed, 1000), 4 * instance + tag);
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated q-quantile (0..1).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}


// ---- Reference kernel ----------------------------------------------------------

/// The benchmark's yardstick for the machine's speed: sequential Brandes
/// (BFS, path counts, dependency accumulation) from kRoots roots of one
/// fixed skewed random graph, built from no seed and with no library code.
/// Its work never changes, so its time moves only with the speed the
/// machine gives the process: neighbours that compete for this core and
/// its caches slow it down together with the engines.
class Reference {
 public:
  static constexpr std::uint32_t kN = 1u << 16;
  static constexpr std::uint32_t kDegree = 8;
  static constexpr std::uint32_t kRoots = 2;

  Reference() : offsets_(kN + 1), dist_(kN), sigma_(kN), delta_(kN) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::uint64_t z = 0x5eed;
    auto next = [&z] { return z = derive_seed(z, 1); };
    for (std::uint32_t i = 0; i < kN * kDegree / 2; ++i) {
      // One end skewed towards low ids, like RMAT's hubs.
      const auto u = static_cast<std::uint32_t>((next() % kN) & (next() % kN));
      const auto v = static_cast<std::uint32_t>(next() % kN);
      edges.emplace_back(u, v);
      edges.emplace_back(v, u);
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& e : edges) ++offsets_[e.first + 1];
    for (std::uint32_t v = 0; v < kN; ++v) offsets_[v + 1] += offsets_[v];
    for (const auto& e : edges) targets_.push_back(e.second);
    order_.reserve(kN);
  }

  /// Runs the kernel once; returns its wall seconds.
  double run() {
    util::Timer t;
    for (std::uint32_t r = 0; r < kRoots; ++r) brandes_from(r * 97);
    return t.seconds();
  }

 private:
  void brandes_from(std::uint32_t root) {
    std::fill(dist_.begin(), dist_.end(), -1);
    std::fill(sigma_.begin(), sigma_.end(), 0.0);
    std::fill(delta_.begin(), delta_.end(), 0.0);
    order_.clear();
    dist_[root] = 0;
    sigma_[root] = 1;
    order_.push_back(root);
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const std::uint32_t u = order_[head];
      for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const std::uint32_t v = targets_[i];
        if (dist_[v] < 0) {
          dist_[v] = dist_[u] + 1;
          order_.push_back(v);
        }
        if (dist_[v] == dist_[u] + 1) sigma_[v] += sigma_[u];
      }
    }
    for (std::size_t k = order_.size(); k-- > 0;) {
      const std::uint32_t u = order_[k];
      for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const std::uint32_t v = targets_[i];
        if (dist_[v] == dist_[u] + 1) delta_[u] += sigma_[u] / sigma_[v] * (1 + delta_[v]);
      }
    }
    double sum = 0;
    for (std::uint32_t v = 0; v < kN; ++v) sum += delta_[v];
    checksum_ = sum;
  }

  std::vector<std::uint32_t> offsets_, targets_, order_;
  std::vector<std::int32_t> dist_;
  std::vector<double> sigma_, delta_;
  volatile double checksum_ = 0;  // keeps the work observable
};

// ---- Workloads ---------------------------------------------------------------

// Churn stream of every workload: kStreamInstances IncrementalBc
// maintainers, each over its own road grid with kStreamSamples samples, fed
// kStreamBatches seeded batches of kStreamOps mixed inserts and deletes.
// Several small instances average out how much a single random graph and
// sample set varies from seed to seed; road grids churn evenly (every op
// touches most samples), so their latencies vary less than an RMAT
// stream's.
constexpr int kStreamInstances = 4;
constexpr int kStreamBatches = 25;  // per instance
constexpr int kStreamOps = 2;
constexpr std::uint32_t kStreamSamples = 16;

/// Graph and sources of the batch engines.
struct Workload {
  std::function<Graph(const Args&)> make_graph;
  std::function<std::vector<VertexId>(const Graph&, const Args&)> pick_sources;
};

Graph road_graph(VertexId width, VertexId height, std::uint64_t seed) {
  return graph::road_grid(width, height, 0.05, seed);
}

Graph stream_graph(const Args& a, int instance) {
  const std::uint64_t seed = stream_seed(a, instance, 0);
  return a.smoke ? road_graph(16, 8, seed) : road_graph(32, 16, seed);
}

Workload find_workload(const std::string& name) {
  Workload w;
  if (name == "rmat-skew") {
    w.make_graph = [](const Args& a) {
      return graph::rmat(
          {.scale = a.smoke ? 10 : 13, .edge_factor = 8.0, .seed = derive_seed(a.seed, 1)});
    };
    // RMAT's skew bits make the lowest ids the hubs: a seeded contiguous
    // block inside the first 2 * kSources ids.
    w.pick_sources = [](const Graph&, const Args& a) {
      const auto start = static_cast<VertexId>(derive_seed(a.seed, 2) % kSources);
      std::vector<VertexId> s(kSources);
      for (VertexId i = 0; i < kSources; ++i) s[i] = start + i;
      return s;
    };
  } else if (name == "road-deep") {
    w.make_graph = [](const Args& a) {
      return a.smoke ? road_graph(40, 20, derive_seed(a.seed, 1))
                     : road_graph(64, 32, derive_seed(a.seed, 1));
    };
    // Uniform sources: their mean eccentricity, which sets the round
    // counts, then varies little from seed to seed.
    w.pick_sources = [](const Graph& g, const Args& a) {
      return graph::sample_sources(g, kSources, derive_seed(a.seed, 2), false);
    };
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

sim::ClusterOptions cluster_options() {
  sim::ClusterOptions c;
  c.threads = kThreads;
  c.parallel_hosts = true;
  c.codec = comm::CodecMode::kRaw;
  return c;
}

core::MrbcOptions mrbc_options() {
  core::MrbcOptions o;
  o.num_hosts = kHosts;
  o.policy = kPolicy;
  o.batch_size = kBatchSize;
  o.cluster = cluster_options();
  return o;
}

baselines::SbbcOptions sbbc_options() {
  baselines::SbbcOptions o;
  o.num_hosts = kHosts;
  o.policy = kPolicy;
  o.cluster = cluster_options();
  return o;
}

baselines::MfbcOptions mfbc_options() {
  baselines::MfbcOptions o;
  o.num_hosts = kHosts;
  o.batch_size = kBatchSize;
  o.parallel_hosts = true;
  o.codec = comm::CodecMode::kRaw;
  return o;
}

// ---- Correctness -------------------------------------------------------------

/// Largest |got - want| / max(1, |want|) over all vertices; +inf on a size
/// mismatch or NaN.
double max_rel_gap(const core::BcScores& got, const core::BcScores& want) {
  if (got.size() != want.size()) return INFINITY;
  double gap = 0;
  for (std::size_t v = 0; v < got.size(); ++v) {
    const double d = std::fabs(got[v] - want[v]) / std::max(1.0, std::fabs(want[v]));
    if (std::isnan(d)) return INFINITY;
    gap = std::max(gap, d);
  }
  return gap;
}

/// Counts checked operations and the ones that failed.
struct Checker {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double worst_gap = 0;

  void check(const core::BcScores& got, const core::BcScores& want, bool extra_ok = true) {
    ++attempted;
    const double gap = max_rel_gap(got, want);
    worst_gap = std::max(worst_gap, gap);
    if (!(gap <= kRelTol) || !extra_ok) ++failed;
  }
  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---- Tracing -----------------------------------------------------------------

bool named(const obs::SpanRecord& r, obs::Category cat, const char* name) {
  return r.category == cat && std::strcmp(r.name, name) == 0;
}
bool is_host_compute(const obs::SpanRecord& r) {
  return named(r, obs::Category::kCompute, "host-compute");
}
bool is_comm(const obs::SpanRecord& r) { return r.category == obs::Category::kComm; }

/// The measured spans one traced call emitted.
struct Window {
  std::vector<obs::SpanRecord> spans;
  std::uint64_t dropped = 0;

  /// Summed duration (seconds) of spans named (cat, name); algorithm
  /// phases are counted on the engine lane only.
  double sum_s(obs::Category cat, const char* name) const {
    double us = 0;
    for (const auto& r : spans) {
      if (named(r, cat, name) && (cat != obs::Category::kAlgo || r.host == obs::kEngineHost)) {
        us += r.dur_us;
      }
    }
    return us * 1e-6;
  }
  double algo_s(const char* name) const { return sum_s(obs::Category::kAlgo, name); }

  /// Wall time (seconds) covered by the union of the spans `pred` selects.
  template <typename Pred>
  double cover_s(Pred pred) const {
    std::vector<std::pair<double, double>> iv;
    for (const auto& r : spans) {
      if (pred(r)) iv.emplace_back(r.start_us, r.start_us + r.dur_us);
    }
    std::sort(iv.begin(), iv.end());
    double us = 0, lo = 0, hi = -INFINITY;
    for (const auto& [s, e] : iv) {
      if (s > hi) {
        if (hi > lo) us += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) us += hi - lo;
    return us * 1e-6;
  }
  double comm_s(const char* name) const {
    return cover_s([name](const obs::SpanRecord& r) { return named(r, obs::Category::kComm, name); });
  }
};

/// Runs fn and returns its wall seconds. With a window, tracing is on for
/// exactly this call and the window receives its measured (not modeled)
/// spans.
template <typename Fn>
double timed(Fn&& fn, Window* w) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (w) tracer.enable(kTraceCapacity);
  util::Timer timer;
  fn();
  const double seconds = timer.seconds();
  if (w) {
    tracer.disable();
    tracer.quiesce(1.0);
    w->dropped = tracer.dropped();
    w->spans = tracer.snapshot();
    std::erase_if(w->spans, [](const obs::SpanRecord& r) { return r.modeled; });
  }
  return seconds;
}

// ---- Inputs ------------------------------------------------------------------

/// Input of the batch engines.
struct BatchInput {
  Graph g;
  std::unique_ptr<partition::Partition> part;
  std::vector<VertexId> sources;
};

/// A uniformly random live edge of g.
graph::Edge random_edge(const Graph& g, util::Xoshiro256& rng) {
  const auto e = rng.next_bounded(g.num_edges());
  const auto& offsets = g.out_offsets();
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), e);
  return {static_cast<VertexId>(it - offsets.begin() - 1), g.out_targets()[e]};
}

// ---- Engines -----------------------------------------------------------------

enum class Engine { kBrandes, kMrbc, kSbbc, kMfbc };
constexpr Engine kEngines[] = {Engine::kBrandes, Engine::kMrbc, Engine::kSbbc, Engine::kMfbc};
constexpr std::size_t kNumEngines = std::size(kEngines);

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kBrandes: return "brandes";
    case Engine::kMrbc: return "mrbc";
    case Engine::kSbbc: return "sbbc";
    case Engine::kMfbc: return "mfbc";
  }
  return "";
}

/// What one engine call returned.
struct CallResult {
  core::BcScores bc;
  sim::RunStats stats;
  bool ok = true;  ///< engine-specific invariants (MRBC: no anomalies)
  std::size_t pull_rounds = 0;
};

CallResult call_engine(Engine e, const BatchInput& in, const std::vector<VertexId>& sources) {
  switch (e) {
    case Engine::kBrandes:
      return {baselines::brandes_bc_sources(in.g, sources).bc, {}, true, 0};
    case Engine::kMrbc: {
      core::MrbcRun m = core::mrbc_bc(*in.part, sources, mrbc_options());
      return {std::move(m.result.bc), m.total(), m.anomalies == 0, m.forward_pull_rounds};
    }
    case Engine::kSbbc: {
      baselines::SbbcRun s = baselines::sbbc_bc(*in.part, sources, sbbc_options());
      return {std::move(s.result.bc), s.total(), true, s.forward_pull_rounds};
    }
    case Engine::kMfbc: {
      baselines::MfbcRun f = baselines::mfbc_bc(in.g, sources, mfbc_options());
      return {std::move(f.result.bc), f.total(), true, 0};
    }
  }
  return {};
}

/// The exact counters of one engine call: rounds and modeled network
/// seconds depend only on the program and its input.
struct Exact {
  double rounds = 0;
  double net_modeled_s = 0;
  friend bool operator==(const Exact&, const Exact&) = default;
};

// ---- The benchmark -------------------------------------------------------------

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), wl_(find_workload(args.workload)) {}

  /// One measuring round: set-up, stream replay, every engine on every chunk.
  void round() {
    forget_reference();
    const BatchInput in = set_up();
    std::vector<std::unique_ptr<stream::IncrementalBc>> streams = make_streams();
    forget_reference();
    replay(streams);
    push("partition.replication_factor", in.part->replication_factor());
    push("partition.edge_balance", in.part->edge_balance());
    engines(in);
    for (const auto& [name, v] : round_sums_) push(name, v);
    round_sums_.clear();
    // Progress on standard error: the machine's median speed this round
    // and the round's untraced call time per engine (reference seconds).
    std::fprintf(stderr, "perfbench: round %zu on cpu %d: speed %.3f,", rounds_, sched_getcpu(),
                 median(round_speeds_));
    round_speeds_.clear();
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      double s = 0;
      for (const auto& calls : untraced_[e]) s += calls.back();
      std::fprintf(stderr, " %s %.4f s", engine_name(kEngines[e]), s);
    }
    std::fprintf(stderr, "\n");
    ++rounds_;
  }

  /// Prints the result object. A traced run that dropped a span fails.
  void report() {
    std::map<std::string, double> m = args_.trace ? per_layer() : end_to_end();
    if (args_.trace) chk_.expect(m["obs.spans_dropped"] == 0);
    std::string out = "{";
    char buf[64];
    auto field = [&](const std::string& key, double v) {
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
      out += (out.size() > 1 && out.back() != '{' ? ", \"" : "\"") + key + "\": " + buf;
    };
    field("attempted", static_cast<double>(chk_.attempted));
    field("failed", static_cast<double>(chk_.failed));
    field("rounds", static_cast<double>(rounds_));
    field("ingest_batches", static_cast<double>(ingest_ms_.size()));
    field("worst_rel_gap", chk_.worst_gap);
    out += ", \"metrics\": {";
    for (const auto& [k, v] : m) field(k, v);
    std::printf("%s}}\n", out.c_str());
  }

 private:
  void push(const std::string& name, double v) { samples_[name].push_back(v); }

  /// Runs fn between two runs of the reference kernel; returns the factor
  /// that scales fn's wall seconds to reference seconds (> 1 while the
  /// machine runs faster than the reference speed). The run after one
  /// stretch is the run before the next, until forget_reference().
  template <typename Fn>
  double speed_around(Fn&& fn) {
    const double before = std::isnan(ref_after_) ? kernel() : ref_after_;
    fn();
    ref_after_ = kernel();
    round_speeds_.push_back(2 * kRefSeconds / (before + ref_after_));
    return round_speeds_.back();
  }

  /// Work outside any stretch follows: the next stretch runs the kernel
  /// before it again.
  void forget_reference() { ref_after_ = NAN; }

  /// One run of the reference kernel; returns (and records) its seconds.
  double kernel() {
    kernel_s_.push_back(ref_.run());
    return kernel_s_.back();
  }

  void add(const std::string& name, double v) { round_sums_[name] += v; }

  /// Set-up: input generation, source choice and Partition construction,
  /// repeated until kMinSetupSeconds are spent; the last one is used.
  BatchInput set_up() {
    BatchInput in;
    std::vector<double> secs;
    const double speed = speed_around([&] {
      double spent = 0;
      do {
        util::Timer total;
        in.g = wl_.make_graph(args_);
        in.sources = wl_.pick_sources(in.g, args_);
        const double gen = total.seconds();
        util::Timer t;
        in.part = std::make_unique<partition::Partition>(in.g, kHosts, kPolicy);
        push("partition.build_s", t.seconds());
        push("graph.gen_s", gen);
        secs.push_back(total.seconds());
        spent += secs.back();
      } while (spent < kMinSetupSeconds);
    });
    for (double s : secs) setup_s_.push_back(s * speed);
    return in;
  }

  /// Builds the churn streams' maintainers from scratch (each constructor
  /// runs the initial full computation), outside setup_s.
  std::vector<std::unique_ptr<stream::IncrementalBc>> make_streams() {
    std::vector<std::unique_ptr<stream::IncrementalBc>> streams;
    util::Timer t;
    for (int i = 0; i < kStreamInstances; ++i) {
      stream::IncrementalBcOptions o;
      o.num_samples = args_.smoke ? 8 : kStreamSamples;
      o.seed = stream_seed(args_, i, 1);
      o.mrbc = mrbc_options();
      streams.push_back(std::make_unique<stream::IncrementalBc>(stream_graph(args_, i), o));
    }
    push("stream.init_s", t.seconds());
    return streams;
  }

  /// Applies every maintainer's seeded batches, timing each apply and
  /// checking the maintained scores against Brandes on the compacted
  /// snapshot. The maintainers are fresh, so batch k is the same operation
  /// on the same state in every round. A maintainer's batches are scaled to
  /// reference seconds together.
  void replay(std::vector<std::unique_ptr<stream::IncrementalBc>>& streams) {
    std::size_t slot = 0, affected = 0, probed = 0, full = 0, rounds = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      stream::IncrementalBc& inc = *streams[i];
      util::Xoshiro256 rng(stream_seed(args_, static_cast<int>(i), 2));
      const VertexId n = inc.delta().num_vertices();
      std::vector<double> batch_secs;
      const double speed = speed_around([&] {
        for (int b = 0; b < kStreamBatches; ++b) {
          stream::EdgeBatch batch;
          for (int op = 0; op < kStreamOps; ++op) {
            const Graph& cur = inc.delta().base();
            if (cur.num_edges() > 0 && rng.next_bool(0.5)) {
              const auto [u, v] = random_edge(cur, rng);
              batch.erase(u, v);
            } else {
              batch.insert(static_cast<VertexId>(rng.next_bounded(n)),
                           static_cast<VertexId>(rng.next_bounded(n)));
            }
          }
          Window w;
          stream::BatchReport rep;
          const double secs = timed([&] { rep = inc.apply(batch); }, args_.trace ? &w : nullptr);
          batch_secs.push_back(secs);
          affected += rep.affected_sources;
          probed += inc.sources().size();
          full += rep.full_recompute ? 1 : 0;
          rounds += rep.reexec.rounds;
          chk_.check(inc.scores(),
                     baselines::brandes_bc_sources(inc.delta().base(), inc.sources()).bc);
          if (args_.trace) {
            // apply = routing + probing + the re-run's MRBC phases + the rest
            // (delta apply, compaction, re-partition, score surgery).
            const double route_s = w.sum_s(obs::Category::kStream, "ingest");
            const double probe_s = w.sum_s(obs::Category::kStream, "probe");
            const double mrbc_s =
              w.algo_s("forward") + w.algo_s("finalize") + w.algo_s("backward");
            add("stream.route_s", route_s);
            add("stream.probe_s", probe_s);
            add("stream.mrbc_s", mrbc_s);
            add("stream.rebuild_s", secs - route_s - probe_s - mrbc_s);
            add("stream.rerun_s", w.sum_s(obs::Category::kStream, "rerun"));
            add("stream.comm_s", w.cover_s(is_comm));
            add("obs.spans_dropped", static_cast<double>(w.dropped));
          }
        }
      });
      for (double secs : batch_secs) {
        if (ingest_ms_.size() <= slot) ingest_ms_.emplace_back();
        ingest_ms_[slot++].push_back(secs * speed * 1e3);
      }
    }
    push("stream.affected_frac", static_cast<double>(affected) / static_cast<double>(probed));
    push("stream.full_recomputes", static_cast<double>(full));
    push("stream.reexec_rounds", static_cast<double>(rounds));
  }

  /// Calls every engine on every chunk of the sources, Brandes first (its
  /// first round is the reference); with tracing, each call is made both
  /// untraced and traced.
  void engines(const BatchInput& in) {
    const std::size_t chunks = (in.sources.size() + kChunk - 1) / kChunk;
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      untraced_[e].resize(chunks);
      traced_[e].resize(chunks);
      first_[e].resize(chunks);
      for (std::size_t slot = 0; slot < chunks; ++slot) {
        const auto begin = in.sources.begin() + static_cast<std::ptrdiff_t>(slot * kChunk);
        const std::vector<VertexId> chunk(
            begin, begin + static_cast<std::ptrdiff_t>(
                               std::min<std::size_t>(kChunk, in.sources.size() - slot * kChunk)));
        // Traced second on even rounds and first on odd ones, so neither
        // side always runs on the caches the other warmed.
        const bool traced_first = args_.trace && rounds_ % 2 == 1;
        Window w;
        if (traced_first) traced_[e][slot].push_back(measure(kEngines[e], in, chunk, slot, &w));
        untraced_[e][slot].push_back(measure(kEngines[e], in, chunk, slot, nullptr));
        if (args_.trace && !traced_first) {
          traced_[e][slot].push_back(measure(kEngines[e], in, chunk, slot, &w));
        }
      }
    }
  }

  /// One checked engine call; returns its time in reference seconds.
  double measure(Engine e, const BatchInput& in, const std::vector<VertexId>& chunk,
                 std::size_t slot, Window* w) {
    CallResult r;
    double secs = 0;
    const double speed =
        speed_around([&] { secs = timed([&] { r = call_engine(e, in, chunk); }, w); });
    const auto ei = static_cast<std::size_t>(e);
    if (e == Engine::kBrandes) {
      if (reference_.size() <= slot) {
        reference_.push_back(std::move(r.bc));
      } else {
        chk_.check(r.bc, reference_[slot]);
      }
      return secs * speed;
    }
    if (e == Engine::kMrbc && args_.perturb && rounds_ == 0 && slot == 0 && !w) {
      r.bc.at(in.g.num_vertices() / 2) += 1.0;
    }
    chk_.check(r.bc, reference_[slot], r.ok);
    const Exact now{static_cast<double>(r.stats.rounds), r.stats.network_seconds};
    if (rounds_ == 0 && !w) {
      first_[ei][slot] = now;
    } else {
      chk_.expect(now == first_[ei][slot]);
    }
    if (w) record_layers(e, secs, *w, r);
    return secs * speed;
  }

  /// Adds one traced call's per-layer figures to the round's sums. The
  /// engine's wall time splits into the time covered by host-compute spans,
  /// the further time covered by substrate (comm) spans, and the rest — the
  /// round loop's self time; the three add up to wall_s exactly.
  void record_layers(Engine e, double wall, const Window& w, const CallResult& r) {
    const std::string en = engine_name(e);
    const sim::RunStats& t = r.stats;
    const double compute = w.cover_s(is_host_compute);
    const double both =
        w.cover_s([](const obs::SpanRecord& s) { return is_host_compute(s) || is_comm(s); });
    add("engine." + en + ".wall_s", wall);
    add("engine." + en + ".compute_cover_s", compute);
    add("engine." + en + ".comm_cover_s", both - compute);
    add("engine." + en + ".residual_s", wall - both);
    add("obs.spans_dropped", static_cast<double>(w.dropped));
    switch (e) {
      case Engine::kBrandes:
        break;
      case Engine::kMrbc:
        add("core.mrbc.host_compute_s", w.sum_s(obs::Category::kCompute, "host-compute"));
        add("core.mrbc.forward_s", w.algo_s("forward"));
        add("core.mrbc.backward_s", w.algo_s("finalize") + w.algo_s("backward"));
        add("core.mrbc.round_compute_s", t.compute_seconds);
        add("core.mrbc.pull_rounds", static_cast<double>(r.pull_rounds));
        push("core.mrbc.imbalance", t.mean_imbalance());
        break;
      case Engine::kSbbc:
        add("baselines.sbbc.forward_s", w.algo_s("forward"));
        add("baselines.sbbc.backward_s", w.algo_s("backward"));
        add("baselines.sbbc.pull_rounds", static_cast<double>(r.pull_rounds));
        break;
      case Engine::kMfbc:
        add("matrix.mfbc.forward_s", w.algo_s("forward"));
        add("matrix.mfbc.backward_s", w.algo_s("backward"));
        add("comm.mfbc.scatter_s", w.comm_s("scatter"));
        add("comm.mfbc.bytes", static_cast<double>(t.bytes));
        break;
    }
    if (e == Engine::kMrbc || e == Engine::kSbbc) {
      add("comm." + en + ".reduce_s", w.comm_s("reduce"));
      add("comm." + en + ".broadcast_s", w.comm_s("broadcast"));
      add("comm." + en + ".messages", static_cast<double>(t.messages));
      add("comm." + en + ".bytes", static_cast<double>(t.bytes));
      add("comm." + en + ".raw_bytes", static_cast<double>(t.raw_bytes));
    }
  }

  /// Sum over chunks of each chunk's median call.
  static double median_total(const std::vector<std::vector<double>>& per_slot) {
    double s = 0;
    for (const auto& calls : per_slot) s += median(calls);
    return s;
  }

  std::map<std::string, double> end_to_end() const {
    std::map<std::string, double> m;
    m["setup_s"] = median(setup_s_);
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      const std::string en = engine_name(kEngines[e]);
      m[en + "_s"] = median_total(untraced_[e]);
      if (kEngines[e] == Engine::kBrandes) continue;
      Exact total;
      for (const Exact& x : first_[e]) {
        total.rounds += x.rounds;
        total.net_modeled_s += x.net_modeled_s;
      }
      m[en + "_rounds"] = total.rounds;
      m[en + "_net_modeled_s"] = total.net_modeled_s;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["peak_rss_mib"] = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    std::vector<double> ingest;
    for (const auto& calls : ingest_ms_) ingest.push_back(median(calls));
    m["ingest_p50_ms"] = quantile(ingest, 0.5);
    m["ingest_p90_ms"] = quantile(ingest, 0.9);
    return m;
  }

  /// Every per-layer sample list reduces to its median over the run (the
  /// per-round sums to the median round). An engine's wall-time split is
  /// taken whole from its median-wall round, so its parts add up.
  std::map<std::string, double> per_layer() const {
    std::map<std::string, double> m;
    for (const auto& [name, v] : samples_) m[name] = median(v);
    for (const char* e : {"mrbc", "sbbc", "mfbc"}) {
      const std::string prefix = std::string("engine.") + e + ".";
      const std::vector<double>& wall = samples_.at(prefix + "wall_s");
      std::vector<std::size_t> order(wall.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return wall[a] < wall[b]; });
      const std::size_t mid = order[order.size() / 2];
      for (const char* part : {"wall_s", "compute_cover_s", "comm_cover_s", "residual_s"}) {
        m[prefix + part] = samples_.at(prefix + part)[mid];
      }
    }
    const auto mrbc = static_cast<std::size_t>(Engine::kMrbc);
    const auto brandes = static_cast<std::size_t>(Engine::kBrandes);
    m["baselines.mrbc_cost"] = median_total(untraced_[mrbc]) / median_total(untraced_[brandes]);
    // The same calls, untraced and traced, each at its median.
    double on = 0, off = 0;
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      on += median_total(traced_[e]);
      off += median_total(untraced_[e]);
    }
    m["obs.trace_overhead_frac"] = on / off - 1.0;
    double dropped = 0;
    if (auto it = samples_.find("obs.spans_dropped"); it != samples_.end()) {
      for (double d : it->second) dropped += d;
    }
    m["obs.spans_dropped"] = dropped;
    m["bench.ref_kernel_s"] = median(kernel_s_);
    return m;
  }

 private:
  const Args args_;
  const Workload wl_;
  Reference ref_;
  Checker chk_;
  std::size_t rounds_ = 0;
  std::vector<double> setup_s_;
  /// Per-layer samples by metric name.
  std::map<std::string, std::vector<double>> samples_;
  /// The kernel run that ended the last stretch, or NaN.
  double ref_after_ = NAN;
  /// Every reference kernel run's wall seconds.
  std::vector<double> kernel_s_;
  /// This round's speed factors (see speed_around).
  std::vector<double> round_speeds_;
  /// This round's per-layer sums, pushed into samples_ when it ends.
  std::map<std::string, double> round_sums_;
  /// Per streamed batch: its apply latency (ms) in every round.
  std::vector<std::vector<double>> ingest_ms_;
  /// Per engine and chunk: the call's wall seconds in every round.
  std::vector<std::vector<double>> untraced_[kNumEngines], traced_[kNumEngines];
  /// Per engine and chunk: the first round's exact counters.
  std::vector<Exact> first_[kNumEngines];
  /// Per chunk: the Brandes scores every engine is checked against.
  std::vector<core::BcScores> reference_;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) a.workload = next("--workload");
    else if (!std::strcmp(argv[i], "--seed")) a.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seconds")) a.seconds = std::atof(next("--seconds"));
    else if (!std::strcmp(argv[i], "--trace")) a.trace = std::atoi(next("--trace")) != 0;
    else if (!std::strcmp(argv[i], "--size")) a.smoke = std::strcmp(next("--size"), "smoke") == 0;
    else if (!std::strcmp(argv[i], "--perturb")) a.perturb = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      std::exit(2);
    }
  }
  if (a.workload.empty()) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    std::exit(2);
  }
  return a;
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Moves the (single) measuring thread onto `cpu`.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  util::ThreadPool::set_global_threads(kThreads);
  Bench bench(args);
  // On a shared machine one core can be slowed by its neighbours for tens
  // of seconds. Each round runs on the next allowed CPU in turn, so every
  // call is timed on several cores and its median round is not stuck on a
  // slow one. Another round only while it is expected to end before the
  // deadline.
  const std::vector<int> cpus = allowed_cpus();
  util::Timer run;
  double longest = 0;
  std::size_t round = 0;
  do {
    if (!cpus.empty()) pin_to(cpus[round++ % cpus.size()]);
    util::Timer r;
    bench.round();
    longest = std::max(longest, r.seconds());
  } while (run.seconds() + longest <= args.seconds);
  bench.report();
  return 0;
}
