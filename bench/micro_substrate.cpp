// Google-benchmark microbenchmarks for the communication substrate and the
// end-to-end algorithms on a fixed small input: sync throughput as a
// function of flagged fraction, and whole-algorithm per-source cost.

#include <benchmark/benchmark.h>

#include "baselines/sbbc.h"
#include "comm/substrate.h"
#include "core/mrbc.h"
#include "graph/algorithms.h"
#include "graph/generators.h"

namespace mrbc {
namespace {

using partition::Partition;
using partition::Policy;

const graph::Graph& bench_graph() {
  static graph::Graph g = graph::rmat({.scale = 11, .edge_factor = 8.0, .seed = 42});
  return g;
}

struct SumAccessor {
  using Value = double;
  std::vector<std::vector<double>>& labels;
  Value get(partition::HostId h, graph::VertexId lid) { return labels[h][lid]; }
  void reduce(partition::HostId h, graph::VertexId lid, Value v) { labels[h][lid] += v; }
  void set(partition::HostId h, graph::VertexId lid, Value v) { labels[h][lid] = v; }
  void reset(partition::HostId h, graph::VertexId lid) { labels[h][lid] = 0.0; }
};

void BM_SubstrateSync(benchmark::State& state) {
  static Partition part(bench_graph(), 8, Policy::kCartesianVertexCut);
  comm::Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (partition::HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
  }
  const int stride = static_cast<int>(state.range(0));  // flag every stride-th proxy
  SumAccessor acc{labels};
  std::size_t values = 0;
  for (auto _ : state) {
    for (partition::HostId h = 0; h < part.num_hosts(); ++h) {
      for (graph::VertexId l = 0; l < part.host(h).num_proxies();
           l += static_cast<graph::VertexId>(stride)) {
        sub.flag_reduce(h, l);
      }
    }
    auto stats = sub.sync(acc);
    values += stats.values;
    benchmark::DoNotOptimize(stats.bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(values));
}
BENCHMARK(BM_SubstrateSync)->Arg(1)->Arg(8)->Arg(64);

/// Shared body of the sparse rows: each iteration flags a fixed
/// pseudo-random pick of `state.range(0)` proxies per host (masters and
/// mirrors alike) — the thin-frontier regime (road networks, SBBC) where a
/// phase's fixed per-pair cost rather than its payload decides the time —
/// and runs sync(substrate, labels).
template <typename SyncFn>
void run_sparse_sync(benchmark::State& state, SyncFn&& sync) {
  static Partition part(bench_graph(), 8, Policy::kCartesianVertexCut);
  comm::Substrate sub(part);
  const auto per_host = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::vector<double>> labels(part.num_hosts());
  std::vector<std::vector<graph::VertexId>> picks(part.num_hosts());
  for (partition::HostId h = 0; h < part.num_hosts(); ++h) {
    const std::uint64_t np = part.host(h).num_proxies();
    labels[h].assign(np, 1.0);
    for (std::uint64_t i = 0; i < per_host && np > 0; ++i) {
      picks[h].push_back(static_cast<graph::VertexId>((i * 2654435761ULL + h * 97) % np));
    }
  }
  std::size_t values = 0;
  for (auto _ : state) {
    for (partition::HostId h = 0; h < part.num_hosts(); ++h) {
      for (graph::VertexId l : picks[h]) {
        sub.flag_reduce(h, l);
        if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
      }
    }
    const comm::SyncStats stats = sync(sub, labels);
    values += stats.values;
    benchmark::DoNotOptimize(stats.bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(values));
}

/// Sparse fixed-width sync (reduce + broadcast of one double).
void BM_SubstrateSyncSparse(benchmark::State& state) {
  run_sparse_sync(state, [](comm::Substrate& sub, std::vector<std::vector<double>>& labels) {
    SumAccessor acc{labels};
    return sub.sync(acc);
  });
}
BENCHMARK(BM_SubstrateSyncSparse)->Arg(4)->Arg(32);

/// Variable-length label for the var-sync rows: one u32 + one double per
/// proxy, written through the codec like MRBC's (sidx, sigma) entries.
struct VarAccessor {
  std::vector<std::vector<double>>& labels;
  void serialize_reduce(partition::HostId h, graph::VertexId lid, comm::CodecWriter& w) {
    serialize_broadcast(h, lid, w);
    labels[h][lid] = 0.0;
  }
  void apply_reduce(partition::HostId h, graph::VertexId lid, comm::CodecReader& r) {
    for (std::uint32_t n = r.meta_u32(); n > 0; --n) {
      benchmark::DoNotOptimize(r.value_u32());
      labels[h][lid] += r.f64();
    }
  }
  void serialize_broadcast(partition::HostId h, graph::VertexId lid, comm::CodecWriter& w) {
    w.meta_u32(1);
    w.value_u32(lid);
    w.f64(labels[h][lid]);
  }
  void apply_broadcast(partition::HostId h, graph::VertexId lid, comm::CodecReader& r) {
    for (std::uint32_t n = r.meta_u32(); n > 0; --n) {
      benchmark::DoNotOptimize(r.value_u32());
      labels[h][lid] = r.f64();
    }
  }
};

/// Sparse var-length sync (reduce_var + broadcast_var), the MRBC path.
void BM_SubstrateSyncVarSparse(benchmark::State& state) {
  run_sparse_sync(state, [](comm::Substrate& sub, std::vector<std::vector<double>>& labels) {
    VarAccessor acc{labels};
    comm::SyncStats stats = sub.reduce_var(acc);
    stats += sub.broadcast_var(acc);
    return stats;
  });
}
BENCHMARK(BM_SubstrateSyncVarSparse)->Arg(4)->Arg(32);

/// One flagged sync under a codec mode: the serialize + deserialize cost
/// of the wire codec relative to raw POD shuffling (arg = CodecMode).
void BM_SubstrateSyncCodec(benchmark::State& state) {
  static Partition part(bench_graph(), 8, Policy::kCartesianVertexCut);
  comm::Substrate sub(part);
  comm::DeliveryOptions delivery;
  delivery.codec = static_cast<comm::CodecMode>(state.range(0));
  sub.set_delivery(delivery);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (partition::HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
  }
  SumAccessor acc{labels};
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (partition::HostId h = 0; h < part.num_hosts(); ++h) {
      for (graph::VertexId l = 0; l < part.host(h).num_proxies(); l += 4) {
        sub.flag_reduce(h, l);
      }
    }
    auto stats = sub.sync(acc);
    bytes += stats.bytes;
    benchmark::DoNotOptimize(stats.raw_bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetLabel(comm::codec_mode_name(delivery.codec));
}
BENCHMARK(BM_SubstrateSyncCodec)->Arg(0)->Arg(1)->Arg(2);

/// Raw codec primitive throughput: encode + decode a power-law-ish u32
/// plane and an integral-heavy double plane (arg = CodecMode).
void BM_CodecPlaneRoundTrip(benchmark::State& state) {
  const auto mode = static_cast<comm::CodecMode>(state.range(0));
  std::vector<std::uint32_t> dists(1 << 14);
  std::vector<double> sigmas(1 << 14);
  for (std::size_t i = 0; i < dists.size(); ++i) {
    dists[i] = 100 + static_cast<std::uint32_t>(i % 37);
    sigmas[i] = static_cast<double>(1 + i % 211);  // integral path counts
  }
  util::SendBuffer buf;
  std::size_t bytes = 0;
  for (auto _ : state) {
    buf.clear();
    comm::CodecWriter w(buf, mode);
    comm::ValueCodec<std::uint32_t>::write_plane(w, dists);
    comm::ValueCodec<double>::write_plane(w, sigmas);
    util::RecvBuffer in(buf);
    comm::CodecReader r(in, mode);
    benchmark::DoNotOptimize(comm::ValueCodec<std::uint32_t>::read_plane(r).data());
    benchmark::DoNotOptimize(comm::ValueCodec<double>::read_plane(r).data());
    bytes += buf.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dists.size() + sigmas.size()));
  state.SetLabel(comm::codec_mode_name(mode));
}
BENCHMARK(BM_CodecPlaneRoundTrip)->Arg(0)->Arg(1)->Arg(2);

void BM_MrbcPerSource(benchmark::State& state) {
  static Partition part(bench_graph(), 8, Policy::kCartesianVertexCut);
  const auto sources = graph::sample_sources(bench_graph(), 16, 3);
  core::MrbcOptions opts;
  opts.batch_size = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto run = core::mrbc_bc(part, sources, opts);
    benchmark::DoNotOptimize(run.result.bc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_MrbcPerSource)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_SbbcPerSource(benchmark::State& state) {
  static Partition part(bench_graph(), 8, Policy::kCartesianVertexCut);
  const auto sources = graph::sample_sources(bench_graph(), 16, 3);
  for (auto _ : state) {
    auto run = baselines::sbbc_bc(part, sources, {});
    benchmark::DoNotOptimize(run.result.bc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_SbbcPerSource)->Unit(benchmark::kMillisecond);

void BM_Bfs(benchmark::State& state) {
  const auto& g = bench_graph();
  graph::VertexId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_distances(g, s).data());
    s = (s + 1) % g.num_vertices();
  }
}
BENCHMARK(BM_Bfs);

}  // namespace
}  // namespace mrbc

BENCHMARK_MAIN();
