#include "partition/partition.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/builder.h"
#include "partition/policies.h"
#include "util/stats.h"

namespace mrbc::partition {

Partition::Partition(const Graph& g, HostId num_hosts, Policy policy)
    : n_global_(g.num_vertices()), m_global_(g.num_edges()), policy_(policy) {
  assert(num_hosts >= 1);
  hosts_.resize(num_hosts);
  build(g, policy);
}

void Partition::build(const Graph& g, Policy policy) {
  const HostId H = num_hosts();
  const VertexId n = n_global_;

  // Masters are always block-distributed by vertex id, independent of the
  // edge policy; this matches Gluon, where the partitioner may place edges
  // anywhere but each vertex's canonical copy is at its block owner.
  master_host_.resize(n);
  for (VertexId v = 0; v < n; ++v) master_host_[v] = block_owner(v, n, H);

  const std::vector<HostId> edge_host = assign_edges(g, H, policy);

  // Pass 1: discover the proxy set of every host. A host gets a proxy for
  // each endpoint of each of its edges, and the master host always gets one.
  // Mirror counts per vertex size the master side of the exchange index.
  global_to_local_.assign(H, std::vector<VertexId>(n, graph::kInvalidVertex));
  std::vector<std::uint32_t> num_mirrors(n, 0);
  auto add_proxy = [&](HostId h, VertexId gv) {
    if (global_to_local_[h][gv] == graph::kInvalidVertex) {
      global_to_local_[h][gv] = static_cast<VertexId>(hosts_[h].local_to_global.size());
      hosts_[h].local_to_global.push_back(gv);
      if (h != master_host_[gv]) ++num_mirrors[gv];
    }
  };
  for (VertexId v = 0; v < n; ++v) add_proxy(master_host_[v], v);
  {
    EdgeId e = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.out_neighbors(u)) {
        add_proxy(edge_host[e], u);
        add_proxy(edge_host[e], v);
        ++e;
      }
    }
  }

  // Pass 2: per-host local edge lists and local CSR graphs.
  std::vector<std::vector<graph::Edge>> local_edges(H);
  {
    EdgeId e = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.out_neighbors(u)) {
        const HostId h = edge_host[e++];
        local_edges[h].push_back({global_to_local_[h][u], global_to_local_[h][v]});
      }
    }
  }

  // Exchange-index layout, in the walk that marks masters: each master's
  // CSR range holds one slot per mirror. off[l + 1] starts as the first
  // slot of l and is pass 3's fill cursor, so it ends as the first slot of
  // l + 1.
  mirror_slot_.resize(H);
  master_slot_off_.resize(H);
  master_slots_.resize(H);
  for (HostId h = 0; h < H; ++h) {
    auto& hg = hosts_[h];
    hg.local = graph::build_graph(hg.num_proxies(), std::move(local_edges[h]));
    hg.is_master.assign(hg.num_proxies(), false);
    std::vector<std::uint32_t>& off = master_slot_off_[h];
    off.resize(static_cast<std::size_t>(hg.num_proxies()) + 1);
    off[0] = 0;
    std::uint32_t slots = 0;
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      off[l + 1] = slots;
      const VertexId gv = hg.local_to_global[l];
      if (master_host_[gv] == h) {
        hg.is_master[l] = true;
        ++hg.num_masters;
        slots += num_mirrors[gv];
      }
    }
    master_slots_[h].resize(slots);
    mirror_slot_[h].assign(hg.num_proxies(), ExchangeSlot{h, 0});
  }

  // Pass 3: exchange lists, ascending global-id order for determinism, and
  // the per-lid exchange index in the same walk.
  mirror_lids_.assign(H, std::vector<std::vector<VertexId>>(H));
  master_lids_.assign(H, std::vector<std::vector<VertexId>>(H));
  for (HostId mh = 0; mh < H; ++mh) {
    const auto& hg = hosts_[mh];
    // local_to_global is in insertion order; sort indices by global id.
    std::vector<VertexId> order(hg.num_proxies());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&hg](VertexId a, VertexId b) {
      return hg.local_to_global[a] < hg.local_to_global[b];
    });
    for (VertexId l : order) {
      if (hg.is_master[l]) continue;
      const VertexId gv = hg.local_to_global[l];
      const HostId oh = master_host_[gv];
      const VertexId master_lid = global_to_local_[oh][gv];
      const auto pos = static_cast<std::uint32_t>(mirror_lids_[mh][oh].size());
      mirror_lids_[mh][oh].push_back(l);
      master_lids_[mh][oh].push_back(master_lid);
      mirror_slot_[mh][l] = ExchangeSlot{oh, pos};
      master_slots_[oh][master_slot_off_[oh][master_lid + 1]++] = ExchangeSlot{mh, pos};
    }
  }
}

double Partition::replication_factor() const {
  std::size_t proxies = 0;
  for (const auto& hg : hosts_) proxies += hg.num_proxies();
  return n_global_ ? static_cast<double>(proxies) / static_cast<double>(n_global_) : 0.0;
}

double Partition::edge_balance() const {
  std::vector<double> per_host;
  per_host.reserve(hosts_.size());
  for (const auto& hg : hosts_) per_host.push_back(static_cast<double>(hg.local.num_edges()));
  return util::imbalance(per_host);
}

double Partition::master_balance() const {
  std::vector<double> per_host;
  per_host.reserve(hosts_.size());
  for (const auto& hg : hosts_) per_host.push_back(static_cast<double>(hg.num_masters));
  return util::imbalance(per_host);
}

}  // namespace mrbc::partition
