// Unit tests for the Section 4.3 data-structure layer (HostState): the
// dense per-source slot array, the sorted (dist, source) key rows of L_v, the
// lexicographic rank queries that drive the pipelined send schedule, and
// the dirty tracking used by the reduce phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/mrbc_state.h"
#include "util/rng.h"

namespace mrbc::core {
namespace {

TEST(HostState, SlotsStartAtIdentity) {
  HostState st(4, 3);
  for (VertexId lid = 0; lid < 4; ++lid) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(st.slot(lid, s).dist, graph::kInfDist);
      EXPECT_DOUBLE_EQ(st.slot(lid, s).sigma, 0.0);
      EXPECT_DOUBLE_EQ(st.slot(lid, s).delta, 0.0);
    }
    EXPECT_EQ(st.entry_count(lid), 0u);
  }
}

TEST(HostState, UpdateDistanceMaintainsMap) {
  HostState st(2, 4);
  st.update_distance(0, 2, 5);
  EXPECT_EQ(st.slot(0, 2).dist, 5u);
  EXPECT_EQ(st.entry_count(0), 1u);
  EXPECT_EQ(st.nth_entry(0, 0), (std::pair<std::uint32_t, std::uint32_t>{5, 2}));

  // Improvement moves the entry between buckets.
  st.update_distance(0, 2, 3);
  EXPECT_EQ(st.slot(0, 2).dist, 3u);
  EXPECT_EQ(st.entry_count(0), 1u);
  EXPECT_EQ(st.nth_entry(0, 0), (std::pair<std::uint32_t, std::uint32_t>{3, 2}));

  // Same distance is a no-op.
  st.update_distance(0, 2, 3);
  EXPECT_EQ(st.entry_count(0), 1u);
}

TEST(HostState, LexicographicOrderAcrossSourcesAndDistances) {
  HostState st(1, 6);
  st.update_distance(0, 4, 2);
  st.update_distance(0, 1, 2);
  st.update_distance(0, 3, 1);
  st.update_distance(0, 0, 3);
  // Expected (dist, source) order: (1,3) (2,1) (2,4) (3,0).
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected{
      {1, 3}, {2, 1}, {2, 4}, {3, 0}};
  ASSERT_EQ(st.entry_count(0), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(st.nth_entry(0, i), expected[i]) << i;
  }
  // position() is 1-based and inverse to nth_entry.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(st.position(0, expected[i].first, expected[i].second), i + 1);
  }
}

TEST(HostState, ClearDistanceRemovesEntry) {
  HostState st(1, 3);
  st.update_distance(0, 1, 7);
  st.update_distance(0, 2, 7);
  st.clear_distance(0, 1);
  EXPECT_EQ(st.slot(0, 1).dist, graph::kInfDist);
  EXPECT_EQ(st.entry_count(0), 1u);
  EXPECT_EQ(st.nth_entry(0, 0), (std::pair<std::uint32_t, std::uint32_t>{7, 2}));
  // Clearing an absent entry is a no-op.
  st.clear_distance(0, 1);
  EXPECT_EQ(st.entry_count(0), 1u);
}

TEST(HostState, DirtyTrackingIsIdempotent) {
  HostState st(2, 5);
  EXPECT_TRUE(st.mark_dirty(1, 3));
  EXPECT_FALSE(st.mark_dirty(1, 3));
  EXPECT_TRUE(st.mark_dirty(1, 0));
  EXPECT_EQ(st.dirty_sources(1), (std::vector<std::uint32_t>{3, 0}));
  EXPECT_TRUE(st.dirty_sources(0).empty());
  st.clear_dirty(1);
  EXPECT_TRUE(st.dirty_sources(1).empty());
  EXPECT_TRUE(st.mark_dirty(1, 3)) << "flags must reset with the list";
}

using Entry = std::pair<std::uint32_t, std::uint32_t>;  // (dist, sidx)

/// Asserts that every lid's L_v row of `st` lists exactly `ref[lid]`, and
/// that position() inverts nth_entry().
void expect_rows(const HostState& st, const std::vector<std::vector<Entry>>& ref) {
  for (VertexId lid = 0; lid < ref.size(); ++lid) {
    ASSERT_EQ(st.entry_count(lid), ref[lid].size()) << "lid " << lid;
    for (std::size_t i = 0; i < ref[lid].size(); ++i) {
      ASSERT_EQ(st.nth_entry(lid, i), ref[lid][i]) << "lid " << lid << " idx " << i;
      ASSERT_EQ(st.position(lid, ref[lid][i].first, ref[lid][i].second), i + 1);
    }
  }
}

/// Random update/clear churn interleaved over every lid of `st`, mirrored
/// into a sorted-vector reference model per lid.
void churn(HostState& st, std::vector<std::vector<Entry>>& ref, util::Xoshiro256& rng, int steps,
           bool check_each_step) {
  const std::uint32_t k = st.num_sources();
  for (int step = 0; step < steps; ++step) {
    const auto lid = static_cast<VertexId>(rng.next_bounded(st.num_proxies()));
    const auto sidx = static_cast<std::uint32_t>(rng.next_bounded(k));
    auto& row = ref[lid];
    auto it = std::find_if(row.begin(), row.end(), [&](const Entry& e) { return e.second == sidx; });
    if (it != row.end()) row.erase(it);
    if (rng.next_bool(0.15)) {
      st.clear_distance(lid, sidx);
    } else {
      const auto d = static_cast<std::uint32_t>(rng.next_bounded(30));
      st.update_distance(lid, sidx, d);
      row.insert(std::lower_bound(row.begin(), row.end(), Entry{d, sidx}), Entry{d, sidx});
    }
    if (check_each_step) {
      ASSERT_NO_FATAL_FAILURE(expect_rows(st, ref)) << "step " << step;
    }
  }
}

TEST(HostState, MatchesSortedVectorReference) {
  // Property test at batch sizes around the word boundaries, with churn
  // interleaved over several lids so a row-stride or offset bug shows up as
  // one row's keys leaking into its neighbour.
  for (const std::uint32_t k : {1u, 24u, 64u, 65u, 130u}) {
    SCOPED_TRACE(k);
    const VertexId np = 4;
    HostState st(np, k);
    std::vector<std::vector<Entry>> ref(np);
    util::Xoshiro256 rng(17 + k);
    ASSERT_NO_FATAL_FAILURE(churn(st, ref, rng, 3000, /*check_each_step=*/true));
  }
}

TEST(HostState, SaveRestoreRoundTripsRows) {
  for (const std::uint32_t k : {1u, 24u, 65u}) {
    SCOPED_TRACE(k);
    const VertexId np = 5;
    HostState st(np, k);
    std::vector<std::vector<Entry>> ref(np);
    util::Xoshiro256 rng(29 + k);
    ASSERT_NO_FATAL_FAILURE(churn(st, ref, rng, 400, /*check_each_step=*/false));
    util::SendBuffer buf;
    st.save(buf);
    const auto saved_ref = ref;

    // In place: churn the live state first, so the restore has to rebuild
    // every row rather than find it untouched.
    ASSERT_NO_FATAL_FAILURE(churn(st, ref, rng, 200, /*check_each_step=*/false));
    util::RecvBuffer in_place(buf);
    st.restore(in_place);
    ASSERT_NO_FATAL_FAILURE(expect_rows(st, saved_ref));

    // Into a HostState of different dimensions: the arena is re-carved.
    HostState other(np + 3, k + 7);
    util::RecvBuffer foreign(buf);
    other.restore(foreign);
    EXPECT_EQ(other.num_sources(), k);
    EXPECT_EQ(other.num_proxies(), np);
    ASSERT_NO_FATAL_FAILURE(expect_rows(other, saved_ref));
  }
}

TEST(HostState, PipeliningCursorsStartAtZero) {
  HostState st(5, 2);
  for (VertexId lid = 0; lid < 5; ++lid) {
    EXPECT_EQ(st.fwd_sent[lid], 0u);
    EXPECT_EQ(st.acc_sent[lid], 0u);
    EXPECT_TRUE(st.to_broadcast[lid].empty());
  }
}

}  // namespace
}  // namespace mrbc::core
