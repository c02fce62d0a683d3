// Tiled sparse container (common/tiled.hpp): the layout behind the
// n > 512 channel state in SimWorld.
// Pins the semantics the users rely on: value-initialised reads off live
// tiles, exact boundary indexing at the 64-cell tile edges, deterministic
// row-major enumeration, and the pool/reset lifecycle (clear() recycles
// tiles instead of freeing — a warm clear/reuse cycle allocates nothing).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/tiled.hpp"

using gmpx::common::TiledGrid;

TEST(TiledGrid, DefaultReadsAreValueInitialised) {
  TiledGrid<uint64_t> g;
  EXPECT_EQ(g.get(0, 0), 0u);
  EXPECT_EQ(g.get(5000, 12345), 0u);
  EXPECT_FALSE(g.any_tile());
  EXPECT_EQ(g.live_tiles(), 0u);
}

TEST(TiledGrid, AtAllocatesOnlyTheCoveringTile) {
  TiledGrid<uint64_t> g;
  g.at(70, 300) = 42;
  EXPECT_EQ(g.live_tiles(), 1u);
  EXPECT_EQ(g.get(70, 300), 42u);
  // Same tile (64x64 neighbourhood): no new allocation.
  g.at(64, 256) = 7;
  EXPECT_EQ(g.live_tiles(), 1u);
  // One row over in tile space: second tile.
  g.at(128, 300) = 8;
  EXPECT_EQ(g.live_tiles(), 2u);
}

TEST(TiledGrid, TileBoundaryCellsAreDistinct) {
  // (63, 63) is the last cell of tile (0,0); (64, 64) the first of (1,1);
  // the mixed corners land in (0,1) and (1,0).  Four tiles, four values,
  // no aliasing.
  TiledGrid<uint32_t> g;
  g.at(63, 63) = 1;
  g.at(63, 64) = 2;
  g.at(64, 63) = 3;
  g.at(64, 64) = 4;
  EXPECT_EQ(g.live_tiles(), 4u);
  EXPECT_EQ(g.get(63, 63), 1u);
  EXPECT_EQ(g.get(63, 64), 2u);
  EXPECT_EQ(g.get(64, 63), 3u);
  EXPECT_EQ(g.get(64, 64), 4u);
}

TEST(TiledGrid, ForEachCellVisitsLiveTilesRowMajor) {
  TiledGrid<uint32_t> g;
  g.at(10, 200) = 11;  // tile (0, 3)
  g.at(70, 10) = 22;   // tile (1, 0)
  std::vector<std::pair<uint32_t, uint32_t>> nonzero;
  g.for_each_cell([&](uint32_t r, uint32_t c, uint32_t& v) {
    if (v) nonzero.emplace_back(r, c);
  });
  ASSERT_EQ(nonzero.size(), 2u);
  // Row-major tile order: tile row 0 before tile row 1.
  EXPECT_EQ(nonzero[0], (std::pair<uint32_t, uint32_t>{10, 200}));
  EXPECT_EQ(nonzero[1], (std::pair<uint32_t, uint32_t>{70, 10}));
}

TEST(TiledGrid, ClearRecyclesTilesThroughThePool) {
  TiledGrid<uint64_t> g;
  g.at(0, 0) = 1;
  g.at(100, 100) = 2;
  EXPECT_EQ(g.live_tiles(), 2u);
  g.clear();
  EXPECT_FALSE(g.any_tile());
  EXPECT_EQ(g.pooled_tiles(), 2u);
  EXPECT_EQ(g.get(0, 0), 0u);  // stale values never resurface
  // Re-touching draws from the pool (fresh-zeroed), not the allocator.
  g.at(0, 0) = 9;
  EXPECT_EQ(g.pooled_tiles(), 1u);
  EXPECT_EQ(g.live_tiles(), 1u);
  EXPECT_EQ(g.get(0, 0), 9u);
  EXPECT_EQ(g.get(0, 1), 0u);  // the recycled tile came back zeroed
}
