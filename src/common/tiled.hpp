#pragma once
// Tiled sparse containers for large, mostly-empty id spaces.
//
// The sim's channel state (FIFO fronts, partition cuts) is a dense n x n
// matrix for n <= 512 worlds; beyond that the seed used per-pair hash maps,
// which cost a hash + probe on the hottest send path and scatter entries
// across the heap.  A tiled layout keeps the dense-matrix access pattern
// (shift/mask indexing, one contiguous tile per 64x64 neighbourhood) while
// only materialising the neighbourhoods that are actually touched — the
// right shape for n > 512 single-group worlds (a handful of busy channels
// in a huge id square).
//
// Lifecycle matches the pool/reset discipline (tests/README.md "Memory
// discipline"): clear() detaches every live tile into a free pool instead
// of deallocating, so a warm clear/reuse cycle allocates nothing once the
// peak tile population has been reached.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace gmpx::common {

/// Sparse 2-D array over (row, col) ids, lazily allocated 64x64 tiles.
/// Cells of never-touched tiles read as T{}.  T must be trivially cheap to
/// value-initialise (ticks, flags, small indices).
template <typename T>
class TiledGrid {
 public:
  static constexpr uint32_t kTileBits = 6;
  static constexpr uint32_t kTileDim = 1u << kTileBits;        // 64 x 64 cells
  static constexpr uint32_t kTileCells = kTileDim * kTileDim;  // per tile
  static constexpr uint32_t kTileMask = kTileDim - 1;

  /// Mutable cell; allocates (or recycles from the pool) the covering tile.
  T& at(uint32_t r, uint32_t c) {
    const uint32_t tr = r >> kTileBits;
    const uint32_t tc = c >> kTileBits;
    if (tr >= rows_.size()) rows_.resize(tr + 1);
    auto& row = rows_[tr];
    if (tc >= row.size()) row.resize(tc + 1);
    if (!row[tc]) row[tc] = acquire_tile();
    return (*row[tc])[cell_index(r, c)];
  }

  /// Read-only lookup; T{} when the covering tile was never touched.
  T get(uint32_t r, uint32_t c) const {
    const uint32_t tr = r >> kTileBits;
    const uint32_t tc = c >> kTileBits;
    if (tr >= rows_.size() || tc >= rows_[tr].size() || !rows_[tr][tc]) return T{};
    return (*rows_[tr][tc])[cell_index(r, c)];
  }

  /// Visit every cell of every live tile (zero-valued cells included) in
  /// deterministic row-major tile order; fn(row_id, col_id, cell_ref).
  template <typename Fn>
  void for_each_cell(Fn&& fn) {
    for (uint32_t tr = 0; tr < rows_.size(); ++tr) {
      for (uint32_t tc = 0; tc < rows_[tr].size(); ++tc) {
        if (!rows_[tr][tc]) continue;
        Tile& tile = *rows_[tr][tc];
        for (uint32_t i = 0; i < kTileCells; ++i) {
          fn((tr << kTileBits) | (i >> kTileBits), (tc << kTileBits) | (i & kTileMask),
             tile[i]);
        }
      }
    }
  }

  /// Drop all cells, returning live tiles to the free pool.  The row/column
  /// skeleton and the pool keep their capacity for the next run.
  void clear() {
    for (auto& row : rows_) {
      for (auto& t : row) {
        if (t) pool_.push_back(std::move(t));
      }
    }
    live_tiles_ = 0;
  }

  bool any_tile() const { return live_tiles_ != 0; }
  size_t live_tiles() const { return live_tiles_; }
  size_t pooled_tiles() const { return pool_.size(); }

 private:
  using Tile = std::vector<T>;

  static uint32_t cell_index(uint32_t r, uint32_t c) {
    return ((r & kTileMask) << kTileBits) | (c & kTileMask);
  }

  std::unique_ptr<Tile> acquire_tile() {
    ++live_tiles_;
    if (!pool_.empty()) {
      std::unique_ptr<Tile> t = std::move(pool_.back());
      pool_.pop_back();
      t->assign(kTileCells, T{});
      return t;
    }
    return std::make_unique<Tile>(kTileCells);
  }

  std::vector<std::vector<std::unique_ptr<Tile>>> rows_;
  std::vector<std::unique_ptr<Tile>> pool_;
  size_t live_tiles_ = 0;
};

}  // namespace gmpx::common
