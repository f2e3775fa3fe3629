#include "skc/sketch/point_store.h"

#include <algorithm>
#include <cstring>

#include "skc/common/check.h"
#include "skc/common/serial.h"

namespace skc {

namespace {

std::string pack_coords(std::span<const Coord> p) {
  std::string out(p.size() * sizeof(Coord), '\0');
  std::memcpy(out.data(), p.data(), out.size());
  return out;
}

}  // namespace

CellPointStore::CellPointStore(const HierarchicalGrid& grid, int level,
                               const PointStoreConfig& config)
    : grid_(&grid), level_(level), config_(config) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  SKC_CHECK(config.watermark >= 1);
}

void CellPointStore::maybe_evict(Entry& entry) {
  if (config_.exact || entry.tombstoned) return;
  if (entry.net_peak > config_.watermark) {
    live_points_ -= static_cast<std::int64_t>(entry.points.size());
    entry.points.clear();
    entry.tombstoned = true;
  }
}

void CellPointStore::update(std::span<const Coord> p, std::int64_t delta) {
  SKC_DCHECK(static_cast<int>(p.size()) == grid_->dim());
  ++events_;
  if (dead_) return;
  CellKey key = grid_->cell_of(p, level_);
  Entry& entry = cells_[std::move(key)];
  entry.net += delta;
  entry.net_peak = std::max(entry.net_peak, entry.net);
  if (!entry.tombstoned) {
    std::string packed = pack_coords(p);
    auto it = entry.points.find(packed);
    if (it == entry.points.end()) {
      if (delta > 0) {
        entry.points.emplace(std::move(packed), delta);
        ++live_points_;
      }
      // A deletion of an untracked point only happens in ill-formed streams;
      // the net count catches it downstream.
    } else {
      it->second += delta;
      if (it->second == 0) {
        entry.points.erase(it);
        --live_points_;
      }
    }
    maybe_evict(entry);
  }
  if (!config_.exact && live_points_ > config_.max_live_points) {
    dead_ = true;
    cells_.clear();
    live_points_ = 0;
  }
}

void CellPointStore::update_batch(const Coord* points, const std::int32_t* cell_idx,
                                  const std::int64_t* deltas, std::size_t n) {
  const auto dim = static_cast<std::size_t>(grid_->dim());
  CellKey key;
  key.level = level_;
  std::string packed;
  for (std::size_t i = 0; i < n; ++i) {
    if (dead_) return;  // a pointwise caller checks dead() per event
    ++events_;
    key.index.assign(cell_idx + i * dim, cell_idx + (i + 1) * dim);
    Entry& entry = cells_[key];
    entry.net += deltas[i];
    entry.net_peak = std::max(entry.net_peak, entry.net);
    if (!entry.tombstoned) {
      packed.assign(reinterpret_cast<const char*>(points + i * dim),
                    dim * sizeof(Coord));
      auto it = entry.points.find(packed);
      if (it == entry.points.end()) {
        if (deltas[i] > 0) {
          entry.points.emplace(packed, deltas[i]);
          ++live_points_;
        }
      } else {
        it->second += deltas[i];
        if (it->second == 0) {
          entry.points.erase(it);
          --live_points_;
        }
      }
      maybe_evict(entry);
    }
    if (!config_.exact && live_points_ > config_.max_live_points) {
      dead_ = true;
      cells_.clear();
      live_points_ = 0;
    }
  }
}

std::optional<CellPointStore::CellPoints> CellPointStore::cell(
    const CellKey& key) const {
  SKC_DCHECK(key.level == level_);
  const auto it = cells_.find(key);
  if (it == cells_.end()) return std::nullopt;
  const Entry& entry = it->second;
  CellPoints out;
  out.net_count = entry.net;
  out.complete = !entry.tombstoned;
  out.points = PointSet(grid_->dim());
  if (out.complete) {
    std::vector<Coord> coords(static_cast<std::size_t>(grid_->dim()));
    for (const auto& [packed, count] : entry.points) {
      SKC_CHECK(packed.size() == coords.size() * sizeof(Coord));
      std::memcpy(coords.data(), packed.data(), packed.size());
      for (std::int64_t c = 0; c < count; ++c) out.points.push_back(coords);
    }
  }
  return out;
}

std::vector<std::pair<CellKey, CellPointStore::CellPoints>>
CellPointStore::all_cells() const {
  std::vector<std::pair<CellKey, CellPoints>> out;
  out.reserve(cells_.size());
  for (const auto& [key, entry] : cells_) {
    if (entry.net == 0 && !entry.tombstoned) continue;
    auto cp = cell(key);
    if (cp) out.emplace_back(key, std::move(*cp));
  }
  return out;
}

void CellPointStore::merge(const CellPointStore& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.config_.exact == config_.exact);
  events_ += other.events_;
  if (other.dead_) {
    dead_ = true;
    cells_.clear();
    live_points_ = 0;
  }
  if (dead_) return;
  for (const auto& [key, entry] : other.cells_) {
    Entry& mine = cells_[key];
    mine.net += entry.net;
    // Peaks are not exactly mergeable (they depend on interleaving); the sum
    // upper-bounds any interleaved peak, which errs toward eviction.
    mine.net_peak += entry.net_peak;
    if (entry.tombstoned && !mine.tombstoned) {
      live_points_ -= static_cast<std::int64_t>(mine.points.size());
      mine.points.clear();
      mine.tombstoned = true;
    }
    if (!mine.tombstoned) {
      for (const auto& [packed, count] : entry.points) {
        auto it = mine.points.find(packed);
        if (it == mine.points.end()) {
          mine.points.emplace(packed, count);
          ++live_points_;
        } else {
          it->second += count;
          if (it->second == 0) {
            mine.points.erase(it);
            --live_points_;
          }
        }
      }
      maybe_evict(mine);
    }
  }
  if (!config_.exact && live_points_ > config_.max_live_points) {
    dead_ = true;
    cells_.clear();
    live_points_ = 0;
  }
}

void CellPointStore::release() {
  dead_ = true;
  cells_.clear();
  live_points_ = 0;
}

void CellPointStore::save(std::ostream& out) const {
  serial::put<std::uint8_t>(out, dead_ ? 1 : 0);
  serial::put<std::int64_t>(out, events_);
  serial::put<std::int64_t>(out, live_points_);
  serial::put<std::uint64_t>(out, cells_.size());
  serial::EntryOrder<decltype(cells_)> cells;
  serial::EntryOrder<decltype(Entry::points)> points;
  serial::canonical_order(cells_, cells);
  for (const auto* cell : cells) {
    const Entry& entry = cell->second;
    serial::put_vector(out, cell->first.index);
    serial::put<std::int64_t>(out, entry.net);
    serial::put<std::int64_t>(out, entry.net_peak);
    serial::put<std::uint8_t>(out, entry.tombstoned ? 1 : 0);
    serial::put<std::uint64_t>(out, entry.points.size());
    serial::canonical_order(entry.points, points);
    for (const auto* point : points) {
      serial::put_string(out, point->first);
      serial::put<std::int64_t>(out, point->second);
    }
  }
}

bool CellPointStore::load(std::istream& in) {
  std::uint8_t dead = 0;
  if (!serial::get(in, dead)) return false;
  dead_ = dead != 0;
  if (!serial::get(in, events_)) return false;
  if (!serial::get(in, live_points_)) return false;
  std::uint64_t ncells = 0;
  if (!serial::get(in, ncells)) return false;
  cells_.clear();
  for (std::uint64_t c = 0; c < ncells; ++c) {
    CellKey key;
    key.level = level_;
    if (!serial::get_vector(in, key.index)) return false;
    Entry entry;
    if (!serial::get(in, entry.net)) return false;
    if (!serial::get(in, entry.net_peak)) return false;
    std::uint8_t tomb = 0;
    if (!serial::get(in, tomb)) return false;
    entry.tombstoned = tomb != 0;
    std::uint64_t npoints = 0;
    if (!serial::get(in, npoints)) return false;
    for (std::uint64_t p = 0; p < npoints; ++p) {
      std::string packed;
      if (!serial::get_string(in, packed)) return false;
      std::int64_t count = 0;
      if (!serial::get(in, count)) return false;
      entry.points.emplace(std::move(packed), count);
    }
    cells_.emplace(std::move(key), std::move(entry));
  }
  return true;
}

std::size_t CellPointStore::memory_bytes() const {
  std::size_t total = 0;
  const std::size_t per_cell =
      sizeof(CellKey) + static_cast<std::size_t>(grid_->dim()) * 4 + sizeof(Entry);
  const std::size_t per_point = static_cast<std::size_t>(grid_->dim()) * 4 + 40;
  for (const auto& [key, entry] : cells_) {
    (void)key;
    total += per_cell + entry.points.size() * per_point;
  }
  return total;
}

}  // namespace skc
