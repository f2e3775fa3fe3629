#include "skc/sketch/distinct.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"

namespace skc {

DistinctCells::DistinctCells(const HierarchicalGrid& grid, int level,
                             std::size_t budget, std::uint64_t seed)
    : grid_(&grid),
      level_(level),
      budget_(std::max<std::size_t>(budget, 8)),
      seed_(seed) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  Rng rng(seed);
  hash_ = KWiseHash(8, rng);
}

void DistinctCells::update(std::span<const Coord> p, std::int64_t delta) {
  CellKey key = grid_->cell_of(p, level_);
  // Hash the cell's index vector (Coord view; indices fit in int32).
  const std::uint64_t folded =
      hash_(std::span<const Coord>(key.index.data(), key.index.size()));
  const std::uint64_t threshold = f61::kP >> shift_;
  if (folded >= threshold) return;

  auto it = kept_.find(key);
  if (it == kept_.end()) {
    if (delta <= 0) return;  // deletion of an untracked (evicted) cell: the
                             // estimate degrades gracefully, never crashes
    kept_.emplace(std::move(key), delta);
  } else {
    it->second += delta;
    if (it->second <= 0) kept_.erase(it);
  }

  // Shrink when over budget: halve the threshold and evict.
  shrink_to_budget();
}

void DistinctCells::update_batch(const std::int32_t* cell_idx,
                                 const std::int64_t* deltas, std::size_t n) {
  const auto dim = static_cast<std::size_t>(grid_->dim());
  static_assert(std::is_same_v<Coord, std::int32_t>,
                "cell index rows are hashed as coordinate vectors");
  std::uint64_t hashes[f61::kBatchTile];
  CellKey key;
  key.level = level_;
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    hash_.hash_batch(cell_idx + base * dim, dim, tn, hashes);
    for (std::size_t b = 0; b < tn; ++b) {
      // The kept threshold can shrink mid-batch (shrink_to_budget), so it is
      // re-read per event exactly as the pointwise path does.
      const std::uint64_t threshold = f61::kP >> shift_;
      if (hashes[b] >= threshold) continue;
      const std::size_t i = base + b;
      key.index.assign(cell_idx + i * dim, cell_idx + (i + 1) * dim);
      auto it = kept_.find(key);
      if (it == kept_.end()) {
        if (deltas[i] <= 0) continue;
        kept_.emplace(key, deltas[i]);
      } else {
        it->second += deltas[i];
        if (it->second <= 0) kept_.erase(it);
      }
      shrink_to_budget();
    }
  }
}

void DistinctCells::shrink_to_budget() {
  while (kept_.size() > budget_) {
    ++shift_;
    const std::uint64_t new_threshold = f61::kP >> shift_;
    for (auto iter = kept_.begin(); iter != kept_.end();) {
      const auto& idx = iter->first.index;
      if (hash_(std::span<const Coord>(idx.data(), idx.size())) >= new_threshold) {
        iter = kept_.erase(iter);
      } else {
        ++iter;
      }
    }
  }
}

void DistinctCells::merge(const DistinctCells& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.budget_ == budget_);
  SKC_CHECK(other.seed_ == seed_);
  // Align both sides to the coarser threshold, then union-sum the survivors.
  if (other.shift_ > shift_) {
    shift_ = other.shift_;
    const std::uint64_t threshold = f61::kP >> shift_;
    for (auto iter = kept_.begin(); iter != kept_.end();) {
      const auto& idx = iter->first.index;
      if (hash_(std::span<const Coord>(idx.data(), idx.size())) >= threshold) {
        iter = kept_.erase(iter);
      } else {
        ++iter;
      }
    }
  }
  const std::uint64_t threshold = f61::kP >> shift_;
  for (const auto& [key, count] : other.kept_) {
    const auto& idx = key.index;
    if (hash_(std::span<const Coord>(idx.data(), idx.size())) >= threshold) continue;
    auto it = kept_.find(key);
    if (it == kept_.end()) {
      if (count > 0) kept_.emplace(key, count);
    } else {
      it->second += count;
      if (it->second <= 0) kept_.erase(it);
    }
  }
  shrink_to_budget();
}

double DistinctCells::estimate() const {
  return static_cast<double>(kept_.size()) * std::pow(2.0, shift_);
}

std::size_t DistinctCells::memory_bytes() const {
  return kept_.size() * (sizeof(CellKey) + sizeof(std::int64_t) +
                         static_cast<std::size_t>(grid_->dim()) * sizeof(std::int32_t));
}

void DistinctCells::save(std::ostream& out) const {
  serial::put<std::int32_t>(out, shift_);
  serial::put<std::uint64_t>(out, kept_.size());
  serial::EntryOrder<decltype(kept_)> kept;
  serial::canonical_order(kept_, kept);
  for (const auto* cell : kept) {
    serial::put_vector(out, cell->first.index);
    serial::put<std::int64_t>(out, cell->second);
  }
}

bool DistinctCells::load(std::istream& in) {
  std::int32_t shift = 0;
  if (!serial::get(in, shift)) return false;
  shift_ = shift;
  std::uint64_t entries = 0;
  if (!serial::get(in, entries)) return false;
  kept_.clear();
  for (std::uint64_t e = 0; e < entries; ++e) {
    CellKey key;
    key.level = level_;
    if (!serial::get_vector(in, key.index)) return false;
    std::int64_t count = 0;
    if (!serial::get(in, count)) return false;
    kept_.emplace(std::move(key), count);
  }
  return true;
}

double opt_lower_bound_from_cells(const HierarchicalGrid& grid, int k, LrOrder r,
                                  std::span<const double> estimates) {
  // Lemma 3.2's constant: ~e^2 center cells per center per level; use 8 k
  // plus slack for estimate noise.
  double best = 0.0;
  for (int i = 0; i < static_cast<int>(estimates.size()); ++i) {
    const double spare = estimates[static_cast<std::size_t>(i)] - 8.0 * k - 8.0;
    if (spare <= 0.0) continue;
    const double radius =
        static_cast<double>(grid.side(i)) / static_cast<double>(grid.dim());
    best = std::max(best, spare * std::pow(radius, r.r));
  }
  return best;
}

}  // namespace skc
