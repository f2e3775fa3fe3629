// Refcounted pool of per-level structures shared across o-guesses
// (DESIGN.md §12).  Every guess feeds its level-i structures the substream
// kept by `h[i](p) < p_field / m`: the hash h[i] is shared by all guesses
// and only the rounded rate m depends on o, so guesses with equal
// (level, m) see the same events and one structure serves them all.
//
// `refs` counts the live (unpruned) guesses referencing an entry; the last
// one to prune releases it.  Entries stay in creation order (guess-major,
// level-minor), deterministic given the builder's options: save/load and
// merge_from pair two builders' entries by position.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "skc/common/check.h"
#include "skc/common/serial.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

template <typename Sketch>
class SketchPool {
 public:
  struct Entry {
    template <typename... Args>
    Entry(int level_in, SamplingRate rate_in, Args&&... args)
        : level(level_in), rate(rate_in), sketch(std::forward<Args>(args)...) {}
    int level;
    SamplingRate rate;
    int refs = 0;
    Sketch sketch;
  };

  /// Adds one guess's reference to the (level, rate.m) entry, constructing
  /// its structure from `args` when this is the first guess to ask for it.
  /// unique_ptr entries keep the returned address stable.
  template <typename... Args>
  Entry* acquire(int level, SamplingRate rate, Args&&... args) {
    for (auto& entry : entries_) {
      if (entry->level == level && entry->rate.m == rate.m) {
        ++entry->refs;
        return entry.get();
      }
    }
    entries_.push_back(
        std::make_unique<Entry>(level, rate, std::forward<Args>(args)...));
    entries_.back()->refs = 1;
    return entries_.back().get();
  }

  /// Drops one guess's reference; the last one frees the structure.
  static void unref(Entry* entry) {
    SKC_DCHECK(entry->refs > 0);
    if (--entry->refs == 0) entry->sketch.release();
  }

  /// Zeroes every refcount (load() recounts them from the pruned flags).
  void clear_refs() {
    for (auto& entry : entries_) entry->refs = 0;
  }

  /// Merges the live entries of an identically configured pool, once each.
  /// The caller propagates pruned flags first, so an entry live here has an
  /// unpruned guess referencing it on both sides and its peer is live too.
  void merge_from(const SketchPool& other) {
    SKC_CHECK(other.entries_.size() == entries_.size());
    for (std::size_t s = 0; s < entries_.size(); ++s) {
      Entry& mine = *entries_[s];
      const Entry& theirs = *other.entries_[s];
      SKC_CHECK(mine.level == theirs.level && mine.rate.m == theirs.rate.m);
      if (mine.refs == 0) continue;
      mine.sketch.merge(theirs.sketch);
    }
  }

  /// Physical footprint: each shared structure counts once.
  std::size_t memory_bytes() const {
    std::size_t total = 0;
    for (const auto& entry : entries_) total += entry->sketch.memory_bytes();
    return total;
  }

  void save(std::ostream& out) const {
    serial::put<std::uint64_t>(out, entries_.size());
    for (const auto& entry : entries_) entry->sketch.save(out);
  }

  bool load(std::istream& in) {
    std::uint64_t n = 0;
    if (!serial::get(in, n) || n != entries_.size()) return false;
    for (auto& entry : entries_) {
      if (!entry->sketch.load(in)) return false;
    }
    return true;
  }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

 private:
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace skc
