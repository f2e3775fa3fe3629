// Minimal binary serialization helpers for checkpointing.
//
// Little-endian PODs with explicit widths; every reader checks stream state
// so a truncated checkpoint surfaces as load() == false rather than garbage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace skc::serial {

/// Readers grow their destination in bounded chunks instead of trusting the
/// announced size: a truncated or bit-flipped length field then fails at the
/// first short read (a few MiB allocated at worst) instead of attempting one
/// multi-gigabyte resize that can throw bad_alloc out of load().
inline constexpr std::uint64_t kReadChunkBytes = std::uint64_t{4} << 20;

template <typename T>
void put(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool get(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void put_vector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put<std::uint64_t>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

template <typename T>
bool get_vector(std::istream& in, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t size = 0;
  if (!get(in, size)) return false;
  if (size > (std::uint64_t{1} << 33)) return false;  // sanity: < 8G entries
  v.clear();
  const std::uint64_t chunk_elems =
      kReadChunkBytes / sizeof(T) > 0 ? kReadChunkBytes / sizeof(T) : 1;
  std::uint64_t done = 0;
  while (done < size) {
    const std::uint64_t take = std::min(chunk_elems, size - done);
    v.resize(static_cast<std::size_t>(done + take));
    in.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!in) {
      v.clear();
      return false;
    }
    done += take;
  }
  return static_cast<bool>(in);
}

inline void put_string(std::ostream& out, const std::string& s) {
  put<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline bool get_string(std::istream& in, std::string& s) {
  std::uint64_t size = 0;
  if (!get(in, size)) return false;
  if (size > (std::uint64_t{1} << 32)) return false;
  s.clear();
  std::uint64_t done = 0;
  while (done < size) {
    const std::uint64_t take = std::min(kReadChunkBytes, size - done);
    s.resize(static_cast<std::size_t>(done + take));
    in.read(s.data() + done, static_cast<std::streamsize>(take));
    if (!in) {
      s.clear();
      return false;
    }
    done += take;
  }
  return static_cast<bool>(in);
}

/// Pointers to a map's entries, as canonical_order() fills them.
template <typename Map>
using EntryOrder = std::vector<const typename Map::value_type*>;

/// Fills `out` with the map's entries in ascending key order.  Saving
/// through this order makes equal maps serialize to equal bytes whatever
/// insertion history shaped a hash map's iteration order (save -> load ->
/// save is stable).  `out` is caller-owned so a loop over many small maps
/// reuses one buffer.
template <typename Map>
void canonical_order(const Map& map, EntryOrder<Map>& out) {
  out.clear();
  for (const auto& entry : map) out.push_back(&entry);
  if (out.size() < 2) return;
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
}

}  // namespace skc::serial
