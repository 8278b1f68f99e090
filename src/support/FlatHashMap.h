//===- support/FlatHashMap.h - Open-addressing hash map ---------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A linear-probing hash map for integer and pointer keys, stored in one
/// flat array: no allocation per entry, one cache line per probe. The
/// zero key (0, nullptr) marks an empty slot and may not be inserted.
/// Iteration order follows the slots and carries no meaning; callers that
/// need a stable order keep one of their own.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_SUPPORT_FLATHASHMAP_H
#define SLO_SUPPORT_FLATHASHMAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace slo {

template <typename KeyT, typename ValueT> class FlatHashMap {
public:
  size_t size() const { return Count; }

  /// Makes room for \p N entries without rehashing.
  void reserve(size_t N) {
    size_t Want = 16;
    while (Want < 2 * N)
      Want *= 2;
    if (Want > Slots.size())
      rehash(Want);
  }

  /// The value of \p Key, inserting \p Init when absent; the flag is true
  /// when the entry is new. The pointer is valid until the next insert.
  std::pair<ValueT *, bool> tryEmplace(KeyT Key, ValueT Init) {
    assert(Key != KeyT() && "the zero key marks empty slots");
    if (2 * (Count + 1) > Slots.size())
      rehash(Slots.empty() ? 16 : 2 * Slots.size());
    size_t Mask = Slots.size() - 1;
    for (size_t I = hash(Key) & Mask;; I = (I + 1) & Mask) {
      if (Slots[I].first == Key)
        return {&Slots[I].second, false};
      if (Slots[I].first == KeyT()) {
        Slots[I] = {Key, std::move(Init)};
        ++Count;
        return {&Slots[I].second, true};
      }
    }
  }

  /// True when \p Key was absent and is now present.
  bool insert(KeyT Key) { return tryEmplace(Key, ValueT()).second; }

  /// The value of \p Key, or null when absent.
  const ValueT *find(KeyT Key) const {
    if (Slots.empty() || Key == KeyT())
      return nullptr;
    size_t Mask = Slots.size() - 1;
    for (size_t I = hash(Key) & Mask;; I = (I + 1) & Mask) {
      if (Slots[I].first == Key)
        return &Slots[I].second;
      if (Slots[I].first == KeyT())
        return nullptr;
    }
  }

  /// Calls \p F(Key, Value &) on every entry, in slot order.
  template <typename Fn> void forEach(Fn F) {
    for (auto &[K, V] : Slots)
      if (K != KeyT())
        F(K, V);
  }

private:
  static size_t hash(KeyT Key) {
    uint64_t H;
    if constexpr (std::is_pointer_v<KeyT>)
      H = reinterpret_cast<uintptr_t>(Key);
    else
      H = static_cast<uint64_t>(Key);
    // Fibonacci hashing; the high bits are the well-mixed ones.
    H *= 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(H ^ (H >> 32));
  }

  void rehash(size_t NewSize) {
    std::vector<std::pair<KeyT, ValueT>> Old(NewSize);
    Old.swap(Slots);
    size_t Mask = Slots.size() - 1;
    for (auto &[K, V] : Old) {
      if (K == KeyT())
        continue;
      size_t I = hash(K) & Mask;
      while (Slots[I].first != KeyT())
        I = (I + 1) & Mask;
      Slots[I] = {K, std::move(V)};
    }
  }

  std::vector<std::pair<KeyT, ValueT>> Slots;
  size_t Count = 0;
};

} // namespace slo

#endif // SLO_SUPPORT_FLATHASHMAP_H
