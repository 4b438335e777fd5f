// Flat open-addressing hash set for uint64_t keys (linear probing, power-of-two table).
// No per-node allocation, and growth moves raw words instead of relinking buckets. The
// mempool uses it as the sparse spill set for tx ids that fall outside their client's
// watermark window (src/consensus/mempool.h).
#ifndef SRC_COMMON_U64_SET_H_
#define SRC_COMMON_U64_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace achilles {

class U64Set {
 public:
  U64Set() = default;

  // Inserts `key`; returns true when it was not already present.
  bool Insert(uint64_t key) {
    if (key == kEmpty) {
      const bool fresh = !has_empty_key_;
      has_empty_key_ = true;
      size_ += fresh ? 1 : 0;
      return fresh;
    }
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) {
      Grow();
    }
    size_t i = Mix(key) & mask_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) {
        return false;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (key == kEmpty) {
      return has_empty_key_;
    }
    if (slots_.empty()) {
      return false;
    }
    size_t i = Mix(key) & mask_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) {
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  // Removes `key`; returns true when it was present. Backward-shift deletion keeps every
  // probe chain gap-free, so no tombstones accumulate.
  bool Erase(uint64_t key) {
    if (key == kEmpty) {
      const bool had = has_empty_key_;
      has_empty_key_ = false;
      size_ -= had ? 1 : 0;
      return had;
    }
    if (slots_.empty()) {
      return false;
    }
    size_t i = Mix(key) & mask_;
    while (slots_[i] != key) {
      if (slots_[i] == kEmpty) {
        return false;
      }
      i = (i + 1) & mask_;
    }
    // Pull back any later chain member whose home slot does not lie in (i, j].
    for (size_t j = (i + 1) & mask_; slots_[j] != kEmpty; j = (j + 1) & mask_) {
      const size_t home = Mix(slots_[j]) & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = kEmpty;
    --size_;
    return true;
  }

  // Calls `fn(key)` for every key, in no particular order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    if (has_empty_key_) {
      fn(kEmpty);
    }
    for (uint64_t key : slots_) {
      if (key != kEmpty) {
        fn(key);
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n) {
    size_t cap = 16;
    while (cap * 7 < n * 8) {
      cap *= 2;
    }
    if (cap > slots_.size()) {
      Rebuild(cap);
    }
  }

 private:
  static constexpr uint64_t kEmpty = 0;  // Key 0 tracked by has_empty_key_ instead.

  // splitmix64 finalizer: spreads sequential ids across the table.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void Grow() { Rebuild(slots_.empty() ? 16 : slots_.size() * 2); }

  void Rebuild(size_t cap) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    for (uint64_t key : old) {
      if (key == kEmpty) {
        continue;
      }
      size_t i = Mix(key) & mask_;
      while (slots_[i] != kEmpty) {
        i = (i + 1) & mask_;
      }
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_empty_key_ = false;
};

}  // namespace achilles

#endif  // SRC_COMMON_U64_SET_H_
