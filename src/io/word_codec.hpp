// The word codec: one 8-byte little-endian word per value.
//
// Every value a checkpoint carries travels as one such word, whatever its
// C++ type: the checkpoint sections (core/checkpoint.cpp) and the HOST blob
// (workload/driver.cpp).  A record states its layout once, as a function
// template over the direction:
//
//   template <class Ar, io::Record<Foo> R>
//   bool io(Ar& ar, R& foo) {
//     return ar(foo.count) && ar(foo.flag) && ar(foo.kind, Kind::Last);
//   }
//
// WordWriter appends one word per field and always succeeds.  WordReader
// reads one back and refuses a word that does not fit the field it fills:
// 0 or 1 for a bool, the type's maximum for an unsigned integer, and the
// explicit bound for an enum (its last enumerator) or any field passed
// one.  A signed field travels as its two's-complement bit pattern.  A
// refused word is consumed and leaves the stream good; only running out of
// bytes sets eof, so a caller can tell damage from truncation.  Parts
// whose two directions differ test `Ar::kReading`.
#pragma once

#include <concepts>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace hmcsim::io {

/// `R` is `T` or `const T`: the record type one io() template serves in
/// both directions (a writer walks a const record, a reader a mutable one).
template <class R, class T>
concept Record = std::same_as<std::remove_const_t<R>, T>;

class WordWriter {
 public:
  static constexpr bool kReading = false;

  explicit WordWriter(std::ostream& os) : os_(os) {}

  bool bytes(const void* data, usize size) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    return true;
  }
  void word(u64 v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  /// A word both sides know (a magic, a shape): written here, required to
  /// match on read.
  bool expect(u64 v) {
    word(v);
    return true;
  }

  template <class T>
  bool operator()(const T& v, std::type_identity_t<T> /*last*/ = {}) {
    word(static_cast<u64>(v));
    return true;
  }

 private:
  std::ostream& os_;
};

class WordReader {
 public:
  static constexpr bool kReading = true;

  explicit WordReader(std::istream& is) : is_(is) {}

  bool bytes(void* data, usize size) {
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    return static_cast<bool>(is_);
  }
  bool word(u64& v) {
    unsigned char b[8];
    if (!bytes(b, sizeof b)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= u64{b[i]} << (8 * i);
    return true;
  }
  bool expect(u64 v) {
    u64 w = 0;
    return word(w) && w == v;
  }

  /// A field no larger than `last`.
  template <class T>
  bool operator()(T& v, std::type_identity_t<T> last) {
    u64 w = 0;
    if (!word(w) || w > static_cast<u64>(last)) return false;
    v = static_cast<T>(w);
    return true;
  }
  /// A field bounded by its type (a bool is unsigned, so 0 or 1).
  template <class T>
  bool operator()(T& v) {
    static_assert(!std::is_enum_v<T>, "an enum field names its last value");
    if constexpr (std::is_signed_v<T>) {
      static_assert(sizeof(T) == 8, "signed fields are 64-bit");
      u64 w = 0;
      if (!word(w)) return false;
      v = static_cast<T>(w);
      return true;
    } else {
      return (*this)(v, std::numeric_limits<T>::max());
    }
  }

 private:
  std::istream& is_;
};

/// Every element of a fixed-size range, in order.
template <class Ar, class Range>
bool each(Ar& ar, Range&& range) {
  for (auto& v : range) {
    if (!ar(v)) return false;
  }
  return true;
}

/// A counted list: the element count, then each element through `elem`.
/// A reader refuses a count above `cap` and refills the emptied container
/// one element at a time, so a forged count costs only the bytes present.
template <class Ar, class Container, class Elem>
bool list(Ar& ar, Container& c, u64 cap, Elem&& elem) {
  if constexpr (Ar::kReading) {
    u64 count = 0;
    if (!ar(count) || count > cap) return false;
    c.clear();
    for (u64 i = 0; i < count; ++i) {
      typename Container::value_type e{};
      if (!elem(e)) return false;
      c.push_back(std::move(e));
    }
    return true;
  } else {
    ar(c.size());
    for (const auto& e : c) elem(e);
    return true;
  }
}

}  // namespace hmcsim::io
