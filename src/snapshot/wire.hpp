#pragma once

// Little-endian scalar encoding for snapshot sections.
//
// Every section payload is built with an Encoder and parsed with a Decoder.
// The Decoder is bounds-checked on every read and throws SnapshotError
// naming its section, so a truncated or bit-flipped payload that slips past
// the CRC (it cannot, but defense in depth is free here) still fails loudly
// instead of reading out of bounds.
//
// Both are also *archives*: `ar(x, y, z)` writes the fields with an Encoder
// and reads them back into the same lvalues with a Decoder, so one io()
// description per struct (state_io.cpp) serves save and load alike.  The
// scalar width follows the field's type: int → i32, SimTime/int64 → i64,
// size_t/uint64 → u64, bool/char → u8, enums → i32; a pair is its two
// members.  `kLoading` tells the few one-way steps (cross-checks,
// re-derived state) which direction runs.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "snapshot/error.hpp"

namespace bcs::snapshot {

class Encoder {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  void str(const std::string& s) {
    u64(s.size());
    out_.append(s);
  }

  void operator()(std::uint8_t v) { u8(v); }
  void operator()(char v) { u8(static_cast<std::uint8_t>(v)); }
  void operator()(std::uint32_t v) { u32(v); }
  void operator()(std::uint64_t v) { u64(v); }
  void operator()(std::int32_t v) { i32(v); }
  void operator()(std::int64_t v) { i64(v); }
  void operator()(bool v) { boolean(v); }
  void operator()(const std::string& s) { str(s); }
  template <class A, class B>
  void operator()(const std::pair<A, B>& p) {
    (*this)(p.first, p.second);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    i32(static_cast<std::int32_t>(v));
  }
  /// Pointers never go on the wire as addresses (BufferRegistry::ref).
  template <class T>
  void operator()(T*) = delete;
  template <class... Ts>
    requires(sizeof...(Ts) > 1)
  void operator()(const Ts&... vs) {
    ((*this)(vs), ...);
  }

  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

class Decoder {
 public:
  static constexpr bool kLoading = true;

  Decoder(std::string_view data, std::string section)
      : data_(data), section_(std::move(section)) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  void bytes(void* dst, std::size_t n) {
    need(n);
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  void operator()(std::uint8_t& v) { v = u8(); }
  void operator()(char& v) { v = static_cast<char>(u8()); }
  void operator()(std::uint32_t& v) { v = u32(); }
  void operator()(std::uint64_t& v) { v = u64(); }
  void operator()(std::int32_t& v) { v = i32(); }
  void operator()(std::int64_t& v) { v = i64(); }
  void operator()(bool& v) { v = boolean(); }
  void operator()(std::string& s) { s = str(); }
  template <class A, class B>
  void operator()(std::pair<A, B>& p) {
    (*this)(p.first, p.second);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    v = static_cast<E>(i32());
  }
  template <class T>
  void operator()(T*&) = delete;
  template <class... Ts>
    requires(sizeof...(Ts) > 1)
  void operator()(Ts&... vs) {
    ((*this)(vs), ...);
  }

  bool atEnd() const { return pos_ == data_.size(); }
  /// Call after the last field: trailing garbage means the payload does not
  /// match the schema this build expects.
  void expectEnd() const {
    if (!atEnd()) {
      throw SnapshotError(section_, std::to_string(data_.size() - pos_) +
                                        " trailing byte(s) after last field");
    }
  }
  const std::string& section() const { return section_; }
  [[noreturn]] void fail(const std::string& reason) const {
    throw SnapshotError(section_, reason);
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SnapshotError(section_,
                          "truncated payload: need " + std::to_string(n) +
                              " byte(s) at offset " + std::to_string(pos_) +
                              " of " + std::to_string(data_.size()));
    }
  }
  std::uint64_t le(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(width);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string section_;
};

// ---------------------------------------------------------------------------
// Container helpers.  `body(element)` describes one element; without a body
// each element is a scalar written with `ar(element)`.
// ---------------------------------------------------------------------------

/// The u32 length of a container whose shape the fresh build already has.
/// Loading refuses a snapshot whose length differs.
template <class Ar>
void fixedCount(Ar& ar, std::size_t fresh, const char* what) {
  auto n = static_cast<std::uint32_t>(fresh);
  ar(n);
  if constexpr (Ar::kLoading) {
    if (n != fresh) {
      ar.fail(std::string(what) + " count mismatch (snapshot " +
              std::to_string(n) + ", fresh " + std::to_string(fresh) + ")");
    }
  }
}

/// A fixed-shape container: u32 count, then each element in place.
template <class Ar, class C, class Body>
void fixed(Ar& ar, C& c, const char* what, Body&& body) {
  fixedCount(ar, c.size(), what);
  for (auto& x : c) body(x);
}
template <class Ar, class C>
void fixed(Ar& ar, C& c, const char* what) {
  fixed(ar, c, what, [&ar](auto& x) { ar(x); });
}

/// A growable container: u32 count, then each element.  Loading clears the
/// container and refills it.  Sequences append with push_back; the match
/// indexes, which expose forEach/insert instead of iterators, insert.
template <class Ar, class C, class Body>
void list(Ar& ar, C& c, Body&& body) {
  auto n = static_cast<std::uint32_t>(c.size());
  ar(n);
  if constexpr (Ar::kLoading) {
    c.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      typename C::value_type x{};
      body(x);
      if constexpr (requires { c.push_back(std::move(x)); }) {
        c.push_back(std::move(x));
      } else {
        c.insert(std::move(x));
      }
    }
  } else if constexpr (requires { c.begin(); }) {
    for (auto& x : c) body(x);
  } else {
    c.forEach([&body](typename C::value_type x) { body(x); });
  }
}
template <class Ar, class C>
void list(Ar& ar, C& c) {
  list(ar, c, [&ar](auto& x) { ar(x); });
}

}  // namespace bcs::snapshot
