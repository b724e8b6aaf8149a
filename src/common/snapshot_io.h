// Binary snapshot archives: the serialization substrate behind full-simulator
// checkpoint/restore (src/sim/snapshot.h).
//
// One template `io(Ar&)` member per class describes its mutable state once;
// snap::Writer streams it into a byte buffer and snap::Reader streams it back.
// The format is deliberately dumb — fields in declaration order, integers
// little-endian, no per-field tags — because a snapshot is only ever read by
// the same binary layout that wrote it (a version + config fingerprint guard
// in sim/snapshot.cpp rejects everything else). Dumb buys bit-exactness:
// doubles round-trip through std::bit_cast, so restored state is *identical*,
// not merely close.
//
// Supported field types:
//   - bool (one byte), enums (underlying type), all integral types
//     (little-endian), float/double (bit_cast to the same-width integer)
//   - std::string, std::vector<T>, std::vector<bool>, std::deque<T>,
//     std::array<T, N>, std::optional<T>
//   - any class with a `template <class Ar> void io(Ar& ar)` member
//
// Classes whose state cannot round-trip field-by-field (hash containers,
// derived caches) branch on `Ar::kIsReader` inside io() and rebuild the
// derived part from the serialized source of truth.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace rop::snap {

namespace detail {

template <class T>
struct IsStdOptional : std::false_type {};
template <class T>
struct IsStdOptional<std::optional<T>> : std::true_type {};

template <class T>
struct IsStdVector : std::false_type {};
template <class T>
struct IsStdVector<std::vector<T>> : std::true_type {};

template <class T>
struct IsStdDeque : std::false_type {};
template <class T>
struct IsStdDeque<std::deque<T>> : std::true_type {};

template <class T>
struct IsStdArray : std::false_type {};
template <class T, std::size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type {};

/// Same-width unsigned image of a float/double for bit-exact round-trips.
template <class T>
using FloatBits =
    std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

/// True when a container of T can be moved as one memcpy without changing
/// the archive bytes: the serialized form of an arithmetic scalar is its
/// little-endian image (floats via bit_cast), which IS its memory image on
/// a little-endian host. bool is excluded (serialized as one byte each,
/// and std::vector<bool> has no contiguous storage anyway).
template <class T>
inline constexpr bool kBulkCopyable =
    std::endian::native == std::endian::little &&
    (std::is_integral_v<T> || std::is_floating_point_v<T>) &&
    !std::is_same_v<T, bool>;

}  // namespace detail

/// Serializing archive: appends fields to a growing byte buffer.
class Writer {
 public:
  static constexpr bool kIsReader = false;

  template <class... Ts>
  void operator()(Ts&... fields) {
    (field(fields), ...);
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

  template <class T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      raw_uint(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      raw_uint(static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(
          static_cast<std::underlying_type_t<T>>(v)));
    } else if constexpr (std::is_integral_v<T>) {
      raw_uint(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      raw_uint(std::bit_cast<detail::FloatBits<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      raw_uint(static_cast<std::uint64_t>(v.size()));
      buf_.append(v.data(), v.size());
    } else if constexpr (detail::IsStdOptional<T>::value) {
      field(v.has_value());
      if (v.has_value()) field(*v);
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      raw_uint(static_cast<std::uint64_t>(v.size()));
      for (const bool b : v) field(b);
    } else if constexpr (detail::IsStdVector<T>::value) {
      raw_uint(static_cast<std::uint64_t>(v.size()));
      if constexpr (detail::kBulkCopyable<typename T::value_type>) {
        buf_.append(reinterpret_cast<const char*>(v.data()),
                    v.size() * sizeof(typename T::value_type));
      } else {
        for (const auto& e : v) field(e);
      }
    } else if constexpr (detail::IsStdDeque<T>::value) {
      raw_uint(static_cast<std::uint64_t>(v.size()));
      for (const auto& e : v) field(e);
    } else if constexpr (detail::IsStdArray<T>::value) {
      for (const auto& e : v) field(e);
    } else {
      // Classes serialize themselves; io() is non-const by contract (the
      // Reader mutates), so the Writer casts the const away.
      const_cast<T&>(v).io(*this);
    }
  }

 private:
  template <class U>
  void raw_uint(U v) {
    static_assert(std::is_unsigned_v<U>);
    if constexpr (std::endian::native == std::endian::little) {
      // The wire format is little-endian, so on a little-endian host the
      // value's memory image is already the encoded form.
      buf_.append(reinterpret_cast<const char*>(&v), sizeof(U));
    } else {
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
      }
    }
  }

  std::string buf_;
};

/// Deserializing archive over a byte span. Any underflow or malformed
/// length poisons the archive (ok() turns false) and zero-fills every
/// subsequent field instead of reading out of bounds — the caller checks
/// ok() once at the end.
class Reader {
 public:
  static constexpr bool kIsReader = true;

  Reader(const char* data, std::size_t size)
      : pos_(reinterpret_cast<const unsigned char*>(data)),
        end_(pos_ + size) {}
  explicit Reader(const std::string& bytes) : Reader(bytes.data(),
                                                     bytes.size()) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == end_; }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

  template <class... Ts>
  void operator()(Ts&... fields) {
    (field(fields), ...);
  }

  template <class T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      raw_uint(b);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::make_unsigned_t<std::underlying_type_t<T>> u = 0;
      raw_uint(u);
      v = static_cast<T>(static_cast<std::underlying_type_t<T>>(u));
    } else if constexpr (std::is_integral_v<T>) {
      std::make_unsigned_t<T> u = 0;
      raw_uint(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_floating_point_v<T>) {
      detail::FloatBits<T> bits = 0;
      raw_uint(bits);
      v = std::bit_cast<T>(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint64_t n = length();
      v.assign(reinterpret_cast<const char*>(pos_),
               static_cast<std::size_t>(n));
      pos_ += n;
    } else if constexpr (detail::IsStdOptional<T>::value) {
      bool has = false;
      field(has);
      if (has) {
        v.emplace();
        field(*v);
      } else {
        v.reset();
      }
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      const std::uint64_t n = length();
      v.assign(static_cast<std::size_t>(n), false);
      for (std::uint64_t i = 0; i < n; ++i) {
        bool b = false;
        field(b);
        v[static_cast<std::size_t>(i)] = b;
      }
    } else if constexpr (detail::IsStdVector<T>::value) {
      using E = typename T::value_type;
      if constexpr (detail::kBulkCopyable<E>) {
        std::uint64_t n = 0;
        raw_uint(n);
        const std::uint64_t bytes = n * sizeof(E);
        if (!ok_ || bytes > remaining()) {
          ok_ = false;
          v.clear();
          return;
        }
        v.resize(static_cast<std::size_t>(n));
        // An empty vector's data() may be null, which memcpy forbids even
        // for zero bytes.
        if (bytes > 0) {
          std::memcpy(v.data(), pos_, static_cast<std::size_t>(bytes));
        }
        pos_ += bytes;
      } else {
        const std::uint64_t n = length();
        v.clear();
        v.resize(static_cast<std::size_t>(n));
        for (auto& e : v) field(e);
      }
    } else if constexpr (detail::IsStdDeque<T>::value) {
      const std::uint64_t n = length();
      v.clear();
      v.resize(static_cast<std::size_t>(n));
      for (auto& e : v) field(e);
    } else if constexpr (detail::IsStdArray<T>::value) {
      for (auto& e : v) field(e);
    } else {
      v.io(*this);
    }
  }

 private:
  template <class U>
  void raw_uint(U& v) {
    static_assert(std::is_unsigned_v<U>);
    if (!ok_ || remaining() < sizeof(U)) {
      ok_ = false;
      v = 0;
      return;
    }
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, pos_, sizeof(U));
    } else {
      U out = 0;
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        out |= static_cast<U>(static_cast<U>(pos_[i]) << (8 * i));
      }
      v = out;
    }
    pos_ += sizeof(U);
  }

  /// Container length with an overrun guard: a length can never exceed the
  /// bytes left (elements are at least one byte), so a corrupt length
  /// poisons the archive instead of driving a giant resize.
  std::uint64_t length() {
    std::uint64_t n = 0;
    raw_uint(n);
    if (n > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  const unsigned char* pos_;
  const unsigned char* end_;
  bool ok_ = true;
};

}  // namespace rop::snap
