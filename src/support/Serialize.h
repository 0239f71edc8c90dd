//===- support/Serialize.h - Bounds-checked binary (de)serialization -*- C++ -*-===//
///
/// \file
/// The byte-level substrate of the persistent artifact store: a writer that
/// appends fixed-width little-endian fields to a growable buffer, a reader
/// that consumes them with every access bounds-checked, and the project's
/// only FNV-1a (the oracle and interpreter output checksums, profile-cache
/// keys, the store's content keys and payload checksums, golden hashes and
/// bench digests all call it, so they agree bit for bit).
///
/// Design rules, because loaded bytes come from disk and disk lies:
///  - The reader NEVER trusts a length field. Strings and arrays first check
///    the claimed size against the bytes actually remaining; a lying length
///    flips the reader into the failed state instead of allocating or
///    overrunning.
///  - Failure is sticky and quiet: after the first short or malformed read,
///    every further read returns a zero value and ok() stays false. Callers
///    check ok() once at the end instead of wrapping every field access.
///  - Encoding is canonical: one value has exactly one byte sequence
///    (fixed-width LE, doubles by bit pattern), so "round-trips bit-exactly"
///    and "equal bytes <=> equal values" are the same property.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_SERIALIZE_H
#define BALSCHED_SUPPORT_SERIALIZE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace bsched {

/// Incremental 64-bit FNV-1a: the one definition of its offset basis and
/// prime. Hash with this class rather than a local loop, so every checksum
/// and key in the project stays in one dialect.
class Fnv1a {
public:
  void byte(uint8_t B) {
    H ^= B;
    H *= 1099511628211ull;
  }
  void bytes(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Len; ++I)
      byte(P[I]);
  }
  /// Hashes the 8 little-endian bytes of \p V (the project's "word" idiom).
  void word(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      byte(static_cast<uint8_t>((V >> (8 * I)) & 0xff));
  }
  void str(const std::string &S) { bytes(S.data(), S.size()); }
  uint64_t get() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

/// One-shot convenience over Fnv1a.
inline uint64_t fnv1a(const void *Data, size_t Len) {
  Fnv1a H;
  H.bytes(Data, Len);
  return H.get();
}
inline uint64_t fnv1a(const std::string &S) { return fnv1a(S.data(), S.size()); }

/// Appends fixed-width little-endian fields to an owned byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { appendLE(V, 4); }
  void u64(uint64_t V) { appendLE(V, 8); }
  void i64(int64_t V) { appendLE(static_cast<uint64_t>(V), 8); }
  void b(bool V) { u8(V ? 1 : 0); }
  void d(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    Buf.append(S.data(), S.size());
  }

  const std::string &buffer() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  void appendLE(uint64_t V, int Bytes) {
    for (int I = 0; I != Bytes; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }

  std::string Buf;
};

/// Consumes ByteWriter output. Every read is bounds-checked; the first
/// failure is sticky (all later reads return zero values) and recorded in
/// ok(). A reader that ends with ok() && atEnd() consumed a well-formed
/// buffer exactly.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Len)
      : P(static_cast<const unsigned char *>(Data)), Remaining(Len) {}
  explicit ByteReader(const std::string &S) : ByteReader(S.data(), S.size()) {}

  uint8_t u8() {
    if (!take(1))
      return 0;
    return P[-1];
  }
  uint32_t u32() { return static_cast<uint32_t>(readLE(4)); }
  uint64_t u64() { return readLE(8); }
  int64_t i64() { return static_cast<int64_t>(readLE(8)); }
  bool b() { return u8() != 0; }
  double d() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t Len = u64();
    // A corrupt length must not trigger a giant allocation: validate against
    // the bytes that actually remain before touching memory.
    if (Len > Remaining) {
      Failed = true;
      Remaining = 0;
      return std::string();
    }
    if (!take(static_cast<size_t>(Len)))
      return std::string();
    return std::string(reinterpret_cast<const char *>(P - Len),
                       static_cast<size_t>(Len));
  }
  /// Bounds-check for caller-side loops: true when \p Count items of at
  /// least \p MinBytesEach more bytes could still be present. Guards
  /// vector.reserve() against lying element counts.
  bool canHold(uint64_t Count, uint64_t MinBytesEach) {
    if (MinBytesEach != 0 && Count > Remaining / MinBytesEach) {
      Failed = true;
      Remaining = 0;
      return false;
    }
    return true;
  }

  bool ok() const { return !Failed; }
  bool atEnd() const { return Remaining == 0; }
  size_t remaining() const { return Remaining; }

private:
  bool take(size_t N) {
    if (Failed || N > Remaining) {
      Failed = true;
      Remaining = 0;
      return false;
    }
    P += N;
    Remaining -= N;
    return true;
  }
  uint64_t readLE(int Bytes) {
    if (!take(static_cast<size_t>(Bytes)))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != Bytes; ++I)
      V |= static_cast<uint64_t>(P[I - Bytes]) << (8 * I);
    return V;
  }

  const unsigned char *P;
  size_t Remaining;
  bool Failed = false;
};

} // namespace bsched

#endif // BALSCHED_SUPPORT_SERIALIZE_H
