#include "trace/format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace dbi::trace {

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t ByteReader::le(int n) {
  if (remaining() < static_cast<std::size_t>(n))
    throw TraceError(std::string(what_) + ": truncated (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ")");
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += static_cast<std::size_t>(n);
  return v;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  if (remaining() < n)
    throw TraceError(std::string(what_) + ": truncated (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ")");
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::expect_magic(const std::uint8_t (&magic)[4],
                              std::string_view name) {
  const auto got = bytes(4);
  if (std::memcmp(got.data(), magic, 4) != 0)
    throw TraceError(std::string(what_) + ": bad " + std::string(name) +
                     " magic at offset " + std::to_string(pos_ - 4));
}

// ---------------------------------------------------------------- CRC-32

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte table;
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight table lookups advance the register over one 64-bit word.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFU] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

void Crc32::update(std::span<const std::uint8_t> bytes) {
  const auto& t = kCrcTables;
  std::uint32_t c = state_;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Eight bytes per step: the low four fold into the register, the
  // high four enter through the zero-extended tables.
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo =
        c ^ (static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  state_ = c;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  Crc32 crc;
  crc.update(bytes);
  return crc.value();
}

// ------------------------------------------------------------- zero RLE

namespace {

/// 0x80 in byte k iff byte k of `v` is zero. Exact: (b & 0x7F) + 0x7F
/// never carries out of its byte, so no byte borrows from another.
constexpr std::uint64_t zero_bytes(std::uint64_t v) {
  constexpr std::uint64_t k7F = 0x7F7F7F7F7F7F7F7FULL;
  return ~(((v & k7F) + k7F) | v | k7F);
}

}  // namespace

void rle_compress(std::span<const std::uint8_t> in,
                  std::vector<std::uint8_t>& out) {
  const std::uint8_t* const src = in.data();
  const std::size_t n = in.size();
  // Worst case: a literal token costs one control byte over its bytes,
  // and every literal that is not capped at 128 and does not end the
  // input is followed by a zero run of >= 2 bytes that costs one. So
  // the overhead is at most one byte per capped literal plus one.
  const std::size_t base = out.size();
  out.resize(base + n + n / 128 + 1);
  std::uint8_t* const begin = out.data() + base;
  std::uint8_t* dst = begin;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t limit = std::min(n, i + 128);
    std::size_t j = i + 1;
    if (src[i] == 0) {
      // Zero run: up to the first nonzero byte.
      while (j < limit) {
        if (j + 8 <= n) {
          const std::uint64_t v = load_le64(src + j);
          if (v != 0) {
            j += static_cast<std::size_t>(std::countr_zero(v)) / 8;
            break;
          }
          j += 8;
        } else if (src[j] != 0) {
          break;
        } else {
          ++j;
        }
      }
      const std::size_t run = std::min(j, limit) - i;
      *dst++ = static_cast<std::uint8_t>(0x80U | (run - 1));
      i += run;
    } else {
      // Literal run: stop at a zero pair (or a zero as the last byte)
      // so short isolated zeros don't fragment the stream into
      // one-byte tokens. Bit 8k + 7 of `pairs` is set iff bytes j + k
      // and j + k + 1 are both zero.
      while (j < limit) {
        if (j + 9 <= n) {
          const std::uint64_t pairs = zero_bytes(load_le64(src + j)) &
                                      zero_bytes(load_le64(src + j + 1));
          if (pairs != 0) {
            j += static_cast<std::size_t>(std::countr_zero(pairs)) / 8;
            break;
          }
          j += 8;
        } else if (src[j] == 0 && (j + 1 >= n || src[j + 1] == 0)) {
          break;
        } else {
          ++j;
        }
      }
      const std::size_t run = std::min(j, limit) - i;
      *dst++ = static_cast<std::uint8_t>(run - 1);
      std::memcpy(dst, src + i, run);
      dst += run;
      i += run;
    }
  }
  out.resize(base + static_cast<std::size_t>(dst - begin));
}

void rle_decompress(std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out) {
  // Wildcopy: a run whose length rounded up to kStep still fits inside
  // `out` (and, for a literal, inside `in`) moves in fixed kStep-byte
  // steps. The spill past the run stays inside `out`, and the next
  // token overwrites it; runs near either end take the exact path.
  constexpr std::size_t kStep = 32;
  const std::uint8_t* const src = in.data();
  std::uint8_t* const dst = out.data();
  const std::size_t in_size = in.size();
  const std::size_t out_size = out.size();
  std::size_t ip = 0;
  std::size_t op = 0;
  while (ip < in_size) {
    const std::uint8_t c = src[ip++];
    const std::size_t run = static_cast<std::size_t>(c & 0x7FU) + 1;
    if (run > out_size - op)
      throw TraceError("rle: decoded size exceeds chunk payload size");
    const std::size_t steps = (run + kStep - 1) / kStep;
    const bool out_fits = steps * kStep <= out_size - op;
    if (c & 0x80U) {
      if (out_fits) {
        for (std::size_t k = 0; k < steps; ++k)
          std::memset(dst + op + k * kStep, 0, kStep);
      } else {
        std::memset(dst + op, 0, run);
      }
    } else {
      if (in_size - ip < run) throw TraceError("rle: truncated literal run");
      if (out_fits && steps * kStep <= in_size - ip) {
        for (std::size_t k = 0; k < steps; ++k)
          std::memcpy(dst + op + k * kStep, src + ip + k * kStep, kStep);
      } else {
        std::memcpy(dst + op, src + ip, run);
      }
      ip += run;
    }
    op += run;
  }
  if (op != out_size)
    throw TraceError("rle: decoded size " + std::to_string(op) +
                     " != expected " + std::to_string(out_size));
}

// --------------------------------------------------------------- headers

void validate_header_geometry(int width, int burst_length,
                              std::uint8_t groups) {
  header_geometry(width, burst_length, groups).validate();
  // A wide file's group count is derived from the width, so a
  // mismatching byte means corruption.
  const int byte_groups = (width + 7) / 8;
  if (groups != 0 && groups != byte_groups)
    throw std::invalid_argument(
        "dbi_groups byte " + std::to_string(groups) + " does not match width " +
        std::to_string(width) + " (" + std::to_string(byte_groups) +
        " byte groups)");
}

TraceHeader parse_header(std::span<const std::uint8_t> bytes) {
  TraceHeader h;
  ByteReader hdr(bytes, "trace header");
  hdr.expect_magic(kFileMagic, "file");
  const auto version = static_cast<std::uint8_t>(hdr.le(1));
  if (version != kFormatVersion && version != kFormatVersionMixed)
    throw TraceError("trace: unsupported version " + std::to_string(version));
  h.version = version;
  const auto endianness = static_cast<std::uint8_t>(hdr.le(1));
  if (endianness != kLittleEndianTag)
    throw TraceError("trace: unsupported endianness tag " +
                     std::to_string(endianness));
  h.cfg.width = static_cast<int>(hdr.le(2));
  h.cfg.burst_length = static_cast<int>(hdr.le(2));
  h.flags = static_cast<std::uint16_t>(hdr.le(2));
  h.bursts_per_chunk = static_cast<std::uint32_t>(hdr.le(4));
  h.groups = static_cast<std::uint8_t>(hdr.le(1));
  h.enc_scheme = static_cast<std::uint8_t>(hdr.le(1));
  h.enc_lanes = static_cast<std::uint16_t>(hdr.le(2));
  h.enc_policy = static_cast<std::uint8_t>(hdr.le(1));
  if (!h.encoded() &&
      (h.enc_scheme != 0 || h.enc_lanes != 0 || h.enc_policy != 0))
    throw TraceError(
        "trace: encode metadata set in a trace without the encoded flag");
  if (version == kFormatVersionMixed) {
    // Version 3 exists only for mixed-scheme encoded traces: it must
    // carry the per-chunk sentinel, and every payload chunk its tag.
    if (!h.encoded() || h.enc_scheme != kEncSchemeMixed)
      throw TraceError(
          "trace: a version-3 file must be an encoded mixed-scheme trace "
          "(enc_scheme = 0xFF)");
  } else if (h.enc_scheme > 7) {
    throw TraceError("trace: encode scheme tag " +
                     std::to_string(h.enc_scheme) + " out of range");
  }
  if (h.enc_policy > 1)
    throw TraceError("trace: encode state-policy byte " +
                     std::to_string(h.enc_policy) + " out of range");
  try {
    validate_header_geometry(h.cfg.width, h.cfg.burst_length, h.groups);
  } catch (const std::invalid_argument& e) {
    throw TraceError(std::string("trace: bad geometry: ") + e.what());
  }
  if (h.bursts_per_chunk < 1)
    throw TraceError("trace: bursts_per_chunk must be >= 1");

  return h;
}

// ----------------------------------------------------- beat word packing

void pack_burst(std::span<const dbi::Word> words, const dbi::BusConfig& cfg,
                std::uint8_t* out) {
  const int bpb = cfg.bytes_per_beat();
  for (const dbi::Word w : words) {
    for (int i = 0; i < bpb; ++i)
      *out++ = static_cast<std::uint8_t>(w >> (8 * i));
  }
}

void unpack_burst(const std::uint8_t* in, const dbi::BusConfig& cfg,
                  std::span<dbi::Word> words) {
  const int bpb = cfg.bytes_per_beat();
  const dbi::Word mask = cfg.dq_mask();
  for (dbi::Word& w : words) {
    dbi::Word v = 0;
    for (int i = 0; i < bpb; ++i)
      v |= static_cast<dbi::Word>(*in++) << (8 * i);
    if ((v & ~mask) != 0)
      throw TraceError("trace payload: beat word exceeds width-" +
                       std::to_string(cfg.width) + " mask");
    w = v;
  }
}

}  // namespace dbi::trace
