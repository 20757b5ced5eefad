#include "trace/trace_writer.hpp"

#include <algorithm>

#include "engine/bits.hpp"

namespace dbi::trace {
namespace {

/// The first `len` (< 8) bytes at `p` as a little-endian u64.
std::uint64_t load_partial(const std::uint8_t* p, std::size_t len) {
  std::uint64_t v = 0;
  for (std::size_t k = 0; k < len; ++k)
    v |= static_cast<std::uint64_t>(p[k]) << (8 * k);
  return v;
}

/// Sums the set bits of many words. The library targets baseline
/// x86-64, where std::popcount is a library call; here each word's
/// per-byte counts (SWAR) add up in byte lanes, folded into the total
/// every 31 words, before a lane (at most 8 per word) could overflow.
class BitTally {
 public:
  void add(std::uint64_t v) {
    lanes_ += dbi::engine::byte_popcount(v);
    if (++pending_ == 31) fold();
  }

  [[nodiscard]] std::int64_t total() {
    fold();
    return total_;
  }

 private:
  void fold() {
    const std::uint64_t pairs = (lanes_ & 0x00FF00FF00FF00FFULL) +
                                ((lanes_ >> 8) & 0x00FF00FF00FF00FFULL);
    total_ += static_cast<std::int64_t>((pairs * 0x0001000100010001ULL) >> 48);
    lanes_ = 0;
    pending_ = 0;
  }

  std::uint64_t lanes_ = 0;
  int pending_ = 0;
  std::int64_t total_ = 0;
};

/// push_back-based append of the 4-byte magics: gcc 12's
/// -Wstringop-overflow misfires on vector::insert from small constant
/// arrays (same family as the -Wrestrict workaround in netlist/export).
void put_magic(std::vector<std::uint8_t>& out, const std::uint8_t (&m)[4]) {
  for (const std::uint8_t b : m) out.push_back(b);
}

}  // namespace

void TraceWriterOptions::validate() const {
  if (bursts_per_chunk < 1)
    throw std::invalid_argument("TraceWriterOptions: bursts_per_chunk >= 1");
  if (!encoded && (enc_scheme != 0 || enc_lanes != 0 || enc_policy != 0))
    throw std::invalid_argument(
        "TraceWriterOptions: encode metadata (enc_scheme / enc_lanes / "
        "enc_policy) requires encoded = true");
  if (!encoded && per_chunk_schemes)
    throw std::invalid_argument(
        "TraceWriterOptions: per_chunk_schemes (mixed-scheme v3 trace) "
        "requires encoded = true");
  if (per_chunk_schemes) {
    if (enc_scheme != 0 && enc_scheme != kEncSchemeMixed)
      throw std::invalid_argument(
          "TraceWriterOptions: a mixed-scheme trace records its schemes "
          "per chunk; enc_scheme must be left 0 (the writer stamps the "
          "0xFF sentinel)");
  } else if (enc_scheme > 7) {
    throw std::invalid_argument(
        "TraceWriterOptions: enc_scheme must be 0 (not recorded) or "
        "1 + Scheme enum value (<= 7)");
  }
  if (enc_policy > 1)
    throw std::invalid_argument(
        "TraceWriterOptions: enc_policy must be 0 (threaded) or 1 (reset)");
}

TraceWriter::TraceWriter(std::ostream& os, const dbi::Geometry& geometry,
                         const TraceWriterOptions& opt)
    : geometry_(geometry), opt_(opt), os_(&os) {
  init();
}

TraceWriter::TraceWriter(const std::string& path,
                         const dbi::Geometry& geometry,
                         const TraceWriterOptions& opt)
    : geometry_(geometry),
      opt_(opt),
      owned_os_(std::make_unique<std::ofstream>(
          path, std::ios::binary | std::ios::trunc)),
      os_(owned_os_.get()) {
  if (!*owned_os_)
    throw TraceError("TraceWriter: cannot open " + path + " for writing");
  init();
}

void TraceWriter::init() {
  geometry_.validate();
  opt_.validate();
  // The chunk header stores the payload size as a u32; compression only
  // ever shrinks a kept payload, so bounding the raw chunk bounds both.
  const std::uint64_t max_chunk_bytes =
      static_cast<std::uint64_t>(opt_.bursts_per_chunk) *
      std::max<std::uint64_t>(
          static_cast<std::uint64_t>(bytes_per_burst()),
          opt_.encoded ? static_cast<std::uint64_t>(geometry_.groups()) *
                             kMaskBytesPerBurst
                       : 0);
  if (max_chunk_bytes > 0xFFFFFFFFULL)
    throw std::invalid_argument(
        "TraceWriter: bursts_per_chunk * bytes_per_burst exceeds the u32 "
        "chunk payload size field");
  pending_.reserve(static_cast<std::size_t>(opt_.bursts_per_chunk) *
                   bytes_per_burst());
  // Beat byte k of a group's all-ones line values: the narrow group's
  // mask byte k, or wide group k's mask.
  for (int k = 0; k < geometry_.bytes_per_beat(); ++k)
    boundary_[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(
        geometry_.is_wide() ? geometry_.group_config(k).dq_mask()
                            : geometry_.bus().dq_mask() >> (8 * k));

  std::vector<std::uint8_t> header;
  put_magic(header, kFileMagic);
  // Version 3 marks ONLY mixed-scheme traces; everything else stays a
  // byte-identical version-2 file.
  header.push_back(opt_.per_chunk_schemes ? kFormatVersionMixed
                                          : kFormatVersion);
  header.push_back(kLittleEndianTag);
  put_le(header, static_cast<std::uint64_t>(geometry_.width()), 2);
  put_le(header, static_cast<std::uint64_t>(geometry_.burst_length()), 2);
  put_le(header,
         (opt_.compress ? kFileFlagCompressed : 0) |
             (opt_.encoded ? kFileFlagEncoded : 0),
         2);
  put_le(header, opt_.bursts_per_chunk, 4);
  // Byte 16: DBI group count; single-group files keep the legacy
  // reserved zero, so they stay byte-identical to pre-wide writers.
  header.push_back(geometry_.is_wide()
                       ? static_cast<std::uint8_t>(geometry_.groups())
                       : std::uint8_t{0});
  // Bytes 17..20: encode metadata (zero for plain payload traces, so
  // those stay byte-identical to pre-encoded writers). Mixed traces
  // stamp the per-chunk sentinel.
  header.push_back(opt_.per_chunk_schemes ? kEncSchemeMixed
                                          : opt_.enc_scheme);
  put_le(header, opt_.enc_lanes, 2);
  header.push_back(opt_.enc_policy);
  header.resize(kHeaderBytes, 0);
  emit(header);
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructors must not throw; call finish() explicitly to observe
    // write errors.
  }
}

void TraceWriter::emit(std::span<const std::uint8_t> bytes) {
  crc_.update(bytes);
  os_->write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!*os_) throw TraceError("TraceWriter: write failed");
}

void TraceWriter::write(const dbi::Burst& burst) {
  if (geometry_.is_wide() || !(burst.config() == geometry_.bus()))
    throw std::invalid_argument("TraceWriter: burst geometry mismatch");
  write_words(burst.words());
}

void TraceWriter::validate(std::span<const std::uint8_t> bytes) const {
  // Only a group narrower than its bytes can hold an out-of-range
  // beat: the top byte of a narrow beat word, the remainder group of a
  // wide beat. Every other byte fits by construction.
  if (geometry_.width() % 8 == 0) return;
  const auto step = static_cast<std::size_t>(geometry_.bytes_per_beat());
  const std::size_t bb = bytes_per_burst();
  const std::uint8_t* p = bytes.data();
  for (std::size_t k = 0; k < bytes.size(); k += step) {
    unsigned bad = 0;
    for (std::size_t j = 0; j < step; ++j)
      bad |= static_cast<unsigned>(p[k + j] & ~boundary_[j]);
    if (bad == 0) continue;
    // Narrow beats are one group; wide beats carry group g in byte g,
    // and only the last (remainder) group can overflow.
    const int g = geometry_.is_wide() ? geometry_.groups() - 1 : 0;
    throw std::invalid_argument(
        "TraceWriter::write_packed: burst " + std::to_string(k / bb) +
        " beat " + std::to_string(k % bb / step) +
        ": word does not fit the width-" +
        std::to_string(geometry_.group_config(g).width) + " group " +
        std::to_string(g));
  }
}

void TraceWriter::account(std::span<const std::uint8_t> bytes) {
  // Zeros are the width's lines minus the ones (validated beats hold no
  // bits above their group). Raw transitions compare each beat byte
  // with the same byte one beat earlier, and the burst's first beat
  // with the all-ones boundary: eight bytes at a time, the word against
  // the word `step` bytes before it, or for the burst's first word
  // against itself shifted one beat with the boundary shifted in.
  const auto step = static_cast<std::size_t>(geometry_.bytes_per_beat());
  const std::size_t bb = bytes_per_burst();
  const std::uint64_t boundary = load_le64(boundary_.data());
  BitTally ones;
  BitTally toggles;
  for (std::size_t b = 0; b < bytes.size(); b += bb) {
    const std::uint8_t* f = bytes.data() + b;
    for (std::size_t k = 0; k < bb; k += 8) {
      // The burst's last word may be short: load and compare only the
      // bytes that belong to it.
      const std::size_t len = std::min<std::size_t>(8, bb - k);
      const std::uint64_t cur =
          len == 8 ? load_le64(f + k) : load_partial(f + k, len);
      std::uint64_t prev;
      if (k == 0)
        prev = step == 8 ? boundary : (cur << (8 * step)) | boundary;
      else
        prev = len == 8 ? load_le64(f + k - step)
                        : load_partial(f + k - step, len);
      if (len < 8) prev &= (std::uint64_t{1} << (8 * len)) - 1;
      ones.add(cur);
      toggles.add(cur ^ prev);
    }
  }
  const auto bursts = static_cast<std::int64_t>(bytes.size() / bb);
  const std::int64_t bits = static_cast<std::int64_t>(geometry_.width()) *
                            geometry_.burst_length() * bursts;
  stats_.bursts += bursts;
  stats_.payload_bits += bits;
  stats_.payload_zeros += bits - ones.total();
  stats_.raw_transitions += toggles.total();
}

void TraceWriter::write_packed(std::span<const std::uint8_t> bytes) {
  if (opt_.encoded)
    throw std::invalid_argument(
        "TraceWriter: encoded traces take write_encoded(bytes, masks), "
        "not write_packed");
  append_packed(bytes, nullptr);
}

void TraceWriter::write_encoded(std::span<const std::uint8_t> bytes,
                                std::span<const std::uint64_t> masks) {
  if (!opt_.encoded)
    throw std::invalid_argument(
        "TraceWriter: write_encoded needs TraceWriterOptions::encoded");
  const std::size_t bb = bytes_per_burst();
  if (bb != 0 && bytes.size() % bb != 0)
    throw std::invalid_argument(
        "TraceWriter::write_encoded: payload of " +
        std::to_string(bytes.size()) + " bytes is not a multiple of the " +
        std::to_string(bb) + "-byte packed burst");
  const std::size_t bursts = bytes.size() / bb;
  const auto groups = static_cast<std::size_t>(geometry_.groups());
  if (masks.size() != bursts * groups)
    throw std::invalid_argument(
        "TraceWriter::write_encoded: " + std::to_string(bursts) +
        " bursts of " + std::to_string(groups) + " DBI groups need " +
        std::to_string(bursts * groups) + " masks, got " +
        std::to_string(masks.size()));
  const int bl = geometry_.burst_length();
  if (bl < 64) {
    for (std::size_t i = 0; i < masks.size(); ++i)
      if ((masks[i] >> bl) != 0)
        throw std::invalid_argument(
            "TraceWriter::write_encoded: burst " +
            std::to_string(i / groups) + " group " +
            std::to_string(i % groups) +
            ": inversion mask has bits beyond burst length " +
            std::to_string(bl));
  }
  append_packed(bytes, masks.data());
}

void TraceWriter::set_chunk_scheme(dbi::Scheme scheme) {
  if (!opt_.per_chunk_schemes)
    throw std::invalid_argument(
        "TraceWriter::set_chunk_scheme: the writer was not opened with "
        "per_chunk_schemes (mixed-scheme v3 mode)");
  if (finished_) throw TraceError("TraceWriter: already finished");
  if (chunk_scheme_ && *chunk_scheme_ != scheme) flush_chunk();
  chunk_scheme_ = scheme;
}

void TraceWriter::append_packed(std::span<const std::uint8_t> bytes,
                                const std::uint64_t* masks) {
  if (finished_) throw TraceError("TraceWriter: already finished");
  if (opt_.per_chunk_schemes && !chunk_scheme_)
    throw std::invalid_argument(
        "TraceWriter: a mixed-scheme trace needs set_chunk_scheme() "
        "before its first burst");
  const std::size_t bb = bytes_per_burst();
  if (bytes.size() % bb != 0)
    throw std::invalid_argument(
        "TraceWriter::write_packed: payload of " +
        std::to_string(bytes.size()) + " bytes is not a multiple of the " +
        std::to_string(bb) + "-byte packed burst");
  // All or nothing: a rejected span leaves the stats and the open chunk
  // as they were.
  validate(bytes);
  const auto groups = static_cast<std::size_t>(geometry_.groups());
  std::size_t done = 0;  // bursts appended so far
  const std::size_t total = bytes.size() / bb;
  while (done < total) {
    // The part of the span that fits the open chunk.
    const std::size_t take =
        std::min<std::size_t>(total - done,
                              opt_.bursts_per_chunk - pending_bursts_);
    const auto part = bytes.subspan(done * bb, take * bb);
    account(part);
    pending_.insert(pending_.end(), part.begin(), part.end());
    if (masks)
      for (const std::uint64_t m :
           std::span<const std::uint64_t>(masks + done * groups,
                                          take * groups))
        put_le(pending_masks_, m, static_cast<int>(kMaskBytesPerBurst));
    done += take;
    pending_bursts_ += static_cast<std::uint32_t>(take);
    if (pending_bursts_ == opt_.bursts_per_chunk) flush_chunk();
  }
}

void TraceWriter::write_words(std::span<const dbi::Word> words) {
  if (opt_.encoded)
    throw std::invalid_argument(
        "TraceWriter: encoded traces take write_encoded(bytes, masks), "
        "not Burst words");
  if (geometry_.is_wide())
    throw std::invalid_argument(
        "TraceWriter: wide traces take write_packed(), not Burst words");
  const dbi::BusConfig cfg = geometry_.bus();
  const auto bl = static_cast<std::size_t>(cfg.burst_length);
  if (words.size() % bl != 0)
    throw std::invalid_argument(
        "TraceWriter: word count not a multiple of burst_length");
  const dbi::Word mask = cfg.dq_mask();
  for (const dbi::Word w : words)
    if ((w & ~mask) != 0)
      throw std::invalid_argument("TraceWriter: word does not fit width");
  std::uint8_t packed[4 * 64];  // bytes_per_burst() <= 4 * 64
  for (std::size_t i = 0; i < words.size(); i += bl) {
    pack_burst(words.subspan(i, bl), cfg, packed);
    append_packed({packed, bytes_per_burst()}, nullptr);
  }
}

void TraceWriter::emit_chunk(std::uint32_t bursts, std::uint32_t kind_flags,
                             std::span<const std::uint8_t> raw) {
  std::uint32_t flags = kind_flags;
  std::span<const std::uint8_t> payload = raw;
  if (opt_.compress) {
    scratch_.clear();
    rle_compress(raw, scratch_);
    if (scratch_.size() < raw.size()) {
      flags |= kChunkFlagRle;
      payload = scratch_;
    }
  }

  std::vector<std::uint8_t> header;
  put_magic(header, kChunkMagic);
  put_le(header, bursts, 4);
  put_le(header, flags, 4);
  put_le(header, payload.size(), 4);
  emit(header);
  emit(payload);
}

void TraceWriter::flush_chunk() {
  if (pending_bursts_ == 0) return;

  std::uint32_t payload_flags = 0;
  if (opt_.per_chunk_schemes)
    payload_flags = chunk_scheme_flags(
        static_cast<std::uint8_t>(1 + static_cast<int>(*chunk_scheme_)));
  emit_chunk(pending_bursts_, payload_flags, pending_);
  // The mask-stream chunk rides directly behind its payload chunk; it
  // is not counted in chunks_ (the footer describes the payload stream).
  if (opt_.encoded) {
    emit_chunk(pending_bursts_, kChunkFlagMask, pending_masks_);
    pending_masks_.clear();
  }

  ++chunks_;
  pending_.clear();
  pending_bursts_ = 0;
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_chunk();

  std::vector<std::uint8_t> footer;
  put_magic(footer, kFooterMagic);
  put_le(footer, 0, 4);
  put_le(footer, chunks_, 8);
  put_le(footer, static_cast<std::uint64_t>(stats_.bursts), 8);
  put_le(footer, static_cast<std::uint64_t>(stats_.payload_bits), 8);
  put_le(footer, static_cast<std::uint64_t>(stats_.payload_zeros), 8);
  put_le(footer, static_cast<std::uint64_t>(stats_.raw_transitions), 8);
  put_le(footer, 0, 8);
  emit(footer);

  // The CRC seals everything before it, including the footer stats.
  std::vector<std::uint8_t> tail;
  put_le(tail, crc_.value(), 4);
  put_magic(tail, kEndMagic);
  os_->write(reinterpret_cast<const char*>(tail.data()),
             static_cast<std::streamsize>(tail.size()));
  os_->flush();
  if (!*os_) throw TraceError("TraceWriter: write failed");
  finished_ = true;
}

}  // namespace dbi::trace
