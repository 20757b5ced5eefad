// libFuzzer target: arbitrary bytes into TraceReader. The parser's
// contract is "reject with TraceError or parse correctly, never UB" —
// ASan/UBSan turn any violation (overread, lying chunk index, huge
// decompression, unpaired mask rider) into a crash. CRC verification
// is off so the structural validators themselves are exercised rather
// than a checksum front door; the CRC path is covered by unit tests.
// Every chunk payload the reader expands also goes back through the
// compressor: rle_decompress(rle_compress(p)) must give p back, so the
// word-scanning compressor is fuzzed against the decoder on whatever
// bytes hostile files decode to.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "trace/format.hpp"
#include "trace/trace_reader.hpp"

namespace {

/// Aborts unless `payload` compresses and decodes back to itself (a
/// TraceError here is a find too: the input is the compressor's own).
void check_rle_round_trip(std::span<const std::uint8_t> payload,
                          std::vector<std::uint8_t>& packed,
                          std::vector<std::uint8_t>& unpacked) {
  packed.clear();
  dbi::trace::rle_compress(payload, packed);
  unpacked.assign(payload.size(), 0);
  try {
    dbi::trace::rle_decompress(packed, unpacked);
  } catch (const dbi::trace::TraceError& e) {
    std::fprintf(stderr,
                 "fuzz_trace_reader: rle_compress output rejected: %s\n",
                 e.what());
    std::abort();
  }
  if (!std::equal(unpacked.begin(), unpacked.end(), payload.begin(),
                  payload.end())) {
    std::fprintf(stderr, "fuzz_trace_reader: RLE round trip is lossy\n");
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<std::uint8_t> image(data, data + size);
  try {
    const auto reader =
        dbi::trace::TraceReader::from_bytes(std::move(image),
                                            /*verify_crc=*/false);
    // Walk every chunk the way replay / Session consumers do: payload
    // views (RLE decompression included) and, for encoded traces, the
    // mask streams.
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint8_t> mask_scratch;
    std::vector<std::uint64_t> mask_words;
    std::vector<std::uint8_t> packed;
    std::vector<std::uint8_t> unpacked;
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      check_rle_round_trip(reader.chunk_payload(c, scratch), packed,
                           unpacked);
      if (reader.chunk(c).has_mask()) {
        try {
          (void)reader.chunk_masks(c, mask_scratch, mask_words);
        } catch (const dbi::trace::TraceError&) {
          // Mask tails beyond burst_length reject per chunk.
        }
      }
    }
    // Materialise small plain traces through the legacy view too.
    if (!reader.geometry().is_wide() && !reader.encoded() &&
        reader.bursts() <= 4096)
      (void)reader.to_burst_trace();
  } catch (const dbi::trace::TraceError&) {
    // Every malformed input must land here — anything else is a find.
  }
  return 0;
}
