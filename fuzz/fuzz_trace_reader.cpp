// libFuzzer target: arbitrary bytes into TraceReader. The parser's
// contract is "reject with TraceError or parse correctly, never UB" —
// ASan/UBSan turn any violation (overread, lying chunk index, huge
// decompression, unpaired mask rider) into a crash. CRC verification
// is off so the structural validators themselves are exercised rather
// than a checksum front door; the CRC path is covered by unit tests.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_reader.hpp"

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
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      (void)reader.chunk_payload(c, scratch);
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
