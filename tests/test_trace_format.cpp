// Binary trace format v2: write -> mmap-read round trips, RLE, CRC,
// and rejection of corrupted / truncated files.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "trace/convert.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace dbi::trace {
namespace {

std::vector<std::uint8_t> write_to_bytes(const workload::BurstTrace& trace,
                                         const TraceWriterOptions& opt = {}) {
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, trace.config(), opt);
  for (const Burst& b : trace.bursts()) writer.write(b);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

workload::BurstTrace random_trace(const BusConfig& cfg, std::int64_t n,
                                  std::uint64_t seed) {
  auto src = workload::make_uniform_source(cfg, seed);
  return workload::BurstTrace::collect(*src, n);
}

void expect_equal(const workload::BurstTrace& a,
                  const workload::BurstTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.config(), b.config());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(TraceFormat, RoundTripsRandomTracesAcrossGeometries) {
  for (const BusConfig cfg :
       {BusConfig{8, 8}, BusConfig{1, 1}, BusConfig{5, 3}, BusConfig{8, 64},
        BusConfig{16, 8}, BusConfig{32, 16}}) {
    const auto trace = random_trace(cfg, 300, 11 + cfg.width);
    TraceWriterOptions opt;
    opt.bursts_per_chunk = 64;  // force several chunks
    const auto image = write_to_bytes(trace, opt);
    const auto reader = TraceReader::from_bytes(image);
    EXPECT_EQ(reader.geometry().bus(), cfg);
    EXPECT_EQ(reader.bursts(), 300);
    EXPECT_GE(reader.chunk_count(), 4u);
    expect_equal(reader.to_burst_trace(), trace);
  }
}

TEST(TraceFormat, FooterStatsMatchInMemoryStats) {
  const auto trace = random_trace(BusConfig{8, 8}, 500, 3);
  const auto reader = TraceReader::from_bytes(write_to_bytes(trace));
  const workload::TraceStats want = trace.stats();
  const workload::TraceStats& got = reader.stats();
  EXPECT_EQ(got.bursts, want.bursts);
  EXPECT_EQ(got.payload_bits, want.payload_bits);
  EXPECT_EQ(got.payload_zeros, want.payload_zeros);
  EXPECT_EQ(got.raw_transitions, want.raw_transitions);
}

TEST(TraceFormat, SparseTracesCompressAndRoundTrip) {
  const BusConfig cfg{8, 8};
  auto src = workload::make_sparse_source(cfg, 0.9, 5);
  const auto trace = workload::BurstTrace::collect(*src, 1000);
  const auto compressed = write_to_bytes(trace);
  TraceWriterOptions raw_opt;
  raw_opt.compress = false;
  const auto raw = write_to_bytes(trace, raw_opt);

  EXPECT_LT(compressed.size(), raw.size() / 2);
  const auto reader = TraceReader::from_bytes(compressed);
  ASSERT_GE(reader.chunk_count(), 1u);
  EXPECT_TRUE(reader.chunk(0).compressed());
  expect_equal(reader.to_burst_trace(), trace);
  expect_equal(TraceReader::from_bytes(raw).to_burst_trace(), trace);
}

TEST(TraceFormat, EmptyTraceRoundTrips) {
  const workload::BurstTrace trace(BusConfig{8, 8});
  const auto reader = TraceReader::from_bytes(write_to_bytes(trace));
  EXPECT_EQ(reader.bursts(), 0);
  EXPECT_EQ(reader.chunk_count(), 0u);
  EXPECT_TRUE(reader.to_burst_trace().empty());
}

TEST(TraceFormat, MmapAndInMemoryReadsAgree) {
  const auto trace = random_trace(BusConfig{8, 8}, 200, 17);
  const auto image = write_to_bytes(trace);
  const std::string path =
      ::testing::TempDir() + "/test_trace_format_roundtrip.dbt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    ASSERT_TRUE(out.good());
  }
  const auto reader = TraceReader::open(path);
  expect_equal(reader.to_burst_trace(), trace);
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsFlippedBytesEverywhere) {
  const auto trace = random_trace(BusConfig{8, 8}, 64, 29);
  const auto image = write_to_bytes(trace);
  // Flip one byte at a spread of offsets: header, chunk header, payload,
  // footer. Every flip must be rejected (CRC or structural check).
  for (const std::size_t off :
       {std::size_t{0}, std::size_t{5}, std::size_t{7}, kHeaderBytes,
        kHeaderBytes + 4, kHeaderBytes + kChunkHeaderBytes + 3,
        image.size() - kFooterBytes + 1, image.size() - 10,
        image.size() - 1}) {
    auto corrupt = image;
    corrupt[off] ^= 0x40U;
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(corrupt)),
                 TraceError)
        << "offset " << off;
  }
}

TEST(TraceFormat, RejectsTruncationEverywhere) {
  const auto trace = random_trace(BusConfig{8, 8}, 64, 31);
  const auto image = write_to_bytes(trace);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, kHeaderBytes - 1, kHeaderBytes,
        kHeaderBytes + kChunkHeaderBytes + 5, image.size() - kFooterBytes,
        image.size() - 4, image.size() - 1}) {
    auto truncated = image;
    truncated.resize(keep);
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(truncated)),
                 TraceError)
        << "keep " << keep;
  }
}

TEST(TraceFormat, RejectsBadGeometryAndVersion) {
  const auto trace = random_trace(BusConfig{8, 8}, 4, 37);
  const auto image = write_to_bytes(trace);
  {
    auto bad = image;
    bad[4] = 1;  // version
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad)), TraceError);
  }
  {
    auto bad = image;
    bad[5] = 2;  // endianness tag
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad)), TraceError);
  }
  {
    auto bad = image;
    bad[6] = 77;  // width out of range
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad)), TraceError);
  }
}

// --------------------------------------------------- wide trace extension

std::vector<std::uint8_t> wide_bytes(const WideBusConfig& cfg, int bursts,
                                     std::uint8_t fill) {
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(bursts) *
          static_cast<std::size_t>(cfg.bytes_per_burst()),
      fill);
  const auto groups = static_cast<std::size_t>(cfg.groups());
  const Word last_mask = cfg.group_config(cfg.groups() - 1).dq_mask();
  for (std::size_t i = groups - 1; i < bytes.size(); i += groups)
    bytes[i] &= static_cast<std::uint8_t>(last_mask);
  return bytes;
}

std::vector<std::uint8_t> write_wide_to_bytes(
    const WideBusConfig& cfg, std::span<const std::uint8_t> payload,
    const TraceWriterOptions& opt = {}) {
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, cfg, opt);
  writer.write_packed(payload);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

TEST(TraceFormat, WideHeaderRoundTripsAndPayloadSurvives) {
  for (const WideBusConfig cfg :
       {WideBusConfig{16, 8}, WideBusConfig{12, 6}, WideBusConfig{64, 8}}) {
    const auto payload = wide_bytes(cfg, 100, 0x5A);
    TraceWriterOptions opt;
    opt.bursts_per_chunk = 32;  // several chunks
    const auto image = write_wide_to_bytes(cfg, payload, opt);
    EXPECT_EQ(image[16], static_cast<std::uint8_t>(cfg.groups()))
        << "header byte 16 carries the group count";

    const auto reader = TraceReader::from_bytes(image);
    EXPECT_TRUE(reader.geometry().is_wide());
    EXPECT_EQ(reader.header().groups, cfg.groups());
    EXPECT_EQ(reader.geometry(), cfg);
    EXPECT_EQ(reader.geometry().bytes_per_burst(), cfg.bytes_per_burst());
    EXPECT_EQ(reader.bursts(), 100);

    // The chunk payloads concatenate back to the exact input bytes
    // (zero-run RLE round trips losslessly).
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint8_t> got;
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      const auto view = reader.chunk_payload(c, scratch);
      got.insert(got.end(), view.begin(), view.end());
    }
    EXPECT_EQ(got, payload);
  }
}

TEST(TraceFormat, WideFooterStatsMatchDirectAccounting) {
  const WideBusConfig cfg{12, 8};
  std::vector<std::uint8_t> payload = wide_bytes(cfg, 64, 0xFF);
  // Mix in structure so zeros and transitions are non-trivial.
  for (std::size_t i = 0; i < payload.size(); i += 3) payload[i] = 0;
  for (std::size_t i = cfg.groups() - 1; i < payload.size();
       i += static_cast<std::size_t>(cfg.groups()))
    payload[i] &= 0x0FU;
  const auto reader =
      TraceReader::from_bytes(write_wide_to_bytes(cfg, payload));

  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
  const int groups = cfg.groups();
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  for (std::size_t j = 0; j * bb < payload.size(); ++j) {
    for (int g = 0; g < groups; ++g) {
      const int gw = cfg.group_width(g);
      const Word gmask = cfg.group_config(g).dq_mask();
      Word last = gmask;  // all-ones boundary per burst
      for (int t = 0; t < cfg.burst_length; ++t) {
        const Word b =
            payload[j * bb + static_cast<std::size_t>(t * groups + g)];
        zeros += gw - std::popcount(b);
        transitions += std::popcount((last ^ b) & gmask);
        last = b;
      }
    }
  }
  EXPECT_EQ(reader.stats().payload_zeros, zeros);
  EXPECT_EQ(reader.stats().raw_transitions, transitions);
  EXPECT_EQ(reader.stats().payload_bits,
            static_cast<std::int64_t>(64) * cfg.width * cfg.burst_length);
}

TEST(TraceFormat, SingleGroupFilesKeepReservedZeroGroupsByte) {
  const auto image = write_to_bytes(random_trace(BusConfig{16, 8}, 10, 2));
  EXPECT_EQ(image[16], 0) << "legacy single-group layout must not change";
  const auto reader = TraceReader::from_bytes(image);
  EXPECT_FALSE(reader.geometry().is_wide());
}

TEST(TraceFormat, RejectsCorruptWideGeometry) {
  const WideBusConfig cfg{16, 8};
  const auto image = write_wide_to_bytes(cfg, wide_bytes(cfg, 8, 0x11));
  {
    auto bad = image;
    bad[16] = 5;  // width 16 has 2 groups, not 5
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad), false),
                 TraceError);
  }
  {
    auto bad = image;
    bad[6] = 65;  // wide width out of range
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad), false),
                 TraceError);
  }
  {
    // Clearing the groups byte of a width-24 wide trace reinterprets it
    // as single-group (4 bytes per beat, not 3): the chunk payload
    // sizes no longer match and the reader must say so.
    const WideBusConfig x24{24, 8};
    auto bad = write_wide_to_bytes(x24, wide_bytes(x24, 8, 0x33));
    bad[16] = 0;
    EXPECT_THROW((void)TraceReader::from_bytes(std::move(bad), false),
                 TraceError);
  }
}

TEST(TraceFormat, WideTracesHaveNoSingleGroupViews) {
  const WideBusConfig cfg{24, 4};
  const auto reader =
      TraceReader::from_bytes(write_wide_to_bytes(cfg, wide_bytes(cfg, 4, 7)));
  EXPECT_THROW((void)reader.to_burst_trace(), TraceError);
  std::vector<Word> words(4);
  std::vector<std::uint8_t> scratch;
  const auto payload = reader.chunk_payload(0, scratch);
  EXPECT_THROW(reader.unpack_burst_at(payload, 0, words), TraceError);
  std::ostringstream text;
  EXPECT_THROW(binary_to_text(reader, text), TraceError);
}

TEST(TraceFormat, WideWriterRejectsMisuse) {
  const WideBusConfig cfg{12, 4};
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, cfg);
  EXPECT_TRUE(writer.geometry().is_wide());
  // Burst-based writes are single-group only.
  EXPECT_THROW(writer.write(Burst(BusConfig{12, 4})), std::invalid_argument);
  const std::vector<Word> words(4, 0);
  EXPECT_THROW(writer.write_words(words), std::invalid_argument);
  // Payload size and remainder-group range are validated per burst.
  const std::vector<std::uint8_t> short_bytes(7, 0);
  EXPECT_THROW(writer.write_packed(short_bytes), std::invalid_argument);
  std::vector<std::uint8_t> overflow(
      static_cast<std::size_t>(cfg.bytes_per_burst()), 0);
  overflow[1] = 0x20;  // beat 0, group 1: 4-lane group takes 0x0..0xF
  EXPECT_THROW(writer.write_packed(overflow), std::invalid_argument);
}

TEST(TraceFormat, OpenRejectsMissingFile) {
  EXPECT_THROW((void)TraceReader::open("/nonexistent/trace.dbt"), TraceError);
}

TEST(TraceFormat, WriterRejectsMisuse) {
  std::ostringstream os(std::ios::binary);
  TraceWriter writer(os, BusConfig{8, 8});
  EXPECT_THROW(writer.write(Burst(BusConfig{8, 4})), std::invalid_argument);
  const std::vector<Word> three(3, 0);
  EXPECT_THROW(writer.write_words(three), std::invalid_argument);
  const std::vector<Word> big(8, 0x1FF);
  EXPECT_THROW(writer.write_words(big), std::invalid_argument);
  writer.finish();
  const std::vector<Word> ok(8, 0x12);
  EXPECT_THROW(writer.write_words(ok), TraceError);
}

TEST(TraceFormat, RejectsCompressedChunkBeyondRleExpansionBound) {
  // Hand-craft a CRC-valid file whose single RLE chunk claims far more
  // bursts than a 1-byte payload can expand to (zero-run RLE grows at
  // most 128x): the reader must reject the header instead of sizing a
  // decompression buffer from it.
  std::vector<std::uint8_t> image;
  for (const std::uint8_t b : kFileMagic) image.push_back(b);
  image.push_back(kFormatVersion);
  image.push_back(kLittleEndianTag);
  put_le(image, 8, 2);                    // width
  put_le(image, 8, 2);                    // burst_length
  put_le(image, kFileFlagCompressed, 2);  // file flags
  put_le(image, 0x40000000U, 4);          // bursts_per_chunk
  image.resize(kHeaderBytes, 0);

  for (const std::uint8_t b : kChunkMagic) image.push_back(b);
  put_le(image, 1000, 4);  // burst_count: 8000 raw bytes
  put_le(image, kChunkFlagRle, 4);
  put_le(image, 1, 4);    // payload_bytes: expands <= 128
  image.push_back(0x80);  // payload: one zero byte

  for (const std::uint8_t b : kFooterMagic) image.push_back(b);
  put_le(image, 0, 4);
  put_le(image, 1, 8);     // chunk_count
  put_le(image, 1000, 8);  // bursts
  put_le(image, 0, 8);     // payload_bits
  put_le(image, 0, 8);     // payload_zeros
  put_le(image, 0, 8);     // raw_transitions
  put_le(image, 0, 8);     // reserved
  put_le(image, crc32(image), 4);
  for (const std::uint8_t b : kEndMagic) image.push_back(b);

  try {
    (void)TraceReader::from_bytes(std::move(image));
    FAIL() << "lying compressed chunk header was accepted";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("RLE expansion bound"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceFormat, WriterRejectsChunkCapacityBeyondU32PayloadField) {
  std::ostringstream os(std::ios::binary);
  TraceWriterOptions opt;
  opt.bursts_per_chunk = 0xFFFFFFFFU;  // * 8 bytes/burst overflows u32
  EXPECT_THROW(TraceWriter(os, BusConfig{8, 8}, opt), std::invalid_argument);
}

TEST(TraceFormat, RleRejectsMalformedStreams) {
  std::vector<std::uint8_t> out(8);
  // Truncated literal run: control promises 4 literals, 1 present.
  const std::vector<std::uint8_t> truncated{0x03, 0xAB};
  EXPECT_THROW(rle_decompress(truncated, out), TraceError);
  // Overrun: 128-byte zero run into an 8-byte output.
  const std::vector<std::uint8_t> overrun{0xFF};
  EXPECT_THROW(rle_decompress(overrun, out), TraceError);
  // Underfill: decodes 4 of 8 bytes.
  const std::vector<std::uint8_t> underfill{0x83};
  EXPECT_THROW(rle_decompress(underfill, out), TraceError);
}

TEST(TraceFormat, RleRoundTripsArbitraryBytes) {
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 1000; ++i)
    in.push_back(static_cast<std::uint8_t>((i % 7 == 0) ? 0 : (i * 37) & 0xFF));
  in.insert(in.end(), 300, 0);  // long zero tail
  std::vector<std::uint8_t> packed;
  rle_compress(in, packed);
  std::vector<std::uint8_t> out(in.size());
  rle_decompress(packed, out);
  EXPECT_EQ(out, in);
}

TEST(TraceFormat, Crc32KnownAnswers) {
  EXPECT_EQ(crc32({}), 0U);
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::span(reinterpret_cast<const std::uint8_t*>(
                                check.data()),
                            check.size())),
            0xCBF43926U);
}

TEST(TraceFormat, Crc32MatchesByteTableReference) {
  // The one-byte-per-step table loop the slicing-by-8 update replaces.
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  const auto reference = [&table](std::span<const std::uint8_t> bytes) {
    std::uint32_t c = 0xFFFFFFFFU;
    for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFU] ^ (c >> 8);
    return ~c;
  };

  std::vector<std::uint8_t> buf(4097 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; offset += 3) {
    for (std::size_t len = 0; len <= 4097; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      const std::uint32_t want = reference(s);
      ASSERT_EQ(crc32(s), want) << "offset " << offset << " len " << len;
      // Split updates: the register carries across calls of any size.
      const std::size_t cut = (len * 5) / 7;
      Crc32 split;
      split.update(s.first(cut));
      split.update(s.subspan(cut, (len - cut) / 2));
      split.update(s.subspan(cut + (len - cut) / 2));
      ASSERT_EQ(split.value(), want) << "offset " << offset << " len " << len;
    }
  }
}

TEST(TraceFormat, RleDecodeMatchesBytewiseReference) {
  // The one-byte-per-step decoder the 32-byte wildcopy replaces.
  const auto reference = [](std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) {
    std::size_t ip = 0;
    std::size_t op = 0;
    while (ip < in.size()) {
      const std::uint8_t c = in[ip++];
      const std::size_t run = static_cast<std::size_t>(c & 0x7FU) + 1;
      if (op + run > out.size())
        throw TraceError("rle: decoded size exceeds chunk payload size");
      if (c & 0x80U) {
        for (std::size_t k = 0; k < run; ++k) out[op + k] = 0;
      } else {
        if (in.size() - ip < run)
          throw TraceError("rle: truncated literal run");
        for (std::size_t k = 0; k < run; ++k) out[op + k] = in[ip + k];
        ip += run;
      }
      op += run;
    }
    if (op != out.size())
      throw TraceError("rle: decoded size " + std::to_string(op) +
                       " != expected " + std::to_string(out.size()));
  };
  // Both decoders fill differently pre-set buffers of `out_size`: they
  // must both succeed with the same bytes, or both throw the same error,
  // and the decoder must leave a guard band past `out` untouched.
  constexpr std::size_t kGuard = 64;
  const auto agree = [&reference](const std::vector<std::uint8_t>& in,
                                  std::size_t out_size) {
    std::vector<std::uint8_t> want(out_size, 0xA5);
    std::vector<std::uint8_t> guarded(out_size + kGuard, 0x5A);
    const std::span<std::uint8_t> got(guarded.data(), out_size);
    std::string want_error;
    std::string got_error;
    try {
      reference(in, want);
    } catch (const TraceError& e) {
      want_error = e.what();
    }
    try {
      rle_decompress(in, got);
    } catch (const TraceError& e) {
      got_error = e.what();
    }
    if (want_error != got_error)
      return ::testing::AssertionFailure()
             << "reference threw \"" << want_error << "\", decoder threw \""
             << got_error << "\"";
    if (std::any_of(guarded.begin() + static_cast<std::ptrdiff_t>(out_size),
                    guarded.end(), [](std::uint8_t b) { return b != 0x5A; }))
      return ::testing::AssertionFailure() << "wrote past the output";
    if (want_error.empty() && !std::equal(want.begin(), want.end(),
                                          got.begin(), got.end()))
      return ::testing::AssertionFailure() << "decoded bytes differ";
    return ::testing::AssertionSuccess();
  };

  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Appends one token; literal bytes are odd, so never zero fill.
  const auto token = [&next](std::vector<std::uint8_t>& in, bool zeros,
                             std::size_t run) {
    in.push_back(static_cast<std::uint8_t>((zeros ? 0x80U : 0U) | (run - 1)));
    if (zeros) return;
    for (std::size_t k = 0; k < run; ++k)
      in.push_back(static_cast<std::uint8_t>(next() | 1U));
  };

  // Every run length of both kinds, ending 0..40 bytes before the end
  // of `out` (a zero-run tail) and of `in` (a literal tail), plus the
  // same stream with one byte too few or too many of `out`, and with
  // its last byte cut.
  for (const bool zeros : {false, true}) {
    for (std::size_t run = 1; run <= 128; ++run) {
      for (std::size_t tail = 0; tail <= 40; ++tail) {
        for (const bool in_tail : {false, true}) {
          std::vector<std::uint8_t> in;
          const std::size_t head = 1 + (run + tail) % 7;
          token(in, false, head);
          token(in, zeros, run);
          std::size_t out_size = head + run;
          if (!in_tail && tail > 0) {
            token(in, true, tail);
            out_size += tail;
          } else if (in_tail && tail == 1) {
            token(in, true, 1);
            out_size += 1;
          } else if (in_tail && tail > 1) {
            token(in, false, tail - 1);
            out_size += tail - 1;
          }
          const auto where = [&] {
            return std::string(zeros ? "zero" : "literal") + " run " +
                   std::to_string(run) + ", " + (in_tail ? "in" : "out") +
                   " tail " + std::to_string(tail);
          };
          ASSERT_TRUE(agree(in, out_size)) << where();
          ASSERT_TRUE(agree(in, out_size - 1)) << where() << ", overrun";
          ASSERT_TRUE(agree(in, out_size + 1)) << where() << ", underfill";
          in.pop_back();
          ASSERT_TRUE(agree(in, out_size)) << where() << ", cut";
        }
      }
    }
  }

  // Random token streams: exact, short and long outputs, and cuts.
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> in;
    std::size_t out_size = 0;
    const int tokens = 1 + static_cast<int>(next() % 40);
    for (int t = 0; t < tokens; ++t) {
      const bool zeros = (next() & 1U) != 0;
      const std::size_t cap = (next() & 3U) == 0 ? 128 : 40;
      const std::size_t run = 1 + next() % cap;
      token(in, zeros, run);
      out_size += run;
    }
    ASSERT_TRUE(agree(in, out_size)) << "trial " << trial;
    const std::size_t delta = 1 + next() % 40;
    ASSERT_TRUE(agree(in, out_size + delta)) << "trial " << trial;
    ASSERT_TRUE(agree(in, out_size - std::min(delta, out_size)))
        << "trial " << trial;
    in.resize(next() % in.size());
    ASSERT_TRUE(agree(in, out_size)) << "trial " << trial << " cut";
  }

  // Each malformed kind throws on its own.
  std::vector<std::uint8_t> out(100);
  const std::vector<std::uint8_t> overrun = {0x80U | 127U};
  EXPECT_THROW(rle_decompress(overrun, out), TraceError);
  const std::vector<std::uint8_t> truncated = {5, 1, 2, 3};
  EXPECT_THROW(rle_decompress(truncated, std::span(out).first(6)),
               TraceError);
  const std::vector<std::uint8_t> underfill = {0x80U | 3U};
  EXPECT_THROW(rle_decompress(underfill, std::span(out).first(10)),
               TraceError);
}

// ------------------------------------------- bulk writer vs per-burst

/// The per-burst accounting TraceWriter ran before it counted a chunk
/// at a time: per group (the whole beat narrow, byte g of every beat
/// wide), each beat word's zeros and its raw transitions from the
/// all-ones boundary.
workload::TraceStats per_burst_stats(const Geometry& geometry,
                                     std::span<const std::uint8_t> bytes) {
  workload::TraceStats st;
  const int bl = geometry.burst_length();
  const auto step = static_cast<std::size_t>(geometry.bytes_per_beat());
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  for (std::size_t i = 0; i * bb < bytes.size(); ++i) {
    const std::uint8_t* burst = bytes.data() + i * bb;
    for (int g = 0; g < geometry.groups(); ++g) {
      const BusConfig cfg = geometry.group_config(g);
      const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
      const Word mask = cfg.dq_mask();
      Word last = mask;
      for (int t = 0; t < bl; ++t) {
        const std::uint8_t* beat = burst + static_cast<std::size_t>(t) * step +
                                   static_cast<std::size_t>(g);
        Word w = 0;
        for (std::size_t b = 0; b < bpb; ++b)
          w |= static_cast<Word>(beat[b]) << (8 * b);
        st.payload_zeros += cfg.width - std::popcount(w);
        st.raw_transitions += std::popcount((last ^ w) & mask);
        last = w;
      }
    }
    st.bursts += 1;
    st.payload_bits += geometry.width() * bl;
  }
  return st;
}

/// `bursts` random bursts that fit `geometry`: runs of all-zero and
/// all-ones bursts between random ones, so chunks compress unevenly.
std::vector<std::uint8_t> fitting_payload(const Geometry& geometry,
                                          std::size_t bursts,
                                          std::uint64_t seed) {
  const auto step = static_cast<std::size_t>(geometry.bytes_per_beat());
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  std::vector<std::uint8_t> beat_mask(step);
  for (std::size_t k = 0; k < step; ++k)
    beat_mask[k] = static_cast<std::uint8_t>(
        geometry.is_wide()
            ? geometry.group_config(static_cast<int>(k)).dq_mask()
            : geometry.bus().dq_mask() >> (8 * k));
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint8_t> out(bursts * bb);
  for (std::size_t i = 0; i < bursts; ++i) {
    const std::uint64_t kind = next() % 4;  // 0: zeros, 1: ones, else random
    for (std::size_t k = 0; k < bb; ++k) {
      const auto r = static_cast<std::uint8_t>(next());
      const std::uint8_t v = kind == 0 ? 0 : kind == 1 ? 0xFF : r;
      out[i * bb + k] = v & beat_mask[k % step];
    }
  }
  return out;
}

TEST(TraceFormat, WriterStatsAndBytesMatchPerBurstReference) {
  // The writer counts its footer stats and copies its chunks a span
  // part at a time. Stats must equal the per-burst reference, and the
  // file must not depend on how the payload was split into calls: one
  // burst at a time (the reference's unit), 7 bursts, one burst short
  // of a chunk, one past it, or everything at once.
  constexpr std::size_t kBursts = 4096 + 37;
  const std::vector<std::pair<bool, int>> shapes = {
      {false, 5},  {false, 8},  {false, 12}, {false, 16},
      {false, 32}, {true, 12},  {true, 60},  {true, 64}};
  for (const auto& [is_wide, width] : shapes)
    for (const int bl : {4, 8, 16}) {
      const Geometry geometry = is_wide ? Geometry::wide(width, bl)
                                        : Geometry::narrow(width, bl);
      const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
      const auto groups = static_cast<std::size_t>(geometry.groups());
      const auto payload = fitting_payload(
          geometry, kBursts, static_cast<std::uint64_t>(width * 100 + bl));
      const workload::TraceStats want = per_burst_stats(geometry, payload);
      std::vector<std::uint64_t> masks(kBursts * groups);
      for (std::size_t m = 0; m < masks.size(); ++m)
        masks[m] = (payload[m % payload.size()] * 0x0101010101010101ULL +
                    m * 0x9E3779B97F4A7C15ULL) &
                   ((std::uint64_t{1} << bl) - 1);

      for (const std::uint32_t chunk : {1U, 3U, 4096U})
        for (const bool encoded : {false, true}) {
          TraceWriterOptions opt;
          opt.bursts_per_chunk = chunk;
          opt.encoded = encoded;
          std::vector<std::uint8_t> first;
          for (const std::size_t split :
               {std::size_t{1}, std::size_t{7}, std::size_t{chunk - 1},
                std::size_t{chunk + 1}, kBursts}) {
            if (split == 0) continue;
            const std::string ctx =
                geometry.to_string() + " chunk " + std::to_string(chunk) +
                (encoded ? " encoded" : "") + " split " +
                std::to_string(split);
            std::ostringstream os(std::ios::binary);
            TraceWriter writer(os, geometry, opt);
            for (std::size_t i = 0; i < kBursts; i += split) {
              const std::size_t n = std::min(split, kBursts - i);
              const auto bytes =
                  std::span<const std::uint8_t>(payload).subspan(i * bb,
                                                                 n * bb);
              if (encoded)
                writer.write_encoded(
                    bytes, std::span<const std::uint64_t>(masks).subspan(
                               i * groups, n * groups));
              else
                writer.write_packed(bytes);
            }
            writer.finish();
            const workload::TraceStats& got = writer.stats();
            ASSERT_EQ(got.bursts, want.bursts) << ctx;
            ASSERT_EQ(got.payload_bits, want.payload_bits) << ctx;
            ASSERT_EQ(got.payload_zeros, want.payload_zeros) << ctx;
            ASSERT_EQ(got.raw_transitions, want.raw_transitions) << ctx;
            const std::string s = os.str();
            std::vector<std::uint8_t> image(s.begin(), s.end());
            if (first.empty()) {
              // The file reads back: footer stats, payload and masks.
              const auto reader = TraceReader::from_bytes(image);
              ASSERT_EQ(reader.stats().payload_zeros, want.payload_zeros)
                  << ctx;
              ASSERT_EQ(reader.stats().raw_transitions, want.raw_transitions)
                  << ctx;
              std::vector<std::uint8_t> scratch;
              std::vector<std::uint8_t> mask_scratch;
              std::vector<std::uint64_t> mask_words;
              std::vector<std::uint8_t> got_payload;
              std::vector<std::uint64_t> got_masks;
              for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
                const auto view = reader.chunk_payload(c, scratch);
                got_payload.insert(got_payload.end(), view.begin(),
                                   view.end());
                if (encoded) {
                  const auto mv =
                      reader.chunk_masks(c, mask_scratch, mask_words);
                  got_masks.insert(got_masks.end(), mv.begin(), mv.end());
                }
              }
              ASSERT_EQ(got_payload, payload) << ctx;
              if (encoded) {
                ASSERT_EQ(got_masks, masks) << ctx;
              }
              first = std::move(image);
            } else {
              ASSERT_EQ(image, first) << ctx;
            }
          }
        }
    }
}

TEST(TraceFormat, RejectedWriteLeavesWriterUnchanged) {
  // A span with one out-of-range beat is rejected whole: no burst of it
  // is counted or buffered, so the finished file is the one a writer
  // that never saw the call writes.
  const Geometry geometry = Geometry::wide(12, 4);
  TraceWriterOptions opt;
  opt.bursts_per_chunk = 2;
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  const auto before = fitting_payload(geometry, 3, 1);
  const auto after = fitting_payload(geometry, 2, 2);
  auto bad = fitting_payload(geometry, 3, 3);
  bad[2 * bb + 2 * 2 + 1] = 0x30;  // burst 2, beat 2, group 1: 4 lanes

  std::ostringstream got_os(std::ios::binary);
  TraceWriter writer(got_os, geometry, opt);
  writer.write_packed(before);
  const workload::TraceStats stats = writer.stats();
  try {
    writer.write_packed(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("burst 2 beat 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("width-4 group 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(writer.bursts_written(), 3);
  EXPECT_EQ(writer.stats().payload_bits, stats.payload_bits);
  EXPECT_EQ(writer.stats().payload_zeros, stats.payload_zeros);
  EXPECT_EQ(writer.stats().raw_transitions, stats.raw_transitions);
  writer.write_packed(after);
  writer.finish();

  std::ostringstream want_os(std::ios::binary);
  TraceWriter clean(want_os, geometry, opt);
  clean.write_packed(before);
  clean.write_packed(after);
  clean.finish();
  EXPECT_EQ(got_os.str(), want_os.str());
}

TEST(TraceFormat, RleCompressMatchesBytewiseReference) {
  // The one-byte-per-step compressor the word scan replaces.
  const auto reference = [](std::span<const std::uint8_t> in,
                            std::vector<std::uint8_t>& out) {
    std::size_t i = 0;
    const std::size_t n = in.size();
    while (i < n) {
      if (in[i] == 0) {
        std::size_t run = 1;
        while (i + run < n && run < 128 && in[i + run] == 0) ++run;
        out.push_back(static_cast<std::uint8_t>(0x80U | (run - 1)));
        i += run;
      } else {
        std::size_t run = 1;
        while (i + run < n && run < 128 &&
               !(in[i + run] == 0 &&
                 (i + run + 1 >= n || in[i + run + 1] == 0)))
          ++run;
        out.push_back(static_cast<std::uint8_t>(run - 1));
        out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                   in.begin() + static_cast<std::ptrdiff_t>(i + run));
        i += run;
      }
    }
  };
  // Same tokens behind a kept prefix of `out`, and a lossless decode.
  const auto agree = [&reference](const std::vector<std::uint8_t>& in)
      -> ::testing::AssertionResult {
    const std::vector<std::uint8_t> prefix = {0xAB, 0xCD};
    std::vector<std::uint8_t> want = prefix;
    std::vector<std::uint8_t> got = prefix;
    reference(in, want);
    rle_compress(in, got);
    if (got != want)
      return ::testing::AssertionFailure()
             << "token streams differ (" << got.size() << " vs "
             << want.size() << " bytes)";
    std::vector<std::uint8_t> back(in.size(), 0xEE);
    rle_decompress(std::span(got).subspan(prefix.size()), back);
    if (back != in) return ::testing::AssertionFailure() << "lossy";
    return ::testing::AssertionSuccess();
  };

  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto nonzero = [&next] {
    return static_cast<std::uint8_t>(1 + next() % 255);
  };

  // Every run length 1..130 of both kinds, ending 0..40 bytes before
  // the end of the input; the tail is nonzero, zero or mixed bytes.
  for (const bool zeros : {false, true})
    for (std::size_t run = 1; run <= 130; ++run)
      for (std::size_t tail = 0; tail <= 40; ++tail)
        for (int fill = 0; fill < 3; ++fill) {
          std::vector<std::uint8_t> in;
          // The run starts a token: a zero run after a literal byte, a
          // literal after a zero pair.
          if (zeros) {
            in.push_back(nonzero());
          } else {
            in.insert(in.end(), {0, 0});
          }
          for (std::size_t k = 0; k < run; ++k)
            in.push_back(zeros ? 0 : nonzero());
          for (std::size_t k = 0; k < tail; ++k)
            in.push_back(fill == 0   ? nonzero()
                         : fill == 1 ? 0
                                     : static_cast<std::uint8_t>(
                                           (next() & 1U) ? nonzero() : 0));
          ASSERT_TRUE(agree(in))
              << (zeros ? "zero" : "literal") << " run " << run << " tail "
              << tail << " fill " << fill;
        }

  // Zero pairs and lone zeros at every offset across 8-byte word
  // edges, and a lone zero as the last byte.
  for (std::size_t len = 2; len <= 40; ++len)
    for (std::size_t at = 0; at < len; ++at) {
      std::vector<std::uint8_t> in(len);
      for (auto& b : in) b = nonzero();
      in[at] = 0;
      ASSERT_TRUE(agree(in)) << "lone zero at " << at << " of " << len;
      if (at + 1 < len) {
        in[at + 1] = 0;
        ASSERT_TRUE(agree(in)) << "zero pair at " << at << " of " << len;
      }
    }

  // Both 128-byte caps, at and around every multiple.
  for (const std::size_t len :
       {127U, 128U, 129U, 255U, 256U, 257U, 383U, 384U, 385U, 1000U}) {
    std::vector<std::uint8_t> lit(len);
    for (auto& b : lit) b = nonzero();
    ASSERT_TRUE(agree(lit)) << "literal of " << len;
    ASSERT_TRUE(agree(std::vector<std::uint8_t>(len, 0)))
        << "zeros of " << len;
  }
  ASSERT_TRUE(agree({}));

  // Random buffers with zero densities from 0 to 1.
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t len = next() % 700;
    const double density = static_cast<double>(trial % 101) / 100.0;
    std::vector<std::uint8_t> in(len);
    for (auto& b : in)
      b = static_cast<double>(next() % 10000) < density * 10000.0
              ? 0
              : nonzero();
    ASSERT_TRUE(agree(in)) << "trial " << trial << " density " << density;
  }
}

TEST(TraceFormat, TextBinaryConversionIsLossless) {
  const auto trace = random_trace(BusConfig{8, 8}, 128, 41);
  std::ostringstream text1;
  trace.save(text1);

  std::istringstream text_in(text1.str());
  std::ostringstream binary(std::ios::binary);
  const workload::TraceStats s = text_to_binary(text_in, binary);
  EXPECT_EQ(s.bursts, 128);
  EXPECT_EQ(s.raw_transitions, trace.stats().raw_transitions);

  const std::string b = binary.str();
  const auto reader =
      TraceReader::from_bytes(std::vector<std::uint8_t>(b.begin(), b.end()));
  std::ostringstream text2;
  binary_to_text(reader, text2);
  EXPECT_EQ(text2.str(), text1.str());
  expect_equal(reader.to_burst_trace(), trace);
}

}  // namespace
}  // namespace dbi::trace
