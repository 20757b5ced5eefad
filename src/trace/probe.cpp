#include "trace/probe.hpp"

#include <array>
#include <fstream>
#include <stdexcept>

namespace dbi::trace {

TraceFileProbe probe_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("trace: cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  if (end < 0) throw TraceError("trace: cannot stat " + path);
  const auto size = static_cast<std::uint64_t>(end);
  if (size < kHeaderBytes + kFooterBytes)
    throw TraceError("trace: file too small (" + std::to_string(size) +
                     " bytes) for a v2 header + footer: " + path);

  std::array<std::uint8_t, kHeaderBytes> hbuf{};
  std::array<std::uint8_t, kFooterBytes> fbuf{};
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(hbuf.data()),
          static_cast<std::streamsize>(hbuf.size()));
  in.seekg(end - static_cast<std::streamoff>(kFooterBytes), std::ios::beg);
  in.read(reinterpret_cast<char*>(fbuf.data()),
          static_cast<std::streamsize>(fbuf.size()));
  if (!in) throw TraceError("trace: read failed for " + path);

  TraceFileProbe p;
  p.file_bytes = size;

  p.header = parse_header(hbuf);

  // Footer.
  ByteReader ftr(fbuf, "trace footer");
  ftr.expect_magic(kFooterMagic, "footer");
  (void)ftr.le(4);  // reserved
  p.chunk_count = ftr.le(8);
  p.stats.bursts = static_cast<std::int64_t>(ftr.le(8));
  p.stats.payload_bits = static_cast<std::int64_t>(ftr.le(8));
  p.stats.payload_zeros = static_cast<std::int64_t>(ftr.le(8));
  p.stats.raw_transitions = static_cast<std::int64_t>(ftr.le(8));
  (void)ftr.le(8);  // reserved
  p.crc = static_cast<std::uint32_t>(ftr.le(4));
  ByteReader endm(std::span<const std::uint8_t>(fbuf).subspan(kFooterBytes - 4),
                  "trace footer");
  endm.expect_magic(kEndMagic, "end");
  if (p.stats.bursts < 0)
    throw TraceError("trace: negative burst count in footer");
  if (p.stats.payload_bits < 0 || p.stats.payload_zeros < 0 ||
      p.stats.raw_transitions < 0)
    throw TraceError("trace: negative payload stats in footer");
  // Every chunk costs at least a 16-byte header, so a chunk count the
  // file cannot physically hold is footer corruption.
  if (p.chunk_count > (size - kHeaderBytes - kFooterBytes) / kChunkHeaderBytes)
    throw TraceError("trace: footer chunk count " +
                     std::to_string(p.chunk_count) +
                     " exceeds what the file can hold");
  return p;
}

}  // namespace dbi::trace
