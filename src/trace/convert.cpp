#include "trace/convert.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace dbi::trace {

workload::TraceStats text_to_binary(std::istream& text, std::ostream& binary,
                                    const TraceWriterOptions& opt) {
  const dbi::BusConfig cfg = workload::parse_text_trace_header(text);
  TraceWriter writer(binary, cfg, opt);
  std::string line;
  std::vector<dbi::Word> words;
  std::int64_t line_no = 1;
  while (std::getline(text, line)) {
    ++line_no;
    if (workload::parse_text_trace_line(line, cfg, line_no, words))
      writer.write_words(words);
  }
  writer.finish();
  return writer.stats();
}

void binary_to_text(const TraceReader& reader, std::ostream& text) {
  if (reader.geometry().is_wide())
    throw TraceError(
        "convert: the v1 text format is single-group only; wide "
        "multi-group traces replay through the engine instead "
        "(dbitool replay)");
  if (reader.encoded())
    throw TraceError(
        "convert: encoded traces hold the transmitted stream; decode "
        "first (dbitool decode)");
  const dbi::BusConfig cfg = reader.geometry().bus();
  text << "dbi-trace v1 " << cfg.width << ' ' << cfg.burst_length << '\n';
  text << std::hex;
  std::vector<std::uint8_t> scratch;
  std::vector<dbi::Word> words(static_cast<std::size_t>(cfg.burst_length));
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const auto payload = reader.chunk_payload(c, scratch);
    for (std::size_t j = 0; j < reader.chunk(c).burst_count; ++j) {
      reader.unpack_burst_at(payload, j, words);
      for (std::size_t t = 0; t < words.size(); ++t) {
        if (t) text << ' ';
        text << words[t];
      }
      text << '\n';
    }
  }
  text << std::dec;
  if (!text) throw TraceError("convert: text write failed");
}

}  // namespace dbi::trace
