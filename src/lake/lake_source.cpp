#include "lake/lake_source.hpp"

#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_reader.hpp"

namespace dbi::lake {

namespace {

/// Pages a freshly opened member in when no CRC pass did: one byte per
/// page of every chunk payload (uncompressed chunks are views straight
/// into the mapping, so this walks the file itself).
void touch_pages(const trace::TraceReader& r) {
  constexpr std::size_t kPage = 4096;
  std::vector<std::uint8_t> scratch;
  std::uint8_t acc = 0;
  for (std::size_t c = 0; c < r.chunk_count(); ++c) {
    const auto payload = r.chunk_payload(c, scratch);
    for (std::size_t off = 0; off < payload.size(); off += kPage)
      acc ^= payload[off];
  }
  volatile std::uint8_t sink = acc;
  (void)sink;
}

class LakeSource final : public dbi::Source {
 public:
  LakeSource(const LakeReader& lake, const LakeSourceOptions& options)
      : lake_(lake), opt_(options) {}

  ~LakeSource() override {
    // Join any in-flight prefetch before the members it touches go away.
    if (pending_.valid()) pending_.wait();
  }

  void bind(const dbi::Geometry& g) override {
    if (pending_.valid()) pending_.wait();
    pending_ = {};
    selected_.clear();
    for (std::size_t i = 0; i < lake_.members().size(); ++i)
      if (lake_.members()[i].geometry() == g) selected_.push_back(i);
    if (selected_.empty()) {
      std::string available;
      for (const LakeMember& m : lake_.members()) {
        const std::string s = m.geometry().to_string();
        if (available.find(s) == std::string::npos)
          available += (available.empty() ? "" : ", ") + s;
      }
      throw std::invalid_argument(
          "lake source: no member matches session geometry " + g.to_string() +
          (available.empty() ? " (the lake is empty)"
                             : " (lake geometries: " + available + ")"));
    }
    pos_ = 0;
    next_chunk_ = 0;
    reader_ = open_member(selected_[0], /*prefetching=*/false);
    spawn_prefetch();
  }

  std::optional<dbi::SourceChunk> next() override {
    while (reader_) {
      if (next_chunk_ < reader_->chunk_count()) {
        const trace::ChunkInfo& info = reader_->chunk(next_chunk_);
        dbi::SourceChunk chunk{reader_->chunk_payload(next_chunk_, scratch_),
                               static_cast<std::int64_t>(info.burst_count),
                               {}};
        if (reader_->encoded())
          chunk.masks =
              reader_->chunk_masks(next_chunk_, mask_scratch_, mask_words_);
        chunk.first_of_stream = next_chunk_ == 0;
        ++next_chunk_;
        return chunk;
      }
      advance_member();
    }
    return {};
  }

 private:
  [[nodiscard]] std::unique_ptr<trace::TraceReader> open_member(
      std::size_t member_index, bool prefetching) const {
    auto reader = lake_.open_member(member_index, opt_.verify_crc);
    if (prefetching && !opt_.verify_crc) touch_pages(*reader);
    return reader;
  }

  void spawn_prefetch() {
    if (!opt_.readahead || pos_ + 1 >= selected_.size()) return;
    const std::size_t idx = selected_[pos_ + 1];
    pending_ = std::async(std::launch::async, [this, idx] {
      return open_member(idx, /*prefetching=*/true);
    });
  }

  void advance_member() {
    ++pos_;
    next_chunk_ = 0;
    if (pos_ >= selected_.size()) {
      reader_.reset();
      return;
    }
    if (pending_.valid()) {
      reader_ = pending_.get();  // rethrows a failed prefetch open here
    } else {
      reader_ = open_member(selected_[pos_], /*prefetching=*/false);
    }
    spawn_prefetch();
  }

  const LakeReader& lake_;
  const LakeSourceOptions opt_;
  std::vector<std::size_t> selected_;  // member indices at the bound geometry
  std::size_t pos_ = 0;
  std::unique_ptr<trace::TraceReader> reader_;  // current member
  std::size_t next_chunk_ = 0;
  std::future<std::unique_ptr<trace::TraceReader>> pending_;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint8_t> mask_scratch_;
  std::vector<std::uint64_t> mask_words_;
};

}  // namespace

std::unique_ptr<dbi::Source> make_lake_source(
    const LakeReader& lake, const LakeSourceOptions& options) {
  return std::make_unique<LakeSource>(lake, options);
}

}  // namespace dbi::lake
