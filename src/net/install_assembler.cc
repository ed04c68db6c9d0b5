#include "net/install_assembler.h"

#include <utility>

#include "common/io/crc32c.h"

namespace xcluster {
namespace net {

Status InstallAssembler::Add(InstallFrame chunk, const Limits& limits) {
  if (name_.empty()) {
    if (chunk.chunk_index != 0) {
      return Status::InvalidArgument(
          "install chunk " + std::to_string(chunk.chunk_index) + " of " +
          chunk.name + " without a first chunk");
    }
    // Each chunk travels in its own frame, so a consistent snapshot can
    // never need more than chunk_count frame payloads.
    if (chunk.total_bytes >
        static_cast<uint64_t>(chunk.chunk_count) * limits.max_frame_bytes) {
      return Status::InvalidArgument(
          "install of " + chunk.name + " declares " +
          std::to_string(chunk.total_bytes) +
          " bytes, more than its chunks can carry");
    }
    if (chunk.total_bytes > limits.max_install_bytes) {
      return Status::InvalidArgument(
          "install of " + chunk.name + " declares " +
          std::to_string(chunk.total_bytes) + " bytes, above the " +
          std::to_string(limits.max_install_bytes) + "-byte install cap");
    }
    name_ = chunk.name;
    generation_ = chunk.generation;
    total_bytes_ = chunk.total_bytes;
    chunk_count_ = chunk.chunk_count;
    crc_ = chunk.snapshot_crc;
    next_chunk_ = 0;
  } else if (chunk.name != name_ || chunk.generation != generation_ ||
             chunk.total_bytes != total_bytes_ ||
             chunk.chunk_count != chunk_count_ ||
             chunk.snapshot_crc != crc_ || chunk.chunk_index != next_chunk_) {
    Reset();
    return Status::InvalidArgument("install chunk sequence violation for " +
                                   chunk.name);
  }
  if (buffer_.size() + chunk.chunk.size() > total_bytes_) {
    Reset();
    return Status::InvalidArgument("install chunks for " + chunk.name +
                                   " overflow the declared snapshot size");
  }
  buffer_.append(chunk.chunk);
  ++next_chunk_;
  return Status::OK();
}

Status InstallAssembler::Finish(AssembledInstall* out) {
  Status verified;
  // Verify the whole-snapshot checksum before anyone decodes it, so a
  // chunking bug or in-flight corruption is named as such rather than as
  // an XCSB parse error.
  if (buffer_.size() != total_bytes_) {
    verified = Status::Corruption(
        "install of " + name_ + " reassembled " +
        std::to_string(buffer_.size()) + " bytes, expected " +
        std::to_string(total_bytes_));
  } else if (crc32c::Mask(crc32c::Value(buffer_.data(), buffer_.size())) !=
             crc_) {
    verified =
        Status::Corruption("install of " + name_ + " failed snapshot checksum");
  } else {
    out->name = std::move(name_);
    out->generation = generation_;
    out->bytes = std::move(buffer_);
  }
  Reset();
  return verified;
}

void InstallAssembler::Reset() {
  name_.clear();
  total_bytes_ = 0;
  buffer_.clear();
  buffer_.shrink_to_fit();
  next_chunk_ = 0;
}

}  // namespace net
}  // namespace xcluster
