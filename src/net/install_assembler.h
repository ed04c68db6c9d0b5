#ifndef XCLUSTER_NET_INSTALL_ASSEMBLER_H_
#define XCLUSTER_NET_INSTALL_ASSEMBLER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/protocol.h"

namespace xcluster {
namespace net {

/// A snapshot reassembled from a complete, verified chunk sequence.
struct AssembledInstall {
  std::string name;
  uint64_t generation = 0;  ///< pinned generation from the chunks
  std::string bytes;        ///< the encoded XCSB snapshot
};

/// Reassembles one connection's chunked kInstall push — the single
/// decoder behind both the server's and the router's install endpoints.
///
/// Chunks arrive in order on one connection. The first chunk must have
/// index 0 and declares the snapshot (name, generation, total size, chunk
/// count, masked CRC32C); its declared size must fit in what the chunks
/// can carry (`chunk_count * max_frame_bytes`) and under
/// `max_install_bytes`. Every later chunk must repeat the declaration and
/// carry the next index, and no chunk may push the buffer past the
/// declared total. Nothing is reserved up front: the declared size is
/// peer-controlled, so the buffer grows only with bytes actually
/// received and never exceeds the declared total.
///
/// A rejected chunk discards the in-progress install. Not thread-safe:
/// each connection owns its assembler and feeds it from one thread.
class InstallAssembler {
 public:
  struct Limits {
    size_t max_frame_bytes = 0;    ///< per-frame payload cap
    size_t max_install_bytes = 0;  ///< cap on a declared snapshot size
  };

  /// Accepts `chunk` or rejects it with InvalidArgument naming the
  /// violation (the install in progress, if any, is discarded).
  Status Add(InstallFrame chunk, const Limits& limits);

  /// True once every declared chunk has been accepted; call Finish.
  bool complete() const {
    return !name_.empty() && next_chunk_ == chunk_count_;
  }

  /// Ends a complete install: verifies the reassembled size and the
  /// masked CRC32C (Corruption on a mismatch), moves the snapshot into
  /// `*out` on success, and resets for the next install either way.
  Status Finish(AssembledInstall* out);

  /// Bytes buffered for the install in progress; never more than
  /// declared_bytes().
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Snapshot size the install in progress declared (0 between installs).
  uint64_t declared_bytes() const { return total_bytes_; }

 private:
  void Reset();

  std::string name_;  ///< empty between installs
  uint64_t generation_ = 0;
  uint64_t total_bytes_ = 0;
  uint32_t chunk_count_ = 0;
  uint32_t next_chunk_ = 0;
  uint32_t crc_ = 0;
  std::string buffer_;
};

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_NET_INSTALL_ASSEMBLER_H_
