#ifndef XCLUSTER_CORE_SERIALIZE_H_
#define XCLUSTER_CORE_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/io/bytes.h"
#include "common/status.h"
#include "summaries/value_summary.h"
#include "synopsis/graph.h"

namespace xcluster {

/// Binary synopsis format (version 2, see docs/FORMAT.md):
///
///   magic "XCSB" | fixed32 version
///   sections: fixed8 id | varint64 len | payload | fixed32 masked-CRC32C
///   end:      fixed8 0  | fixed32 masked-CRC32C of every preceding byte
///
/// Anything else — the retired version-1 text format ("XCLUSTER 1")
/// included — fails the magic check with kCorruption.

/// Serializes a compacted copy of `synopsis` to `sink`. Deterministic:
/// equal synopses produce byte-identical output.
Status EncodeSynopsis(const GraphSynopsis& synopsis, ByteSink* sink);

/// Convenience: EncodeSynopsis into a fresh string.
std::string EncodeSynopsisToString(const GraphSynopsis& synopsis);

/// Decodes a synopsis from `src` (binary format only). Every section CRC
/// and the whole-file CRC are verified; element counts are validated
/// against the remaining byte budget before any allocation. Returns
/// kCorruption for any malformed input, kIOError if the source fails.
Result<GraphSynopsis> DecodeSynopsis(ByteSource* src);

/// DecodeSynopsis over an in-memory buffer.
Result<GraphSynopsis> DecodeSynopsisBytes(std::string_view bytes);

/// Integrity check without constructing a synopsis graph: walks the section
/// table, verifies every CRC, then fully decodes. When `report` is non-null
/// it receives a human-readable per-section summary (used by
/// `xclusterctl verify`).
Status VerifySynopsisBytes(std::string_view bytes, std::string* report);

/// VerifySynopsisBytes over a file's contents.
Status VerifySynopsisFile(const std::string& path, std::string* report);

/// Encodes one value summary as a tagged record (fixed8 kind + payload) —
/// the per-node summary encoding of the XCSB node section, reused verbatim
/// by the XCSF summary pool so both formats round-trip identically.
void EncodeValueSummary(const ValueSummary& vsumm, ByteSink* sink);

/// Decodes a record written by EncodeValueSummary. kCorruption on any
/// malformed input.
Status DecodeValueSummary(ByteSource* src, ValueSummary* vsumm);

/// One section of a serialized synopsis file, as reported by
/// InspectSynopsisSections (xclusterctl inspect's section table).
struct SynopsisSectionInfo {
  uint32_t id = 0;        ///< format-specific section id
  std::string name;       ///< human-readable section name
  uint64_t offset = 0;    ///< byte offset of the payload within the file
  uint64_t length = 0;    ///< payload bytes
  bool crc_ok = false;    ///< stored CRC matches the payload
};

/// Walks an XCSB byte image and reports every section (offset, length,
/// CRC validity) without decoding payloads. Unlike VerifySynopsisBytes, a
/// bad payload CRC does not stop the walk — the table marks it crc_ok=false
/// and continues — so a corrupted file still yields a full table. Fails
/// only when the section *framing* itself is unreadable.
Status InspectSynopsisSections(std::string_view bytes,
                               std::vector<SynopsisSectionInfo>* sections);

}  // namespace xcluster

#endif  // XCLUSTER_CORE_SERIALIZE_H_
