// Tests for net::InstallAssembler, the one decoder of chunked kInstall
// pushes behind both the server and the router: every rejection rule with
// its exact message, the final size and checksum checks, and a seeded loop
// of mutated chunk sequences that must never crash and never buffer more
// than the declared snapshot size.
#include "net/install_assembler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/io/crc32c.h"
#include "common/rng.h"
#include "net/protocol.h"

namespace xcluster {
namespace net {
namespace {

const InstallAssembler::Limits kLimits{/*max_frame_bytes=*/64,
                                       /*max_install_bytes=*/1024};

/// Splits `bytes` into `chunk_bytes`-sized install chunks for `name`.
std::vector<InstallFrame> Chunk(const std::string& name,
                                const std::string& bytes, size_t chunk_bytes,
                                uint64_t generation = 7) {
  const uint32_t count = static_cast<uint32_t>(
      std::max<size_t>(1, (bytes.size() + chunk_bytes - 1) / chunk_bytes));
  std::vector<InstallFrame> chunks;
  for (uint32_t i = 0; i < count; ++i) {
    InstallFrame chunk;
    chunk.name = name;
    chunk.generation = generation;
    chunk.total_bytes = bytes.size();
    chunk.chunk_index = i;
    chunk.chunk_count = count;
    chunk.snapshot_crc = crc32c::Mask(crc32c::Value(bytes));
    chunk.chunk = bytes.substr(i * chunk_bytes, chunk_bytes);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::string Snapshot(size_t n) {
  std::string bytes;
  for (size_t i = 0; i < n; ++i) bytes.push_back(static_cast<char>(i * 31));
  return bytes;
}

/// Feeds every chunk but the last, asserting each is accepted.
void FeedAllButLast(InstallAssembler* assembler,
                    const std::vector<InstallFrame>& chunks) {
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    ASSERT_TRUE(assembler->Add(chunks[i], kLimits).ok()) << i;
    ASSERT_FALSE(assembler->complete());
  }
}

TEST(InstallAssemblerTest, ReassemblesInOrderChunks) {
  const std::string bytes = Snapshot(200);
  const std::vector<InstallFrame> chunks = Chunk("books", bytes, 64);
  ASSERT_EQ(chunks.size(), 4u);
  InstallAssembler assembler;
  FeedAllButLast(&assembler, chunks);
  ASSERT_TRUE(assembler.Add(chunks.back(), kLimits).ok());
  ASSERT_TRUE(assembler.complete());
  AssembledInstall snapshot;
  ASSERT_TRUE(assembler.Finish(&snapshot).ok());
  EXPECT_EQ(snapshot.name, "books");
  EXPECT_EQ(snapshot.generation, 7u);
  EXPECT_EQ(snapshot.bytes, bytes);
  // Reset for the next install on the same connection.
  EXPECT_FALSE(assembler.complete());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_EQ(assembler.declared_bytes(), 0u);
}

TEST(InstallAssemblerTest, FirstChunkMustHaveIndexZero) {
  const std::vector<InstallFrame> chunks = Chunk("books", Snapshot(100), 64);
  InstallAssembler assembler;
  Status status = assembler.Add(chunks[1], kLimits);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(status.message(), "install chunk 1 of books without a first chunk");
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(InstallAssemblerTest, RejectsTotalBytesItsChunksCannotCarry) {
  // A lying declaration: two chunks of at most 64 bytes cannot carry 500.
  std::vector<InstallFrame> chunks = Chunk("books", Snapshot(100), 64);
  chunks[0].total_bytes = 500;
  InstallAssembler assembler;
  Status status = assembler.Add(chunks[0], kLimits);
  EXPECT_EQ(status.message(),
            "install of books declares 500 bytes, more than its chunks can "
            "carry");
  EXPECT_EQ(assembler.declared_bytes(), 0u);
}

TEST(InstallAssemblerTest, RejectsTotalBytesAboveInstallCap) {
  const std::vector<InstallFrame> chunks = Chunk("big", Snapshot(2000), 64);
  InstallAssembler assembler;
  Status status = assembler.Add(chunks[0], kLimits);
  EXPECT_EQ(status.message(),
            "install of big declares 2000 bytes, above the 1024-byte install "
            "cap");
  EXPECT_EQ(assembler.declared_bytes(), 0u);
}

TEST(InstallAssemblerTest, LaterChunksMustRepeatTheDeclaration) {
  const std::vector<InstallFrame> good = Chunk("books", Snapshot(200), 64);
  const std::vector<void (*)(InstallFrame*)> mutations = {
      [](InstallFrame* c) { c->name = "other"; },
      [](InstallFrame* c) { c->generation += 1; },
      [](InstallFrame* c) { c->total_bytes -= 1; },
      [](InstallFrame* c) { c->chunk_count += 1; },
      [](InstallFrame* c) { c->snapshot_crc ^= 1; },
      [](InstallFrame* c) { c->chunk_index += 1; },  // skips a chunk
      [](InstallFrame* c) { c->chunk_index -= 1; },  // repeats a chunk
  };
  for (size_t m = 0; m < mutations.size(); ++m) {
    InstallAssembler assembler;
    ASSERT_TRUE(assembler.Add(good[0], kLimits).ok());
    InstallFrame bad = good[1];
    mutations[m](&bad);
    Status status = assembler.Add(bad, kLimits);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << m;
    EXPECT_EQ(status.message(),
              "install chunk sequence violation for " + bad.name)
        << m;
    // The install in progress is discarded; a fresh one starts cleanly.
    EXPECT_EQ(assembler.buffered_bytes(), 0u) << m;
    EXPECT_FALSE(assembler.Add(good[1], kLimits).ok()) << m;
    ASSERT_TRUE(assembler.Add(good[0], kLimits).ok()) << m;
  }
}

TEST(InstallAssemblerTest, RejectsChunksPastTheDeclaredTotal) {
  std::vector<InstallFrame> chunks = Chunk("books", Snapshot(100), 64);
  chunks[1].chunk += "extra";  // 36 + 5 bytes after 64: 105 > 100
  InstallAssembler assembler;
  ASSERT_TRUE(assembler.Add(chunks[0], kLimits).ok());
  Status status = assembler.Add(chunks[1], kLimits);
  EXPECT_EQ(status.message(),
            "install chunks for books overflow the declared snapshot size");
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(InstallAssemblerTest, FinishRejectsShortSnapshot) {
  std::vector<InstallFrame> chunks = Chunk("books", Snapshot(100), 64);
  chunks[1].chunk.resize(10);  // 74 of 100 bytes arrive
  InstallAssembler assembler;
  FeedAllButLast(&assembler, chunks);
  ASSERT_TRUE(assembler.Add(chunks.back(), kLimits).ok());
  ASSERT_TRUE(assembler.complete());
  AssembledInstall snapshot;
  Status status = assembler.Finish(&snapshot);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_EQ(status.message(),
            "install of books reassembled 74 bytes, expected 100");
  EXPECT_TRUE(snapshot.bytes.empty());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(InstallAssemblerTest, FinishRejectsChecksumMismatch) {
  std::vector<InstallFrame> chunks = Chunk("books", Snapshot(100), 64);
  chunks[1].chunk[3] ^= 0x40;  // corrupted in flight
  InstallAssembler assembler;
  FeedAllButLast(&assembler, chunks);
  ASSERT_TRUE(assembler.Add(chunks.back(), kLimits).ok());
  AssembledInstall snapshot;
  Status status = assembler.Finish(&snapshot);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_EQ(status.message(), "install of books failed snapshot checksum");
  EXPECT_TRUE(snapshot.bytes.empty());
}

/// One random mutation of a chunk sequence: drops, repeats, swaps,
/// field edits, and chunk-body edits, as a hostile or buggy peer might.
void Mutate(Rng* rng, std::vector<InstallFrame>* chunks) {
  if (chunks->empty()) return;
  const size_t i = rng->Uniform(chunks->size());
  InstallFrame& c = (*chunks)[i];
  switch (rng->Uniform(10)) {
    case 0: chunks->erase(chunks->begin() + i); break;
    case 1: chunks->insert(chunks->begin() + i, c); break;
    case 2: std::swap(c, (*chunks)[rng->Uniform(chunks->size())]); break;
    case 3: c.total_bytes = rng->Next() % 4096; break;
    case 4: c.chunk_count = static_cast<uint32_t>(rng->Uniform(8)); break;
    case 5: c.chunk_index = static_cast<uint32_t>(rng->Uniform(8)); break;
    case 6: c.snapshot_crc = static_cast<uint32_t>(rng->Next()); break;
    case 7: c.chunk.append(rng->Uniform(80), 'x'); break;
    case 8: c.chunk.resize(rng->Uniform(c.chunk.size() + 1)); break;
    case 9: c.name = rng->Bernoulli(0.5) ? "" : "other"; break;
  }
}

TEST(InstallAssemblerTest, MutatedChunkSequencesNeverOverBuffer) {
  Rng rng(20261019);
  size_t finished = 0, verified = 0, rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string bytes = Snapshot(rng.Uniform(400));
    std::vector<InstallFrame> chunks =
        Chunk("books", bytes, 16 + rng.Uniform(64));
    const size_t mutations = rng.Uniform(4);
    for (size_t m = 0; m < mutations; ++m) Mutate(&rng, &chunks);

    InstallAssembler assembler;
    for (const InstallFrame& chunk : chunks) {
      // Through the wire codec, exactly as an endpoint receives it.
      Result<InstallFrame> decoded = DecodeInstall(EncodeInstall(chunk));
      if (!decoded.ok()) continue;
      if (!assembler.Add(std::move(decoded).value(), kLimits).ok()) {
        ++rejected;
      }
      ASSERT_LE(assembler.buffered_bytes(), assembler.declared_bytes());
      ASSERT_LE(assembler.declared_bytes(), kLimits.max_install_bytes);
      if (assembler.complete()) {
        AssembledInstall snapshot;
        ++finished;
        if (assembler.Finish(&snapshot).ok()) {
          ++verified;
          // A snapshot that passes the checks is exactly what was sent.
          EXPECT_EQ(snapshot.bytes, bytes);
        }
        EXPECT_EQ(assembler.buffered_bytes(), 0u);
      }
    }
  }
  // The loop exercised acceptance and rejection alike.
  EXPECT_GT(verified, 100u);
  EXPECT_GT(finished, verified);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace net
}  // namespace xcluster
