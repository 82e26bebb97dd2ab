// Checkpoint subsystem unit tests: the XXH64 checksum, the casp.ckpt.v2
// snapshot container (strict serialize/deserialize, checksum, torn-tail
// detection) and the generation-numbered store (atomic writes, pruning,
// per-job file names, job-identity filtering, delta generations and their
// parent links, fallback to generation N−1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/snapshot.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace casp::ckpt {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/casp_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<fs::path> files_in(const std::string& dir) {
  std::vector<fs::path> out;
  if (!fs::is_directory(dir)) return out;
  for (const auto& e : fs::directory_iterator(dir)) out.push_back(e.path());
  return out;
}

void write_file(const std::string& path, const std::vector<std::byte>& buf) {
  static_assert(std::is_trivially_copyable_v<std::byte> &&
                sizeof(char) == sizeof(std::byte));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
}

// ---------------------------------------------------------------------------
// Checksum.

TEST(Checksum, Xxh64MatchesPublishedVectors) {
  EXPECT_EQ(xxh64(nullptr, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ull);
}

TEST(Checksum, StreamedDigestEqualsOneShotAtEverySplit) {
  std::vector<unsigned char> buf(1024);
  std::uint64_t state = 0xc0ffee;
  for (unsigned char& c : buf)
    c = static_cast<unsigned char>(splitmix64(state));
  const std::uint64_t whole = xxh64(buf.data(), buf.size());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    Xxh64 h;
    h.update(buf.data(), cut);
    h.update(buf.data() + cut, buf.size() - cut);
    ASSERT_EQ(h.digest(), whole) << "split at " << cut;
  }
  // Byte at a time crosses every stripe and tail boundary.
  Xxh64 bytewise;
  for (const unsigned char c : buf) bytewise.update(&c, 1);
  EXPECT_EQ(bytewise.digest(), whole);
}

// ---------------------------------------------------------------------------
// Snapshot container.

TEST(Snapshot, RoundTripsTypedSections) {
  Snapshot snap;
  snap.set_u64("pieces", 7);
  snap.set_string("note", "batch boundary");
  snap.set_array<std::int64_t>("meta", {3, -1, 42});

  const Snapshot back = Snapshot::deserialize(snap.serialize());
  EXPECT_EQ(back.u64("pieces"), 7u);
  EXPECT_EQ(back.string("note"), "batch boundary");
  EXPECT_EQ(back.array<std::int64_t>("meta"),
            (std::vector<std::int64_t>{3, -1, 42}));
  EXPECT_TRUE(back.has("pieces"));
  EXPECT_FALSE(back.has("absent"));
  EXPECT_THROW(back.u64("absent"), CkptError);
}

TEST(Snapshot, MatrixSectionIsBitExact) {
  const CscMat m = testing::random_matrix(23, 17, 4.0, 99);
  Snapshot snap;
  snap.borrow_matrix("m", m);
  const CscMat back =
      Snapshot::deserialize(snap.serialize()).matrix("m");
  // Recovery correctness demands bit-exactness (tolerance 0.0), not
  // closeness: the resumed run must be byte-identical to the unbroken one.
  testing::expect_mat_near(back, m, 0.0);
}

TEST(Snapshot, SerializeIsDeterministic) {
  auto make = [] {
    Snapshot s;
    s.set_u64("iter", 5);
    s.set_string("tag", "x");
    return s.serialize();
  };
  EXPECT_EQ(make(), make());
}

TEST(Snapshot, ChecksumFlipIsDetected) {
  Snapshot snap;
  snap.set_u64("iter", 3);
  snap.set_array<double>("vals", {1.0, 2.0, 3.0});
  std::vector<std::byte> buf = snap.serialize();
  // Flip one bit in every byte position in turn: no single-bit corruption
  // anywhere in the file may deserialize cleanly.
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::vector<std::byte> corrupt = buf;
    corrupt[i] ^= std::byte{0x10};
    EXPECT_THROW(Snapshot::deserialize(corrupt), CkptError)
        << "bit flip at byte " << i << " went undetected";
  }
}

TEST(Snapshot, TornTailsAndGarbageAreRejected) {
  Snapshot snap;
  snap.set_u64("iter", 3);
  snap.set_string("tag", "torn-write-probe");
  const std::vector<std::byte> buf = snap.serialize();
  // Every proper prefix is a torn write; none may load.
  for (std::size_t keep = 0; keep < buf.size(); ++keep) {
    std::vector<std::byte> torn(buf.begin(),
                                buf.begin() + static_cast<long>(keep));
    EXPECT_THROW(Snapshot::deserialize(torn), CkptError)
        << "prefix of " << keep << " bytes went undetected";
  }
  // Trailing garbage after a valid snapshot is also rejected.
  std::vector<std::byte> padded = buf;
  padded.push_back(std::byte{0});
  EXPECT_THROW(Snapshot::deserialize(padded), CkptError);
  // So is a buffer that is plausible-length but not a snapshot at all.
  std::vector<std::byte> noise(64, std::byte{0x5a});
  EXPECT_THROW(Snapshot::deserialize(noise), CkptError);
}

TEST(Snapshot, RepeatedSectionIsRejectedUnderAValidChecksum) {
  Snapshot snap;
  snap.set_u64("iter", 3);
  std::vector<std::byte> buf = snap.serialize();
  // The one section record again, the count bumped, the checksum redone:
  // only the repeated name is wrong.
  const std::size_t body = buf.size() - sizeof(std::uint64_t);
  std::vector<std::byte> twice(buf.begin(),
                               buf.begin() + static_cast<long>(body));
  twice.insert(twice.end(), buf.begin() + 16,
               buf.begin() + static_cast<long>(body));
  const std::uint64_t count = 2;
  std::memcpy(twice.data() + 8, &count, sizeof(count));
  const std::uint64_t sum = xxh64(twice.data(), twice.size());
  twice.resize(twice.size() + sizeof(sum));
  std::memcpy(twice.data() + twice.size() - sizeof(sum), &sum, sizeof(sum));
  EXPECT_THROW(Snapshot::deserialize(twice), CkptError);
}

// ---------------------------------------------------------------------------
// SnapshotMutation: seeded splitmix64 mutations of a serialized snapshot
// through Snapshot::deserialize and the typed readers. A mutant either
// fails with CkptError (never another exception, a sanitizer report or a
// hang) or parses, and then each section reads back as a value or as
// CkptError. Most mutants are re-sealed with a fresh checksum, so the
// parse gets past it to the count and length fields. check.sh runs this
// suite in its ASan+UBSan stage.

/// A snapshot shaped like batched_summa3d's: counters, a record array, two
/// matrix sections and the store's job stamp.
Snapshot mutation_seed() {
  Snapshot snap;
  snap.set_u64("pieces", 2);
  snap.set_array<std::int64_t>("piece_meta", {0, 2, 0, 0, 12, 0, 5,
                                              1, 2, 0, 0, 12, 5, 4});
  static const CscMat piece0 = testing::random_matrix(12, 5, 2.0, 71);
  static const CscMat piece1 = testing::random_matrix(12, 4, 2.0, 72);
  snap.borrow_matrix("piece0", piece0);
  snap.borrow_matrix("piece1", piece1);
  snap.set_string("__job", "batched_summa3d|12x12x9|tag=");
  return snap;
}

std::uint64_t word_at(const std::vector<std::byte>& buf, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data() + at, sizeof(v));
  return v;
}

/// [begin, end) of each section record (name length, name, payload
/// length, payload) of a serialized snapshot.
std::vector<std::pair<std::size_t, std::size_t>> section_spans(
    const std::vector<std::byte>& buf) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t at = 16;
  for (std::uint64_t i = 0, n = word_at(buf, 8); i < n; ++i) {
    const std::size_t begin = at;
    at += 8 + word_at(buf, at);
    at += 8 + word_at(buf, at);
    spans.emplace_back(begin, at);
  }
  return spans;
}

/// Offsets of the serialized snapshot's 8-byte count and length words:
/// the section count, each section's name and payload lengths, and each
/// matrix section's (nrows, ncols, nnz) header.
std::vector<std::size_t> length_fields(const std::vector<std::byte>& buf) {
  std::vector<std::size_t> fields = {8};
  for (const auto& [begin, end] : section_spans(buf)) {
    std::string name(word_at(buf, begin), '\0');
    std::memcpy(name.data(), buf.data() + begin + 8, name.size());
    const std::size_t payload = begin + 8 + name.size();
    fields.push_back(begin);
    fields.push_back(payload);
    if (name == "piece0" || name == "piece1")
      for (std::size_t k = 1; k <= 3; ++k) fields.push_back(payload + 8 * k);
  }
  return fields;
}

/// The trailing checksum recomputed over the mutant's body.
void reseal(std::vector<std::byte>& buf) {
  if (buf.size() < 16) return;
  const std::size_t body = buf.size() - sizeof(std::uint64_t);
  const std::uint64_t sum = xxh64(buf.data(), body);
  std::memcpy(buf.data() + body, &sum, sizeof(sum));
}

std::vector<std::byte> mutate_snapshot(const std::vector<std::byte>& valid,
                                       const std::vector<std::size_t>& fields,
                                       std::uint64_t& state) {
  std::vector<std::byte> m = valid;
  const auto at = [&](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(state) % (n + 1));
  };
  switch (splitmix64(state) % 5) {
    case 0:  // truncated
      m.resize(at(m.size()));
      break;
    case 1: {  // a flipped bit
      const std::size_t k = at(m.size() - 1);
      m[k] ^= static_cast<std::byte>(1u << (splitmix64(state) % 8));
      break;
    }
    case 2: {  // an oversized (or zeroed) count or length field
      constexpr std::uint64_t kValues[] = {
          0,           1,           255,         1ull << 20, 1ull << 31,
          1ull << 32,  1ull << 40,  1ull << 61,  1ull << 62, 1ull << 63,
          ~0ull >> 1,  ~0ull,       ~0ull - 7};
      std::uint64_t v = kValues[splitmix64(state) % std::size(kValues)];
      if (splitmix64(state) % 3 == 0) v = m.size() + splitmix64(state) % 64;
      std::memcpy(m.data() + fields[splitmix64(state) % fields.size()], &v,
                  sizeof(v));
      break;
    }
    case 3: {  // a span deleted
      const std::size_t k = at(m.size());
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(k),
              m.begin() + static_cast<std::ptrdiff_t>(std::min(
                              m.size(), k + 1 + splitmix64(state) % 24)));
      break;
    }
    default: {  // a section repeated right after itself
      const auto spans = section_spans(valid);
      const auto [begin, end] = spans[splitmix64(state) % spans.size()];
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(end),
               valid.begin() + static_cast<std::ptrdiff_t>(begin),
               valid.begin() + static_cast<std::ptrdiff_t>(end));
      const std::uint64_t count = word_at(m, 8) + 1;
      std::memcpy(m.data() + 8, &count, sizeof(count));
      break;
    }
  }
  if (splitmix64(state) % 4 != 0) reseal(m);
  return m;
}

TEST(SnapshotMutation, MutantsFailAsCkptErrorOrReadBack) {
  const std::vector<std::byte> valid = mutation_seed().serialize();
  const std::vector<std::size_t> fields = length_fields(valid);
  ASSERT_EQ(fields.size(), 1u + 2 * 5 + 2 * 3);
  std::uint64_t state = 0x5eed0026;
  int refused = 0, parsed = 0, sections_read = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::vector<std::byte> m = mutate_snapshot(valid, fields, state);
    try {
      const Snapshot snap = Snapshot::deserialize(m);
      ++parsed;
      const auto read = [&](auto&& get) {
        try {
          get();
          ++sections_read;
        } catch (const CkptError&) {
        }
      };
      read([&] { (void)snap.u64("pieces"); });
      read([&] { (void)snap.array<std::int64_t>("piece_meta"); });
      read([&] { (void)snap.matrix("piece0"); });
      read([&] { (void)snap.matrix("piece1"); });
      read([&] { (void)snap.string("__job"); });
    } catch (const CkptError&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
  EXPECT_GT(refused, 4000);
  EXPECT_GT(parsed, 500);
  EXPECT_GT(sections_read, 2000);
}

// ---------------------------------------------------------------------------
// Generation store.

TEST(CheckpointStore, GenerationsIncreaseAndOldOnesArePruned) {
  const std::string dir = fresh_dir("generations");
  Checkpointer ck(dir, /*rank=*/0);
  ASSERT_TRUE(ck.enabled());
  for (std::uint64_t i = 1; i <= 4; ++i) {
    Snapshot snap;
    snap.set_u64("iter", i);
    ck.save("mcl", "job-a", std::move(snap));
  }
  const auto loaded = ck.load_all("mcl", "job-a");
  // Newest first; only the newest and its predecessor are retained.
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].generation, 4);
  EXPECT_EQ(loaded[0].snap.u64("iter"), 4u);
  EXPECT_EQ(loaded[1].generation, 3);
  EXPECT_EQ(loaded[1].snap.u64("iter"), 3u);
  // Atomicity leaves no stray tmp files behind.
  for (const fs::path& p : files_in(dir))
    EXPECT_EQ(p.extension(), ".ckpt") << p;
}

TEST(CheckpointStore, DisabledCheckpointerIsInert) {
  const Checkpointer ck;
  EXPECT_FALSE(ck.enabled());
  EXPECT_FALSE(ck.due(1));
  EXPECT_FALSE(ck.due(100));
}

TEST(CheckpointStore, DueFollowsTheCadence) {
  const std::string dir = fresh_dir("cadence");
  Checkpointer every3(dir, /*rank=*/0, /*every=*/3);
  EXPECT_FALSE(every3.due(0));
  EXPECT_FALSE(every3.due(1));
  EXPECT_FALSE(every3.due(2));
  EXPECT_TRUE(every3.due(3));
  EXPECT_FALSE(every3.due(4));
  EXPECT_TRUE(every3.due(6));
}

TEST(CheckpointStore, TornNewestGenerationFallsBackToPrevious) {
  const std::string dir = fresh_dir("torn");
  Checkpointer ck(dir, /*rank=*/2);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Snapshot snap;
    snap.set_u64("iter", i);
    snap.set_array<double>("payload", std::vector<double>(256, double(i)));
    ck.save("mcl", "job-t", std::move(snap));
  }
  // Tear the newest generation mid-write: truncate it to half its size,
  // as if the machine died during the write (the atomic rename makes this
  // scenario require a torn *filesystem*, but the store must still treat
  // a short file as invalid rather than trusting the name).
  const std::string newest = ck.generation_path("mcl", "job-t", 3);
  ASSERT_TRUE(fs::exists(newest));
  const auto size = fs::file_size(newest);
  fs::resize_file(newest, size / 2);

  const auto loaded = ck.load_all("mcl", "job-t");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].generation, 2);
  EXPECT_EQ(loaded[0].snap.u64("iter"), 2u);
}

TEST(CheckpointStore, CorruptedNewestGenerationIsNeverLoaded) {
  const std::string dir = fresh_dir("corrupt");
  Checkpointer ck(dir, /*rank=*/0);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    Snapshot snap;
    snap.set_u64("iter", i);
    ck.save("summa", "job-c", std::move(snap));
  }
  // Flip one byte in the middle of the newest file: the checksum must
  // catch it and load_all must serve generation 1 instead.
  const std::string newest = ck.generation_path("summa", "job-c", 2);
  std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(fs::file_size(newest) / 2));
  f.put('\x7f');
  f.close();

  const auto loaded = ck.load_all("summa", "job-c");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].generation, 1);
  EXPECT_EQ(loaded[0].snap.u64("iter"), 1u);
}

TEST(CheckpointStore, ForeignJobSnapshotsAreIgnored) {
  const std::string dir = fresh_dir("jobid");
  Checkpointer ck(dir, /*rank=*/0);
  Snapshot snap;
  snap.set_u64("iter", 9);
  ck.save("mcl", "job-old|n=100", std::move(snap));
  // A run with different parameters (different job id) must not resume
  // from the stale snapshot, even though scope and rank match.
  EXPECT_TRUE(ck.load_all("mcl", "job-new|n=200").empty());
  ASSERT_EQ(ck.load_all("mcl", "job-old|n=100").size(), 1u);
}

TEST(CheckpointStore, ScopesAndRanksAreIsolated) {
  const std::string dir = fresh_dir("scopes");
  Checkpointer r0(dir, /*rank=*/0);
  Checkpointer r1(dir, /*rank=*/1);
  Snapshot a;
  a.set_u64("iter", 1);
  r0.save("summa", "job", std::move(a));
  Snapshot b;
  b.set_u64("iter", 2);
  r1.save("summa", "job", std::move(b));
  Snapshot c;
  c.set_u64("iter", 3);
  r0.save("mcl", "job", std::move(c));

  ASSERT_EQ(r0.load_all("summa", "job").size(), 1u);
  EXPECT_EQ(r0.load_all("summa", "job")[0].snap.u64("iter"), 1u);
  ASSERT_EQ(r1.load_all("summa", "job").size(), 1u);
  EXPECT_EQ(r1.load_all("summa", "job")[0].snap.u64("iter"), 2u);
  ASSERT_EQ(r0.load_all("mcl", "job").size(), 1u);
  EXPECT_EQ(r0.load_all("mcl", "job")[0].snap.u64("iter"), 3u);
}

TEST(CheckpointStore, JobsSharingADirectoryKeepTheirOwnGenerations) {
  const std::string dir = fresh_dir("shared");
  Checkpointer ck(dir, /*rank=*/0);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    Snapshot a;
    a.set_u64("iter", i);
    ck.save("summa", "job-a", std::move(a));
    Snapshot b;
    b.set_u64("iter", 10 * i);
    ck.save("summa", "job-b", std::move(b));
  }
  // Each job numbers and prunes its own generations: both keep 4 and 3.
  for (const auto& [job, scale] :
       {std::pair<std::string, std::uint64_t>{"job-a", 1}, {"job-b", 10}}) {
    const auto loaded = Checkpointer(dir, 0).load_all("summa", job);
    ASSERT_EQ(loaded.size(), 2u) << job;
    EXPECT_EQ(loaded[0].generation, 4) << job;
    EXPECT_EQ(loaded[0].snap.u64("iter"), 4 * scale) << job;
    EXPECT_EQ(loaded[1].generation, 3) << job;
    EXPECT_TRUE(fs::exists(ck.generation_path("summa", job, 3))) << job;
  }
  EXPECT_EQ(files_in(dir).size(), 4u);
}

TEST(CheckpointStore, DeltaGenerationsResolveAgainstTheirParents) {
  const std::string dir = fresh_dir("delta");
  Checkpointer ck(dir, /*rank=*/0);
  Snapshot root;
  root.set_u64("a", 1);
  root.set_u64("b", 2);
  const std::int64_t g1 = ck.save("summa", "job-d", std::move(root));
  Snapshot d2;
  d2.set_u64("b", 3);
  const std::int64_t g2 = ck.save("summa", "job-d", std::move(d2), g1);
  Snapshot d3;
  d3.set_u64("c", 4);
  const std::int64_t g3 = ck.save("summa", "job-d", std::move(d3), g2);
  ASSERT_EQ(g3, 3);
  // Everything the newest two inherit from is retained.
  for (std::int64_t g = 1; g <= 3; ++g)
    EXPECT_TRUE(fs::exists(ck.generation_path("summa", "job-d", g))) << g;

  auto loaded = Checkpointer(dir, 0).load_all("summa", "job-d");
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].generation, 3);
  EXPECT_EQ(loaded[0].snap.u64("a"), 1u);
  EXPECT_EQ(loaded[0].snap.u64("b"), 3u);
  EXPECT_EQ(loaded[0].snap.u64("c"), 4u);
  EXPECT_EQ(loaded[1].snap.u64("b"), 3u);
  EXPECT_FALSE(loaded[1].snap.has("c"));
  EXPECT_EQ(loaded[2].snap.u64("b"), 2u);

  // A corrupted middle generation invalidates everything built on it.
  {
    const std::string mid = ck.generation_path("summa", "job-d", 2);
    std::fstream f(mid, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(mid) / 2));
    f.put('\x33');
  }
  loaded = Checkpointer(dir, 0).load_all("summa", "job-d");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].generation, 1);
  EXPECT_EQ(loaded[0].snap.u64("b"), 2u);
}

TEST(CheckpointStore, VersionOneFilesAreSkippedNotParsed) {
  const std::string dir = fresh_dir("v1");
  Checkpointer ck(dir, /*rank=*/0);
  Snapshot snap;
  snap.set_u64("iter", 1);
  snap.set_string(kJobSection, "job-v");
  // The v2 image with the v1 magic digit and a checksum that matches the
  // body: only the version tells it apart.
  std::vector<std::byte> v1 = snap.serialize();
  v1[7] = static_cast<std::byte>('1');
  const std::uint64_t sum = xxh64(v1.data(), v1.size() - sizeof(sum));
  std::memcpy(v1.data() + v1.size() - sizeof(sum), &sum, sizeof(sum));
  EXPECT_THROW(Snapshot::deserialize(v1), CkptError);
  fs::create_directories(dir);
  for (const std::string& path :
       {ck.generation_path("mcl", "job-v", 1), dir + "/mcl-r0-g1.ckpt"})
    write_file(path, v1);
  EXPECT_TRUE(ck.load_all("mcl", "job-v").empty());
  Snapshot next;
  next.set_u64("iter", 2);
  EXPECT_EQ(ck.save("mcl", "job-v", std::move(next)), 2);
  const auto loaded = Checkpointer(dir, 0).load_all("mcl", "job-v");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].generation, 2);
  EXPECT_EQ(loaded[0].snap.u64("iter"), 2u);
}

// ---------------------------------------------------------------------------
// Parent-link mutants: generation files whose "__parent" record names a
// missing generation, itself, a newer one, a cycle, a generation of another
// job or the right generation with the wrong checksum. Every such
// generation must be skipped by load_all (never looped on or over-read);
// the valid ones around it still load.

/// Writes a sealed generation file with the given job stamp and parent
/// link; returns its checksum.
std::uint64_t write_generation(const Checkpointer& ck, std::int64_t gen,
                               const std::string& job,
                               std::optional<ParentLink> parent,
                               std::uint64_t value) {
  Snapshot snap;
  snap.set_u64("v", value);
  snap.set_string(kJobSection, job);
  if (parent) snap.set_array(kParentSection, std::vector<ParentLink>{*parent});
  const std::vector<std::byte> buf = snap.serialize();
  write_file(ck.generation_path("summa", "job-p", gen), buf);
  return Snapshot::checksum_of(buf);
}

std::vector<std::int64_t> loaded_generations(const std::string& dir) {
  std::vector<std::int64_t> gens;
  for (const LoadedSnapshot& l :
       Checkpointer(dir, 0).load_all("summa", "job-p"))
    gens.push_back(l.generation);
  return gens;
}

TEST(SnapshotMutation, ParentLinkMutantsAreSkipped) {
  const std::string dir = fresh_dir("parent_links");
  fs::create_directories(dir);
  const Checkpointer ck(dir, /*rank=*/0);
  const std::uint64_t root =
      write_generation(ck, 1, "job-p", std::nullopt, 1);
  const std::uint64_t child =
      write_generation(ck, 2, "job-p", ParentLink{1, root}, 2);
  ASSERT_EQ(loaded_generations(dir), (std::vector<std::int64_t>{2, 1}));

  // Each mutant is generation 3, or a pair 3/4; gens 1 and 2 stay valid.
  struct Case {
    const char* what;
    std::function<void()> write;
  };
  const std::vector<Case> cases = {
      {"missing parent",
       [&] { write_generation(ck, 3, "job-p", ParentLink{7, root}, 3); }},
      {"itself",
       [&] { write_generation(ck, 3, "job-p", ParentLink{3, 0}, 3); }},
      {"newer generation",
       [&] {
         write_generation(ck, 3, "job-p", ParentLink{4, 0}, 3);
         write_generation(ck, 4, "job-p", std::nullopt, 4);
       }},
      {"cycle",
       [&] {
         const std::uint64_t s4 =
             write_generation(ck, 4, "job-p", ParentLink{3, 0}, 4);
         write_generation(ck, 3, "job-p", ParentLink{4, s4}, 3);
       }},
      {"another job's generation",
       [&] {
         const std::uint64_t s4 =
             write_generation(ck, 4, "job-other", std::nullopt, 4);
         write_generation(ck, 3, "job-p", ParentLink{2, child}, 3);
         write_generation(ck, 5, "job-p", ParentLink{4, s4}, 5);
       }},
      {"wrong checksum",
       [&] { write_generation(ck, 3, "job-p", ParentLink{2, child ^ 1}, 3); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    for (std::int64_t g = 3; g <= 5; ++g)
      fs::remove(ck.generation_path("summa", "job-p", g));
    c.write();
    std::vector<std::int64_t> gens = loaded_generations(dir);
    // Only gens 1 and 2 — plus, in the foreign-job case, gen 3 on its own
    // valid link — resolve.
    if (std::string(c.what) == "another job's generation") {
      EXPECT_EQ(gens, (std::vector<std::int64_t>{3, 2, 1}));
    } else if (std::string(c.what) == "newer generation") {
      EXPECT_EQ(gens, (std::vector<std::int64_t>{4, 2, 1}));
    } else {
      EXPECT_EQ(gens, (std::vector<std::int64_t>{2, 1}));
    }
  }

  // A "__parent" section that is not exactly one record is malformed.
  {
    Snapshot snap;
    snap.set_u64("v", 3);
    snap.set_string(kJobSection, "job-p");
    snap.set_array<std::uint64_t>(kParentSection, {2, child, 0});
    write_file(ck.generation_path("summa", "job-p", 3), snap.serialize());
  }
  for (std::int64_t g = 4; g <= 5; ++g)
    fs::remove(ck.generation_path("summa", "job-p", g));
  EXPECT_EQ(loaded_generations(dir), (std::vector<std::int64_t>{2, 1}));
}

}  // namespace
}  // namespace casp::ckpt
