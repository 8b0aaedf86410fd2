// Corruption-injection harness for the untrusted-input surface: seeded,
// deterministic mutations (single-bit flips, truncations, header and index
// mutations, pure garbage) applied to v3 column buffers and to every
// baseline codec's stream, then decoded through the fallible paths
// (ColumnReader::Open / TryDecodeAll, Codec::TryDecompress) and to the
// LWC+ALP cascade (CascadeDecompress). The single
// invariant everywhere: a mutated buffer either round-trips bit-exactly or
// is rejected with a non-OK Status - never a crash, never an out-of-bounds
// access (the CI sanitizer job runs this file under ASan+UBSan), and never
// silently wrong data. For v3 columns the checksums make the stronger
// property testable: any flipped bit outside the version byte is rejected.
//
// Well over 2000 distinct mutations run per invocation: every bit of two
// small columns is flipped, every strict prefix is tried, plus seeded
// random mutations on a multi-rowgroup column and per-codec streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "alp/alp.h"
#include "codecs/codec.h"
#include "test_fixtures.h"
#include "util/bits.h"
#include "util/checksum.h"
#include "util/status.h"

namespace alp {
namespace {

using testutil::AlpSmall;
using testutil::Classify;
using testutil::Corpus;
using testutil::HighPrecisionData;
using testutil::kVersionByte;
using testutil::MutationOutcome;
using testutil::RdSmall;
using testutil::StripToV2;
using testutil::TwoRowgroups;

// ---------------------------------------------------------------------------
// Status / StatusOr substrate.

TEST(Status, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(Status, ErrorCarriesCodeMessageOffset) {
  const Status s = Status::Corrupt("packed width out of range", 1032);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  EXPECT_EQ(s.message(), "packed width out of range");
  EXPECT_EQ(s.offset(), 1032u);
  EXPECT_EQ(s.ToString(), "CORRUPT: packed width out of range (offset 1032)");

  const Status t = Status::Truncated("stream ends early");
  EXPECT_EQ(t.offset(), Status::kNoOffset);
  EXPECT_EQ(t.ToString(), "TRUNCATED: stream ends early");
}

TEST(Status, EveryCodeHasAName) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kTruncated), "TRUNCATED");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorrupt), "CORRUPT");
  EXPECT_EQ(StatusCodeName(StatusCode::kChecksumMismatch), "CHECKSUM_MISMATCH");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnsupportedVersion),
            "UNSUPPORTED_VERSION");
  EXPECT_EQ(StatusCodeName(StatusCode::kIo), "IO");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<std::vector<int>> good(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 3u);
  EXPECT_EQ((*good)[2], 3);

  StatusOr<std::vector<int>> bad(Status::Truncated("too short", 7));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTruncated);
  EXPECT_EQ(bad.status().offset(), 7u);

  // Move and copy keep the active member.
  StatusOr<std::vector<int>> moved(std::move(good));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->size(), 3u);
  StatusOr<std::vector<int>> copied(bad);
  ASSERT_FALSE(copied.ok());
  copied = moved;
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->size(), 3u);
}

// ---------------------------------------------------------------------------
// XXH64 checksum.

TEST(Checksum, DeterministicAndSeeded) {
  const std::string bytes = "alp checksum self-test payload";
  const uint64_t a = Checksum64(bytes.data(), bytes.size());
  EXPECT_EQ(a, Checksum64(bytes.data(), bytes.size()));
  EXPECT_NE(a, Checksum64(bytes.data(), bytes.size(), /*seed=*/1));
  EXPECT_NE(a, Checksum64(bytes.data(), bytes.size() - 1));
  EXPECT_EQ(Checksum64(nullptr, 0), Checksum64(nullptr, 0));
  EXPECT_NE(Checksum64(nullptr, 0), Checksum64("x", 1));
}

TEST(Checksum, SingleBitSensitivity) {
  std::mt19937_64 rng(42);
  std::vector<uint8_t> bytes(1024);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  const uint64_t base = Checksum64(bytes.data(), bytes.size());
  for (size_t trial = 0; trial < 256; ++trial) {
    const size_t bit = rng() % (bytes.size() * 8);
    bytes[bit / 8] ^= uint8_t{1} << (bit % 8);
    EXPECT_NE(base, Checksum64(bytes.data(), bytes.size())) << "bit " << bit;
    bytes[bit / 8] ^= uint8_t{1} << (bit % 8);
  }
  EXPECT_EQ(base, Checksum64(bytes.data(), bytes.size()));
}

TEST(Checksum, StreamMatchesOneShot) {
  std::mt19937_64 rng(7);
  std::vector<uint8_t> bytes(4096 + 17);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  const uint64_t expected = Checksum64(bytes.data(), bytes.size(), 99);

  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{31}, size_t{32},
                             size_t{33}, size_t{1000}, bytes.size()}) {
    Checksum64Stream stream(99);
    for (size_t at = 0; at < bytes.size(); at += chunk) {
      stream.Update(bytes.data() + at, std::min(chunk, bytes.size() - at));
    }
    EXPECT_EQ(stream.Finish(), expected) << "chunk " << chunk;
  }
}

// ---------------------------------------------------------------------------
// Column corpora and mutation helpers live in test_fixtures.h, shared with
// the golden-vector and parallel-pipeline suites.

// ---------------------------------------------------------------------------
// Valid buffers through the fallible path.

TEST(ColumnOpen, ValidBuffersRoundTrip) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(corpus->buffer.data(), corpus->buffer.size());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->format_version(), kColumnFormatVersion);
    ASSERT_EQ(reader->value_count(), corpus->values.size());

    std::vector<double> out(reader->value_count());
    const Status decode = reader->TryDecodeAll(out.data());
    ASSERT_TRUE(decode.ok()) << decode.ToString();
    EXPECT_EQ(std::memcmp(out.data(), corpus->values.data(),
                          out.size() * sizeof(double)),
              0);

    // Per-vector fallible decode agrees with the bulk path.
    std::vector<double> vec(kVectorSize);
    size_t at = 0;
    for (size_t v = 0; v < reader->vector_count(); ++v) {
      const Status s = reader->TryDecodeVector(v, vec.data());
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(std::memcmp(vec.data(), corpus->values.data() + at,
                            reader->VectorLength(v) * sizeof(double)),
                0);
      at += reader->VectorLength(v);
    }
  }
}

TEST(ColumnOpen, RejectsOutOfRangeRequests) {
  const Corpus& corpus = AlpSmall();
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(corpus.buffer.data(), corpus.buffer.size());
  ASSERT_TRUE(reader.ok());
  double out[kVectorSize];
  EXPECT_FALSE(reader->TryDecodeVector(reader->vector_count(), out).ok());
  EXPECT_FALSE(reader->TryDecodeVector(~size_t{0}, out).ok());
}

TEST(ColumnOpen, RejectsTrivialGarbage) {
  EXPECT_EQ(ColumnReader<double>::Open(nullptr, 0).status().code(),
            StatusCode::kTruncated);
  const uint8_t tiny[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(ColumnReader<double>::Open(tiny, sizeof(tiny)).ok());

  std::vector<uint8_t> bad = AlpSmall().buffer;
  bad[0] ^= 0xFF;  // Magic.
  StatusOr<ColumnReader<double>> magic =
      ColumnReader<double>::Open(bad.data(), bad.size());
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(magic.status().message(), "bad magic");

  // Float reader over a double column: wrong type tag.
  EXPECT_FALSE(
      ColumnReader<float>::Open(AlpSmall().buffer.data(), AlpSmall().buffer.size())
          .ok());
}

TEST(ColumnOpen, RejectsUnsupportedVersions) {
  for (const uint8_t version : {uint8_t{0}, uint8_t{1}, uint8_t{4}, uint8_t{99}}) {
    std::vector<uint8_t> bad = AlpSmall().buffer;
    bad[kVersionByte] = version;
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(bad.data(), bad.size());
    ASSERT_FALSE(reader.ok()) << "version " << int{version};
    EXPECT_EQ(reader.status().code(), StatusCode::kUnsupportedVersion);
    EXPECT_EQ(reader.status().message(), "unsupported format version");
  }
}

// ---------------------------------------------------------------------------
// v2 compatibility: checksum sections stripped, version byte set to 2
// (StripToV2 in test_fixtures.h).

TEST(ColumnV2Compat, V2BuffersStillDecode) {
  for (const Corpus* corpus : {&AlpSmall(), &RdSmall(), &TwoRowgroups()}) {
    SCOPED_TRACE(corpus->name);
    const std::vector<uint8_t> v2 = StripToV2(corpus->buffer);
    ASSERT_TRUE(ValidateColumn<double>(v2.data(), v2.size()));

    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(v2.data(), v2.size());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->format_version(), 2);
    EXPECT_EQ(Classify(v2, corpus->values), MutationOutcome::kRoundTripped);

    // The one decoder reads v2 too, vector by vector.
    std::vector<double> out(reader->value_count());
    for (size_t v = 0; v < reader->vector_count(); ++v) {
      reader->DecodeVector(v, out.data() + v * kVectorSize);
    }
    EXPECT_EQ(std::memcmp(out.data(), corpus->values.data(),
                          out.size() * sizeof(double)),
              0);
  }
}

TEST(ColumnV2Compat, V2SkipsChecksumButKeepsStructure) {
  // Flipping a payload bit in a v2 buffer must never be silently wrong:
  // with no checksum it may still be structurally rejected, or decode to
  // different-but-in-bounds values; the harness only demands no crash here,
  // which the sanitizer job turns into a real check.
  const std::vector<uint8_t> v2 = StripToV2(AlpSmall().buffer);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = v2;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    (void)Classify(bad, AlpSmall().values);  // Must not crash or read OOB.
  }
}

// ---------------------------------------------------------------------------
// Checksum verification on v3 buffers.

TEST(ColumnChecksum, PayloadFlipIsChecksumMismatch) {
  const Corpus& corpus = AlpSmall();
  // The final byte lies inside the last rowgroup's payload.
  std::vector<uint8_t> bad = corpus.buffer;
  bad.back() ^= 0x01;
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(bad.data(), bad.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kChecksumMismatch);
  EXPECT_EQ(reader.status().message(), "rowgroup payload checksum mismatch");
}

TEST(ColumnChecksum, IndexFlipIsChecksumMismatch) {
  const Corpus& corpus = AlpSmall();
  // Byte 8 is value_count: covered by the header checksum.
  std::vector<uint8_t> bad = corpus.buffer;
  bad[8] ^= 0x10;
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(bad.data(), bad.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kChecksumMismatch);
  EXPECT_EQ(reader.status().message(), "column header checksum mismatch");
}

// ---------------------------------------------------------------------------
// Exhaustive single-bit flips: every bit of two small columns.

void FlipEveryBit(const Corpus& corpus) {
  size_t mutations = 0;
  for (size_t byte = 0; byte < corpus.buffer.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = corpus.buffer;
      bad[byte] ^= uint8_t{1} << bit;
      const MutationOutcome outcome = Classify(bad, corpus.values);
      ++mutations;
      if (byte == kVersionByte) {
        // A version flip can disable checksum verification (3 -> 2), but
        // even then the decoded values must be exact or rejected.
        ASSERT_NE(outcome, MutationOutcome::kSilentCorruption)
            << corpus.name << " version bit " << bit;
      } else {
        // Every other byte is covered by a checksum: must be rejected.
        ASSERT_EQ(outcome, MutationOutcome::kRejected)
            << corpus.name << " byte " << byte << " bit " << bit;
      }
    }
  }
  EXPECT_GE(mutations, 2000u) << corpus.name;
}

TEST(ColumnBitFlips, EveryBitOfAlpColumnIsCaught) { FlipEveryBit(AlpSmall()); }

TEST(ColumnBitFlips, EveryBitOfRdColumnIsCaught) { FlipEveryBit(RdSmall()); }

TEST(ColumnBitFlips, SeededFlipsOnMultiRowgroupColumn) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bad = corpus.buffer;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    const MutationOutcome outcome = Classify(bad, corpus.values);
    if (bit / 8 == kVersionByte) {
      ASSERT_NE(outcome, MutationOutcome::kSilentCorruption) << "bit " << bit;
    } else {
      ASSERT_EQ(outcome, MutationOutcome::kRejected) << "bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Truncations.

TEST(ColumnTruncation, EveryPrefixOfV3IsRejected) {
  // The last rowgroup's checksum covers the buffer tail, so even a prefix
  // that only sheds alignment padding is caught on v3.
  const Corpus& corpus = AlpSmall();
  for (size_t len = 0; len < corpus.buffer.size(); ++len) {
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(corpus.buffer.data(), len);
    ASSERT_FALSE(reader.ok()) << "prefix " << len;
  }
}

TEST(ColumnTruncation, EveryPrefixOfV2RejectsOrRoundTrips) {
  // v2 has no checksums: a prefix can only be accepted if it still decodes
  // to exactly the original values (e.g. dropping trailing padding).
  const std::vector<uint8_t> v2 = StripToV2(RdSmall().buffer);
  for (size_t len = 0; len < v2.size(); ++len) {
    const std::vector<uint8_t> prefix(v2.begin(), v2.begin() + len);
    ASSERT_NE(Classify(prefix, RdSmall().values),
              MutationOutcome::kSilentCorruption)
        << "prefix " << len;
  }
}

TEST(ColumnTruncation, SeededTruncationsOfMultiRowgroupColumn) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = rng() % corpus.buffer.size();
    StatusOr<ColumnReader<double>> reader =
        ColumnReader<double>::Open(corpus.buffer.data(), len);
    ASSERT_FALSE(reader.ok()) << "prefix " << len;
  }
}

// ---------------------------------------------------------------------------
// Header/index mutations and garbage buffers.

TEST(ColumnMutation, SeededHeaderAndIndexMutations) {
  const Corpus& corpus = AlpSmall();
  std::mt19937_64 rng(31337);
  const size_t window = std::min<size_t>(corpus.buffer.size(), 192);
  for (int trial = 0; trial < 800; ++trial) {
    std::vector<uint8_t> bad = corpus.buffer;
    const unsigned edits = 1 + static_cast<unsigned>(rng() % 4);
    for (unsigned e = 0; e < edits; ++e) {
      bad[rng() % window] = static_cast<uint8_t>(rng());
    }
    ASSERT_NE(Classify(bad, corpus.values), MutationOutcome::kSilentCorruption)
        << "trial " << trial;
  }
}

TEST(ColumnMutation, SeededWholeBufferMutations) {
  const Corpus& corpus = TwoRowgroups();
  std::mt19937_64 rng(60601);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = corpus.buffer;
    const unsigned edits = 1 + static_cast<unsigned>(rng() % 8);
    for (unsigned e = 0; e < edits; ++e) {
      bad[rng() % bad.size()] = static_cast<uint8_t>(rng());
    }
    ASSERT_NE(Classify(bad, corpus.values), MutationOutcome::kSilentCorruption)
        << "trial " << trial;
  }
}

TEST(ColumnMutation, PureGarbageNeverCrashes) {
  std::mt19937_64 rng(987);
  std::vector<double> empty;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng() % 4096);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng());
    // Some trials get a plausible prefix so validation walks deeper.
    if (trial % 3 == 0 && garbage.size() >= 8) {
      const uint32_t magic = 0x43504C41;
      std::memcpy(garbage.data(), &magic, sizeof(magic));
      garbage[4] = (trial % 2 == 0) ? 2 : 3;
      garbage[5] = 0;
    }
    (void)ValidateColumn<double>(garbage.data(), garbage.size());
    (void)Classify(garbage, empty);  // Must not crash or read OOB.
  }
}

// ---------------------------------------------------------------------------
// Per-codec hardening: every strict prefix, plus seeded bit flips.

template <typename T>
std::vector<T> CodecData(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<T> data(n);
  for (auto& v : data) {
    const int64_t d = static_cast<int64_t>(rng() % 100000) - 50000;
    v = static_cast<T>(static_cast<double>(d) / 10.0);
    if (rng() % 64 == 0) v = static_cast<T>(DoubleFromBits(rng()));
  }
  return data;
}

template <typename T>
void CheckCodecHardening(codecs::Codec<T>& codec, const std::vector<T>& data) {
  SCOPED_TRACE(std::string(codec.name()));
  const size_t n = data.size();
  const std::vector<uint8_t> buffer = codec.Compress(data.data(), n);
  std::vector<T> out(n);

  // The untruncated stream decodes exactly.
  const Status full = codec.TryDecompress(buffer.data(), buffer.size(), n, out.data());
  ASSERT_TRUE(full.ok()) << full.ToString();
  ASSERT_EQ(std::memcmp(out.data(), data.data(), n * sizeof(T)), 0);

  // Every strict prefix: rejected, or (where the lost tail was padding)
  // still bit-exact. Never a crash, never silently different values.
  for (size_t len = 0; len < buffer.size(); ++len) {
    std::fill(out.begin(), out.end(), T{});
    const Status s = codec.TryDecompress(buffer.data(), len, n, out.data());
    if (s.ok()) {
      ASSERT_EQ(std::memcmp(out.data(), data.data(), n * sizeof(T)), 0)
          << "prefix " << len << " of " << buffer.size();
    }
  }

  // Seeded bit flips: no crash / OOB (values may legitimately differ for
  // codecs without checksums, so only memory safety is asserted; the CI
  // sanitizer job makes that assertion real).
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> bad = buffer;
    const size_t bit = rng() % (bad.size() * 8);
    bad[bit / 8] ^= uint8_t{1} << (bit % 8);
    (void)codec.TryDecompress(bad.data(), bad.size(), n, out.data());
  }
}

TEST(CodecHardening, DoubleCodecsSurviveTruncationAndFlips) {
  const std::vector<double> data = CodecData<double>(5150, kVectorSize + 313);
  for (const auto& codec : codecs::AllDoubleCodecs()) {
    CheckCodecHardening(*codec, data);
  }
  CheckCodecHardening(*codecs::MakeFpc(), data);
  CheckCodecHardening(*codecs::MakeLz(), data);
  CheckCodecHardening(*codecs::MakeAlpRdCodec(),
                      HighPrecisionData(5151, kVectorSize + 313));
}

TEST(CodecHardening, FloatCodecsSurviveTruncationAndFlips) {
  const std::vector<float> data = CodecData<float>(6160, kVectorSize + 217);
  for (const auto& codec : codecs::AllFloatCodecs()) {
    CheckCodecHardening(*codec, data);
  }
  CheckCodecHardening(*codecs::MakeAlpCodec32(), data);
}

// ---------------------------------------------------------------------------
// Cascade hardening: plain, dictionary and RLE corpora through the cascade's
// one decoder. Every mutation is either rejected or decodes bit-exactly.

struct CascadeCorpus {
  const char* name;
  std::vector<double> values;
  std::vector<uint8_t> buffer;
};

CascadeCorpus MakeCascadeCorpus(const char* name, std::vector<double> values,
                                CascadeStrategy want) {
  CascadeCorpus corpus{name, std::move(values), {}};
  CascadeStrategy used;
  corpus.buffer =
      CascadeCompress(corpus.values.data(), corpus.values.size(), {}, &used);
  EXPECT_EQ(used, want) << name;
  return corpus;
}

const std::vector<CascadeCorpus>& CascadeCorpora() {
  static const std::vector<CascadeCorpus> corpora = [] {
    std::mt19937_64 rng(2718);
    std::vector<double> dict_values(3000);
    for (auto& v : dict_values) v = static_cast<double>(rng() % 40) / 8.0;
    std::vector<double> rle_values;
    while (rle_values.size() < 3000) {
      rle_values.insert(rle_values.end(), 20 + rng() % 60, 0.0);
      rle_values.push_back(static_cast<double>(rng() % 10000) / 100.0);
    }
    std::vector<CascadeCorpus> out;
    out.push_back(MakeCascadeCorpus("plain", testutil::DecimalData(2719, 2500),
                                    CascadeStrategy::kPlain));
    out.push_back(MakeCascadeCorpus("dictionary", std::move(dict_values),
                                    CascadeStrategy::kDictionary));
    out.push_back(MakeCascadeCorpus("rle", std::move(rle_values),
                                    CascadeStrategy::kRle));
    return out;
  }();
  return corpora;
}

MutationOutcome ClassifyCascade(const std::vector<uint8_t>& buffer,
                                const std::vector<double>& values) {
  std::vector<double> out(values.size());
  if (!CascadeDecompress(buffer, out.data(), out.size()).ok()) {
    return MutationOutcome::kRejected;
  }
  return std::memcmp(out.data(), values.data(), values.size() * sizeof(double)) == 0
             ? MutationOutcome::kRoundTripped
             : MutationOutcome::kSilentCorruption;
}

TEST(CascadeHardening, CorporaRoundTrip) {
  for (const CascadeCorpus& corpus : CascadeCorpora()) {
    EXPECT_EQ(ClassifyCascade(corpus.buffer, corpus.values),
              MutationOutcome::kRoundTripped)
        << corpus.name;
  }
}

TEST(CascadeHardening, EveryPrefixRejectsOrRoundTrips) {
  // Only a prefix that sheds the plain corpus's trailing alignment padding
  // can still decode; everything else must be rejected.
  for (const CascadeCorpus& corpus : CascadeCorpora()) {
    for (size_t len = 0; len < corpus.buffer.size(); ++len) {
      const std::vector<uint8_t> prefix(corpus.buffer.begin(),
                                        corpus.buffer.begin() + len);
      ASSERT_NE(ClassifyCascade(prefix, corpus.values),
                MutationOutcome::kSilentCorruption)
          << corpus.name << " prefix " << len;
      if (len < 16) {
        EXPECT_FALSE(CascadeValueCount(prefix).ok()) << corpus.name << " " << len;
      }
    }
  }
}

TEST(CascadeHardening, SeededBitFlipsRejectOrRoundTrip) {
  // The nested ALP columns carry checksums and every other field is
  // cross-checked (counts, widths, extents, dictionary codes, run totals),
  // with one exception: a flip in the dictionary's code stream (packed
  // codes and their per-block bases) can select another valid entry, which
  // no check can tell apart. Those flips are held to memory safety only
  // (the sanitizer job makes that real).
  for (const CascadeCorpus& corpus : CascadeCorpora()) {
    SCOPED_TRACE(corpus.name);
    size_t codes_begin = corpus.buffer.size();
    if (corpus.name == std::string("dictionary")) {
      uint64_t nested_size;
      std::memcpy(&nested_size, corpus.buffer.data() + 16, sizeof(nested_size));
      // Nested column, its 8-byte alignment, the code count, then per
      // block a width byte padded to 8 and the 8-byte base.
      codes_begin = 24 + ((nested_size + 7) & ~uint64_t{7}) + 8 + 16;
    }
    std::mt19937_64 rng(4711);
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<uint8_t> bad = corpus.buffer;
      const size_t bit = rng() % (bad.size() * 8);
      bad[bit / 8] ^= uint8_t{1} << (bit % 8);
      const MutationOutcome outcome = ClassifyCascade(bad, corpus.values);
      if (bit / 8 < codes_begin) {
        ASSERT_NE(outcome, MutationOutcome::kSilentCorruption) << "bit " << bit;
      }
    }
  }
}

TEST(CascadeHardening, PureGarbageIsRejected) {
  std::mt19937_64 rng(1618);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> garbage(rng() % 4096);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng());
    const size_t n = 1 + rng() % 5000;
    // Most trials get a plausible header (strategy 0-2, the requested
    // count) so the decoder walks into the nested column and FFOR streams.
    if (trial % 4 != 0 && garbage.size() >= 16) {
      garbage[0] = static_cast<uint8_t>(trial % 3);
      const uint64_t count = n;
      std::memcpy(garbage.data() + 8, &count, sizeof(count));
    }
    std::vector<double> out(n);
    EXPECT_FALSE(CascadeDecompress(garbage, out.data(), n).ok()) << "trial " << trial;
  }
  // A valid nested column followed by garbage FFOR streams.
  for (const CascadeCorpus& corpus : CascadeCorpora()) {
    if (corpus.name == std::string("plain")) continue;
    uint64_t nested_size;
    std::memcpy(&nested_size, corpus.buffer.data() + 16, sizeof(nested_size));
    const size_t tail = 24 + ((nested_size + 7) & ~uint64_t{7});
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<uint8_t> bad = corpus.buffer;
      for (size_t i = tail; i < bad.size(); ++i) bad[i] = static_cast<uint8_t>(rng());
      ASSERT_NE(ClassifyCascade(bad, corpus.values), MutationOutcome::kSilentCorruption)
          << corpus.name << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace alp
