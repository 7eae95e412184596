/**
 * @file
 * Slice wire-format robustness, both codecs: a multi-slice frame
 * payload is a sequence of u32-length-prefixed slice records, and the
 * decoders must survive every way that framing can be damaged —
 * truncation at every byte offset (cutting inside slice headers and
 * payloads alike), corrupted length prefixes (zero, short, huge),
 * trailing garbage after the last slice, and more slices than rows —
 * by rejecting cleanly, never by reading out of bounds. Both decoders
 * walk the layout with codec::walkSliceSegments, which is also tested
 * directly. The same sources are rebuilt under
 * ASan+UBSan as sanitize.* (tests/CMakeLists.txt) so an out-of-bounds
 * read is a hard failure, not luck.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "ngc/ngc_bitstream.h"
#include "ngc/ngc_decoder.h"
#include "ngc/ngc_encoder.h"
#include "video/rng.h"
#include "video/synth.h"

namespace vbench::codec {
namespace {

video::Video
clip()
{
    // Unaligned height: the last slice band is shorter than the rest.
    return video::synthesize(
        video::presetFor(video::ContentClass::Gaming, 96, 80, 30.0, 4,
                         4242),
        "slices");
}

ByteBuffer
vbcStream(int slices)
{
    EncoderConfig cfg;
    cfg.rc.mode = RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.effort = 4;
    cfg.gop = 4;
    cfg.slice_count = slices;
    return Encoder(cfg).encode(clip()).stream;
}

ByteBuffer
ngcStream(int slices)
{
    ngc::NgcConfig cfg;
    cfg.rc.mode = RcMode::Cqp;
    cfg.rc.qp = 28;
    cfg.speed = 2;
    cfg.gop = 4;
    cfg.slice_count = slices;
    return ngc::NgcEncoder(cfg).encode(clip()).stream;
}

TEST(SliceTruncation, EveryPrefixIsRejectedOrPartialVbc)
{
    const video::Video v = clip();
    const ByteBuffer good = vbcStream(4);
    ASSERT_TRUE(decode(good).has_value());
    for (size_t keep = 0; keep < good.size(); ++keep) {
        const ByteBuffer prefix(good.begin(),
                                good.begin() + static_cast<long>(keep));
        const auto decoded = decode(prefix);
        // A cut inside a slice header or payload can never yield the
        // full clip; whole-frame prefixes may decode the frames before
        // the cut.
        if (decoded) {
            EXPECT_LT(decoded->frameCount(), v.frameCount())
                << "prefix " << keep;
        }
    }
}

TEST(SliceTruncation, EveryPrefixIsRejectedOrPartialNgc)
{
    const video::Video v = clip();
    const ByteBuffer good = ngcStream(4);
    ASSERT_TRUE(ngc::ngcDecode(good).has_value());
    for (size_t keep = 0; keep < good.size(); ++keep) {
        const ByteBuffer prefix(good.begin(),
                                good.begin() + static_cast<long>(keep));
        const auto decoded = ngc::ngcDecode(prefix);
        if (decoded) {
            EXPECT_LT(decoded->frameCount(), v.frameCount())
                << "prefix " << keep;
        }
    }
}

/**
 * Flip bits across the stream — length prefixes included — and demand
 * termination without UB. Length-prefix damage turns one slice's
 * record into a short, huge, or misaligned claim, which the decoder
 * must bound-check against the payload it actually has.
 */
void
flipSweep(const ByteBuffer &good, uint64_t seed,
          bool (*try_decode)(const ByteBuffer &))
{
    video::Rng rng(seed);
    int decodable = 0;
    for (int trial = 0; trial < 300; ++trial) {
        ByteBuffer mutated = good;
        const int flips = 1 + static_cast<int>(rng.below(8));
        for (int i = 0; i < flips; ++i) {
            const size_t pos = rng.below(mutated.size());
            mutated[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
        }
        if (try_decode(mutated))
            ++decodable;
    }
    // Some mutations must break the slice framing and be rejected.
    EXPECT_LT(decodable, 300);
}

TEST(SliceTruncation, BitFlippedSliceFramesNeverCrashVbc)
{
    flipSweep(vbcStream(4), 7, [](const ByteBuffer &b) {
        return decode(b).has_value();
    });
}

TEST(SliceTruncation, BitFlippedSliceFramesNeverCrashNgc)
{
    flipSweep(ngcStream(4), 9, [](const ByteBuffer &b) {
        return ngc::ngcDecode(b).has_value();
    });
}

/** Byte offset of the first frame's first slice length prefix. */
size_t
firstSlicePrefixOffset(const ByteBuffer &stream)
{
    size_t consumed = 0;
    const auto header =
        parseStreamHeader(stream.data(), stream.size(), consumed);
    EXPECT_TRUE(header.has_value());
    EXPECT_GT(header->slice_count, 1u);
    // frame payload length u32, then the 1-byte frame header, then the
    // first slice record's length prefix.
    return consumed + 4 + 1;
}

/** Same, for the NGC container (own magic and header fields). */
size_t
firstNgcSlicePrefixOffset(const ByteBuffer &stream)
{
    size_t consumed = 0;
    const auto header =
        ngc::parseNgcHeader(stream.data(), stream.size(), consumed);
    EXPECT_TRUE(header.has_value());
    EXPECT_GT(header->slice_count, 1u);
    return consumed + 4 + 1;
}

TEST(SliceTruncation, CorruptedSliceLengthPrefixIsRejectedVbc)
{
    const ByteBuffer good = vbcStream(4);
    const size_t at = firstSlicePrefixOffset(good);
    ASSERT_LE(at + 4, good.size());

    // A zero-length slice record is meaningless and must be refused.
    ByteBuffer zeroed = good;
    for (int i = 0; i < 4; ++i)
        zeroed[at + static_cast<size_t>(i)] = 0x00;
    EXPECT_FALSE(decode(zeroed).has_value());

    // A length claiming far past the payload end must be refused, not
    // read.
    ByteBuffer huge = good;
    for (int i = 0; i < 4; ++i)
        huge[at + static_cast<size_t>(i)] = 0xFF;
    EXPECT_FALSE(decode(huge).has_value());
}

TEST(SliceTruncation, CorruptedSliceLengthPrefixIsRejectedNgc)
{
    const ByteBuffer good = ngcStream(4);
    const size_t at = firstNgcSlicePrefixOffset(good);
    ASSERT_LE(at + 4, good.size());

    ByteBuffer zeroed = good;
    for (int i = 0; i < 4; ++i)
        zeroed[at + static_cast<size_t>(i)] = 0x00;
    EXPECT_FALSE(ngc::ngcDecode(zeroed).has_value());

    ByteBuffer huge = good;
    for (int i = 0; i < 4; ++i)
        huge[at + static_cast<size_t>(i)] = 0xFF;
    EXPECT_FALSE(ngc::ngcDecode(huge).has_value());
}

/**
 * Rewrite frame 0's payload (frame byte + slice records) and fix up
 * its length prefix, so the container stays well-formed and only the
 * slice walk can object.
 */
ByteBuffer
rewriteFrame0(const ByteBuffer &stream, size_t header_size,
              const std::function<void(ByteBuffer &)> &edit)
{
    const size_t at = header_size + 4;
    const uint32_t len = readU32(stream.data() + header_size);
    ByteBuffer payload(stream.begin() + static_cast<long>(at),
                       stream.begin() + static_cast<long>(at + len));
    edit(payload);
    ByteBuffer out(stream.begin(),
                   stream.begin() + static_cast<long>(header_size));
    appendU32(out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    out.insert(out.end(), stream.begin() + static_cast<long>(at + len),
               stream.end());
    return out;
}

void
setU32(ByteBuffer &buf, size_t at, uint32_t v)
{
    ByteBuffer le;
    appendU32(le, v);
    std::copy(le.begin(), le.end(), buf.begin() + static_cast<long>(at));
}

struct Layout {
    std::string name;
    ByteBuffer stream;
};

/**
 * Every malformed slice layout of a 4-slice stream, frame 0 damaged:
 * a zero length, a length one byte past the payload, a prefix cut to
 * 2 bytes, trailing garbage after the last slice, and (via
 * `with_slices`, which re-serializes the header) more slices than the
 * frame has rows.
 */
std::vector<Layout>
malformedLayouts(const ByteBuffer &good, size_t header_size, int rows,
                 const std::function<ByteBuffer(int)> &with_slices)
{
    std::vector<Layout> out;
    out.push_back({"zero length", rewriteFrame0(good, header_size,
                                                [](ByteBuffer &p) {
                                                    setU32(p, 1, 0);
                                                })});
    out.push_back({"overlong length",
                   rewriteFrame0(good, header_size, [](ByteBuffer &p) {
                       setU32(p, 1,
                              static_cast<uint32_t>(p.size() - 5 + 1));
                   })});
    out.push_back({"short prefix",
                   rewriteFrame0(good, header_size, [](ByteBuffer &p) {
                       // Slice 0 intact, then half of slice 1's prefix.
                       p.resize(5 + readU32(p.data() + 1) + 2);
                   })});
    out.push_back({"trailing garbage",
                   rewriteFrame0(good, header_size, [](ByteBuffer &p) {
                       p.push_back(0xAB);
                       p.push_back(0xCD);
                   })});
    out.push_back({"too many slices", with_slices(rows + 1)});
    return out;
}

TEST(SliceTruncation, MalformedSliceLayoutsAreRejectedVbc)
{
    const ByteBuffer good = vbcStream(4);
    size_t consumed = 0;
    const auto header =
        parseStreamHeader(good.data(), good.size(), consumed);
    ASSERT_TRUE(header.has_value());
    ASSERT_TRUE(decode(good).has_value());
    const int rows = (header->height + 15) / 16;
    const auto with_slices = [&](int slices) {
        StreamHeader h = *header;
        h.slice_count = static_cast<uint32_t>(slices);
        ByteBuffer out;
        writeStreamHeader(out, h);
        out.insert(out.end(), good.begin() + static_cast<long>(consumed),
                   good.end());
        return out;
    };
    for (const Layout &l :
         malformedLayouts(good, consumed, rows, with_slices))
        EXPECT_FALSE(decode(l.stream).has_value()) << l.name;
}

TEST(SliceTruncation, MalformedSliceLayoutsAreRejectedNgc)
{
    const ByteBuffer good = ngcStream(4);
    size_t consumed = 0;
    const auto header =
        ngc::parseNgcHeader(good.data(), good.size(), consumed);
    ASSERT_TRUE(header.has_value());
    ASSERT_TRUE(ngc::ngcDecode(good).has_value());
    const int rows = (header->height + ngc::kSbSize - 1) / ngc::kSbSize;
    const auto with_slices = [&](int slices) {
        ngc::NgcStreamHeader h = *header;
        h.slice_count = static_cast<uint32_t>(slices);
        ByteBuffer out;
        ngc::writeNgcHeader(out, h);
        out.insert(out.end(), good.begin() + static_cast<long>(consumed),
                   good.end());
        return out;
    };
    for (const Layout &l :
         malformedLayouts(good, consumed, rows, with_slices))
        EXPECT_FALSE(ngc::ngcDecode(l.stream).has_value()) << l.name;
}

TEST(SliceTruncation, SegmentWalkRejectsMalformedLayouts)
{
    // Three slices over 6 rows: records of 2, 1 and 3 bytes.
    ByteBuffer good;
    for (const uint32_t len : {2u, 1u, 3u}) {
        appendU32(good, len);
        good.insert(good.end(), len, static_cast<uint8_t>(len));
    }
    std::vector<int> bands;
    const auto record = [&](const uint8_t *data, size_t size, int begin,
                            int end) {
        EXPECT_EQ(data[0], size);
        bands.push_back(begin);
        bands.push_back(end);
        return true;
    };
    const auto walk = [&](const ByteBuffer &b, int slices, int rows) {
        return walkSliceSegments(b.data(), b.size(), slices, rows, record);
    };
    ASSERT_TRUE(walk(good, 3, 6));
    EXPECT_EQ(bands, (std::vector<int>{0, 2, 2, 4, 4, 6}));

    // One slice: the whole payload is the segment, no prefix.
    bands.clear();
    const ByteBuffer raw = {5, 1, 2, 3, 4};
    EXPECT_TRUE(walk(raw, 1, 6));
    EXPECT_EQ(bands, (std::vector<int>{0, 6}));

    EXPECT_FALSE(walk(good, 0, 6)) << "no slices";
    ByteBuffer seven;  // seven well-formed one-byte records
    for (int i = 0; i < 7; ++i) {
        appendU32(seven, 1);
        seven.push_back(1);
    }
    EXPECT_TRUE(walk(seven, 7, 7));
    EXPECT_FALSE(walk(seven, 7, 6)) << "more slices than rows";
    EXPECT_FALSE(walk(good, 4, 6)) << "fewer records than slices";
    EXPECT_FALSE(walk(good, 2, 6)) << "trailing bytes";

    ByteBuffer zero = good;
    setU32(zero, 0, 0);
    EXPECT_FALSE(walk(zero, 3, 6)) << "zero length";

    ByteBuffer overlong = good;
    setU32(overlong, 0, static_cast<uint32_t>(good.size()));
    EXPECT_FALSE(walk(overlong, 3, 6)) << "overlong length";

    const ByteBuffer short_prefix(good.begin(), good.begin() + 6 + 2);
    EXPECT_FALSE(walk(short_prefix, 3, 6)) << "short prefix";

    // A failing slice decode stops the walk.
    int calls = 0;
    EXPECT_FALSE(walkSliceSegments(
        good.data(), good.size(), 3, 6,
        [&](const uint8_t *, size_t, int, int) { return ++calls < 2; }));
    EXPECT_EQ(calls, 2);
}

} // namespace
} // namespace vbench::codec
