#pragma once

/**
 * @file
 * VBC container format: a byte-oriented stream header followed by
 * length-prefixed frame records.
 *
 * Layout:
 *   magic "VBC1" (4 bytes)
 *   header bits (BitWriter, byte-aligned at the end):
 *     version ue, width ue, height ue, fps_num ue, fps_den ue,
 *     frame_count ue, entropy bit, deblock bit, aq bit, num_refs ue
 *     [version >= 2] slice_count ue
 *   per frame:
 *     payload length u32 little-endian (includes the 1-byte header)
 *     frame byte: bit 0 = type (0 I / 1 P), bits 2..7 = base QP
 *     slice_count == 1: entropy payload (VLC bits or range-coded blob)
 *     slice_count  > 1: slice_count records of
 *       slice length u32 little-endian + slice entropy payload
 *     (walkSliceSegments parses this layout for both codecs)
 *
 * Single-slice streams are written as version 1 — byte-identical to
 * the pre-slice format — so slices are purely opt-in on the wire; a
 * version-2 header only appears when there is a slice_count to carry.
 */

#include <cstdint>
#include <cstring>
#include <optional>

#include "codec/bitio.h"
#include "codec/types.h"
#include "video/video.h"

namespace vbench::codec {

/** Sequence-level parameters carried in the stream header. */
struct StreamHeader {
    int width = 0;
    int height = 0;
    uint32_t fps_num = 30;
    uint32_t fps_den = 1;
    uint32_t frame_count = 0;
    EntropyMode entropy = EntropyMode::Vlc;
    bool deblock = true;
    bool adaptive_quant = false;
    uint32_t num_refs = 1;
    /// Entropy slice bands per frame; 1 = the legacy single-segment
    /// payload (written as a version-1 header, byte-identical to the
    /// pre-slice format).
    uint32_t slice_count = 1;

    double fps() const { return static_cast<double>(fps_num) / fps_den; }
};

inline constexpr char kMagic[4] = {'V', 'B', 'C', '1'};
inline constexpr uint32_t kVersion = 1;
/// Header version carrying a slice_count field (> 1 slices only).
inline constexpr uint32_t kVersionSlices = 2;
/// Upper bound on slice bands per frame; the encoder additionally
/// clamps to the frame's MB/SB row count. A typo'd VBENCH_SLICES must
/// not produce thousands of two-byte slices.
inline constexpr uint32_t kMaxSlices = 64;

/** Serialize the stream header onto a buffer. */
inline void
writeStreamHeader(ByteBuffer &out, const StreamHeader &header)
{
    out.insert(out.end(), kMagic, kMagic + 4);
    BitWriter bits(out);
    bits.putUe(header.slice_count > 1 ? kVersionSlices : kVersion);
    bits.putUe(static_cast<uint32_t>(header.width));
    bits.putUe(static_cast<uint32_t>(header.height));
    bits.putUe(header.fps_num);
    bits.putUe(header.fps_den);
    bits.putUe(header.frame_count);
    bits.putBit(header.entropy == EntropyMode::Arith);
    bits.putBit(header.deblock);
    bits.putBit(header.adaptive_quant);
    bits.putUe(header.num_refs);
    if (header.slice_count > 1)
        bits.putUe(header.slice_count);
    bits.align();
}

/**
 * Parse the stream header.
 * @param[out] consumed bytes consumed from `data`.
 * @return header, or nullopt if malformed.
 */
inline std::optional<StreamHeader>
parseStreamHeader(const uint8_t *data, size_t size, size_t &consumed)
{
    if (size < 8 || std::memcmp(data, kMagic, 4) != 0)
        return std::nullopt;
    BitReader bits(data + 4, size - 4);
    StreamHeader header;
    const uint32_t version = bits.getUe();
    if (version != kVersion && version != kVersionSlices)
        return std::nullopt;
    header.width = static_cast<int>(bits.getUe());
    header.height = static_cast<int>(bits.getUe());
    header.fps_num = bits.getUe();
    header.fps_den = bits.getUe();
    header.frame_count = bits.getUe();
    header.entropy = bits.getBit() ? EntropyMode::Arith : EntropyMode::Vlc;
    header.deblock = bits.getBit();
    header.adaptive_quant = bits.getBit();
    header.num_refs = bits.getUe();
    if (version >= kVersionSlices)
        header.slice_count = bits.getUe();
    if (bits.overflowed() || header.width <= 0 || header.height <= 0 ||
        header.fps_num == 0 || header.fps_den == 0 ||
        header.num_refs == 0 || header.num_refs > 8 ||
        header.slice_count == 0 || header.slice_count > kMaxSlices ||
        (version >= kVersionSlices && header.slice_count < 2)) {
        return std::nullopt;
    }
    consumed = 4 + (bits.bitPos() + 7) / 8;
    return header;
}

/**
 * First MB/SB row of slice band `s` when `rows` rows split into
 * `slices` horizontal bands of whole rows. Integer band math handles
 * row counts the slice count does not divide; encoder and decoder
 * derive the same bands from the same (rows, slices) pair. Band s
 * covers [sliceRowStart(rows, slices, s), sliceRowStart(rows, slices,
 * s + 1)).
 */
inline int
sliceRowStart(int rows, int slices, int s)
{
    return static_cast<int>(
        (static_cast<int64_t>(rows) * s) / slices);
}

/** Append a little-endian u32 (frame payload length). */
inline void
appendU32(ByteBuffer &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xFF));
    out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
    out.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
    out.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

inline uint32_t
readU32(const uint8_t *data)
{
    return static_cast<uint32_t>(data[0]) |
        (static_cast<uint32_t>(data[1]) << 8) |
        (static_cast<uint32_t>(data[2]) << 16) |
        (static_cast<uint32_t>(data[3]) << 24);
}

/**
 * Walk the slice segments of one frame payload — the bytes after the
 * frame byte — in order, handing each to
 * `decode_slice(data, size, row_begin, row_end)` (false: malformed
 * slice syntax) with its band of `rows` MB/SB rows. Shared by both
 * codecs' decoders.
 *
 * `slices` == 1 is the legacy layout: the whole payload is the one
 * segment, with no length prefix. Above 1, each segment is a u32
 * length — at least 4 bytes present, nonzero, fitting in what remains
 * — followed by that many bytes, and nothing may trail the last one.
 * False on any malformed layout (including `slices` outside
 * [1, rows]) or a failed `decode_slice`.
 */
template <class DecodeSlice>
bool
walkSliceSegments(const uint8_t *data, size_t size, int slices, int rows,
                  DecodeSlice &&decode_slice)
{
    if (slices < 1 || slices > rows)
        return false;
    if (slices == 1)
        return decode_slice(data, size, 0, rows);
    size_t offset = 0;
    for (int s = 0; s < slices; ++s) {
        if (size - offset < 4)
            return false;
        const uint32_t len = readU32(data + offset);
        offset += 4;
        if (len == 0 || size - offset < len)
            return false;
        if (!decode_slice(data + offset, static_cast<size_t>(len),
                          sliceRowStart(rows, slices, s),
                          sliceRowStart(rows, slices, s + 1)))
            return false;
        offset += len;
    }
    return offset == size;  // no trailing garbage after the last slice
}

/**
 * Decode every frame record of a stream and, for split-and-stitch
 * concatenation, of each back-to-back stream after it with the same
 * geometry; trailing bytes that are not a stream header are ignored.
 * Shared by both codecs' decoders: `parse_header(data, size,
 * consumed)` parses one container header (nullopt: malformed) and
 * `magic` opens every header; `make_state(header)` builds a fresh
 * per-stream decoder, and `decode_frame(state, payload, size, out)`
 * decodes one frame record into `out` (false: malformed).
 */
template <class ParseHeader, class MakeState, class DecodeFrame>
std::optional<video::Video>
decodeStreams(const uint8_t *data, size_t size, const char (&magic)[4],
              ParseHeader &&parse_header, MakeState &&make_state,
              DecodeFrame &&decode_frame)
{
    size_t offset = 0;
    auto header = parse_header(data, size, offset);
    if (!header)
        return std::nullopt;

    video::Video out(header->width, header->height, header->fps());
    while (true) {
        auto state = make_state(*header);
        for (uint32_t i = 0; i < header->frame_count; ++i) {
            if (offset + 4 > size)
                return std::nullopt;
            const uint32_t payload_len = readU32(data + offset);
            offset += 4;
            if (payload_len == 0 || offset + payload_len > size)
                return std::nullopt;
            if (!decode_frame(state, data + offset, payload_len, out))
                return std::nullopt;
            offset += payload_len;
        }
        if (size - offset < 4 || std::memcmp(data + offset, magic, 4) != 0)
            break;
        size_t consumed = 0;
        header = parse_header(data + offset, size - offset, consumed);
        if (!header)
            return std::nullopt;
        if (header->width != out.width() || header->height != out.height())
            return std::nullopt;
        offset += consumed;
    }
    return out;
}

/** Pack / unpack the 1-byte frame header. */
inline uint8_t
packFrameByte(FrameType type, int qp)
{
    return static_cast<uint8_t>((type == FrameType::P ? 1 : 0) |
                                ((qp & 0x3F) << 2));
}

inline FrameType
frameTypeFromByte(uint8_t b)
{
    return (b & 1) ? FrameType::P : FrameType::I;
}

inline int
frameQpFromByte(uint8_t b)
{
    return (b >> 2) & 0x3F;
}

} // namespace vbench::codec
