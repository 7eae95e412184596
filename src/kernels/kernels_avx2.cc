/**
 * @file
 * AVX2 kernel backend. Compiled per-TU with -mavx2; on hosts or builds
 * without AVX2 the guard compiles this down to a null table and the
 * dispatcher stops at SSE2.
 *
 * Overrides only the kernels that benefit from 256-bit lanes: SAD (row
 * pairing keeps 16-wide macroblocks on full-width psadbw), the 8x8
 * transform pair (two 4x4 sub-blocks ride in the two 128-bit lanes),
 * quant/dequant, vertical and 2-D interpolation, the residual diff,
 * and the PSNR sum of squares. SATD, the single 4x4 transforms,
 * horizontal interpolation, reconstruction (add + clamp), deblocking
 * and the 8-wide SSIM window stay on the SSE2 versions: they already
 * fill their lanes, and the AVX2 versions of horizontal interpolation
 * and reconstruction measured slower than SSE2 at every block size
 * the codecs use. An AVX2 SATD (two 8x4 int16 strips per vector)
 * measured about twice as fast at 16x16 and 32x32 but no faster at
 * 8x8, so SATD keeps the SSE2 kernel at every shape (docs/PERF.md).
 * All the same bit-exactness arguments as the SSE2 TU apply (wrapping
 * packs, 64-bit quant math, exact pavgb/psadbw).
 */

#include "kernels/kernel_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdlib>
#include <cstring>

#include "kernels/quant_tables.h"

namespace vbench::kernels {

namespace {

/** Load 16 bytes and zero-extend to 16 uint16 lanes. */
inline __m256i
load16u16(const uint8_t *p)
{
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

/** Load 8 bytes and zero-extend to 8 uint16 lanes (SSE width). */
inline __m128i
load8u16(const uint8_t *p)
{
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
        _mm_setzero_si128());
}

/** Per-128-lane 4x4 transpose of int32 elements. */
inline void
transpose4x32(__m256i &r0, __m256i &r1, __m256i &r2, __m256i &r3)
{
    const __m256i t0 = _mm256_unpacklo_epi32(r0, r1);
    const __m256i t1 = _mm256_unpackhi_epi32(r0, r1);
    const __m256i t2 = _mm256_unpacklo_epi32(r2, r3);
    const __m256i t3 = _mm256_unpackhi_epi32(r2, r3);
    r0 = _mm256_unpacklo_epi64(t0, t2);
    r1 = _mm256_unpackhi_epi64(t0, t2);
    r2 = _mm256_unpacklo_epi64(t1, t3);
    r3 = _mm256_unpackhi_epi64(t1, t3);
}

/**
 * Truncate 8 int32 lanes to 8 int16 in the low 128 bits (wrapping,
 * matching static_cast<int16_t>).
 */
inline __m128i
wrapPack16(__m256i v)
{
    v = _mm256_shufflelo_epi16(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm256_shufflehi_epi16(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(3, 3, 2, 0));
    return _mm256_castsi256_si128(v);
}

/**
 * Narrow 16 uint16 lanes to 16 bytes with unsigned saturation,
 * compacting the per-lane packus results.
 */
inline __m128i
packusRow(__m256i v)
{
    const __m256i packed = _mm256_packus_epi16(v, v);
    return _mm256_castsi256_si128(
        _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 3, 2, 0)));
}

/** Sum of the four 64-bit lanes (psadbw accumulator). */
inline uint64_t
hsum64(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
        static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

// ----- SAD ---------------------------------------------------------

uint32_t
sadAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    __m256i acc = _mm256_setzero_si256();
    if (w == 16 && (h & 1) == 0) {
        // The dominant macroblock shape: pair rows so psadbw runs at
        // full 256-bit width.
        for (int r = 0; r < h; r += 2) {
            const __m256i va = _mm256_inserti128_si256(
                _mm256_castsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(a + r * a_stride))),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    a + (r + 1) * a_stride)),
                1);
            const __m256i vb = _mm256_inserti128_si256(
                _mm256_castsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(b + r * b_stride))),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    b + (r + 1) * b_stride)),
                1);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        return static_cast<uint32_t>(hsum64(acc));
    }
    __m128i acc128 = _mm_setzero_si128();
    uint32_t tail = 0;
    for (int r = 0; r < h; ++r) {
        const uint8_t *pa = a + r * a_stride;
        const uint8_t *pb = b + r * b_stride;
        int c = 0;
        for (; c + 32 <= w; c += 32) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pa + c));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pb + c));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        if (c + 16 <= w) {
            const __m128i va = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pa + c));
            const __m128i vb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pb + c));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
            c += 16;
        }
        if (c + 8 <= w) {
            const __m128i va = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(pa + c));
            const __m128i vb = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(pb + c));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
            c += 8;
        }
        for (; c < w; ++c)
            tail += static_cast<uint32_t>(std::abs(pa[c] - pb[c]));
    }
    const uint64_t lanes128 =
        static_cast<uint64_t>(_mm_cvtsi128_si64(acc128)) +
        static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc128, acc128)));
    return static_cast<uint32_t>(hsum64(acc) + lanes128) + tail;
}

// ----- Interpolation -----------------------------------------------

void
interpVAvx2(const uint8_t *src, int src_stride, uint8_t *dst,
            int dst_stride, int w, int h)
{
    const int off = src_stride;
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 32 <= w; c += 32) {
            const __m256i v0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(s + c));
            const __m256i v1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(s + c + off));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(d + c),
                                _mm256_avg_epu8(v0, v1));
        }
        if (c + 16 <= w) {
            const __m128i v0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s + c));
            const __m128i v1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s + c + off));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + c),
                             _mm_avg_epu8(v0, v1));
            c += 16;
        }
        if (c + 8 <= w) {
            const __m128i v0 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(s + c));
            const __m128i v1 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(s + c + off));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_avg_epu8(v0, v1));
            c += 8;
        }
        for (; c < w; ++c)
            d[c] = static_cast<uint8_t>((s[c] + s[c + off] + 1) >> 1);
    }
}

void
interpHVAvx2(const uint8_t *src, int src_stride, uint8_t *dst,
             int dst_stride, int w, int h)
{
    const __m256i two256 = _mm256_set1_epi16(2);
    const __m128i two128 = _mm_set1_epi16(2);
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            const __m256i v00 = load16u16(s + c);
            const __m256i v01 = load16u16(s + c + 1);
            const __m256i v10 = load16u16(s + c + src_stride);
            const __m256i v11 = load16u16(s + c + src_stride + 1);
            __m256i sum = _mm256_add_epi16(_mm256_add_epi16(v00, v01),
                                           _mm256_add_epi16(v10, v11));
            sum = _mm256_srli_epi16(_mm256_add_epi16(sum, two256), 2);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + c),
                             packusRow(sum));
        }
        if (c + 8 <= w) {
            const __m128i v00 = load8u16(s + c);
            const __m128i v01 = load8u16(s + c + 1);
            const __m128i v10 = load8u16(s + c + src_stride);
            const __m128i v11 = load8u16(s + c + src_stride + 1);
            __m128i sum = _mm_add_epi16(_mm_add_epi16(v00, v01),
                                        _mm_add_epi16(v10, v11));
            sum = _mm_srli_epi16(_mm_add_epi16(sum, two128), 2);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_packus_epi16(sum, sum));
            c += 8;
        }
        for (; c < w; ++c) {
            d[c] = static_cast<uint8_t>(
                (s[c] + s[c + 1] + s[c + src_stride] +
                 s[c + src_stride + 1] + 2) >> 2);
        }
    }
}

// ----- 8x8 transforms (two 4x4 sub-blocks per vector) ---------------

void
fwdTx8x8Avx2(const int16_t residual[64], int32_t coefs[64])
{
    for (int half = 0; half < 2; ++half) {
        // Rows half*4 .. half*4+3 carry sub-blocks (half*2) in the low
        // 128-bit lane and (half*2 + 1) in the high lane.
        __m256i c0, c1, c2, c3;
        {
            const int16_t *rows = residual + half * 4 * 8;
            c0 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 0 * 8)));
            c1 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 1 * 8)));
            c2 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 2 * 8)));
            c3 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 3 * 8)));
        }
        transpose4x32(c0, c1, c2, c3);
        __m256i s0 = _mm256_add_epi32(c0, c3);
        __m256i s1 = _mm256_add_epi32(c1, c2);
        __m256i s2 = _mm256_sub_epi32(c1, c2);
        __m256i s3 = _mm256_sub_epi32(c0, c3);
        __m256i t0 = _mm256_add_epi32(s0, s1);
        __m256i t1 = _mm256_add_epi32(_mm256_slli_epi32(s3, 1), s2);
        __m256i t2 = _mm256_sub_epi32(s0, s1);
        __m256i t3 = _mm256_sub_epi32(s3, _mm256_slli_epi32(s2, 1));
        transpose4x32(t0, t1, t2, t3);
        s0 = _mm256_add_epi32(t0, t3);
        s1 = _mm256_add_epi32(t1, t2);
        s2 = _mm256_sub_epi32(t1, t2);
        s3 = _mm256_sub_epi32(t0, t3);
        const __m256i o0 = _mm256_add_epi32(s0, s1);
        const __m256i o1 =
            _mm256_add_epi32(_mm256_slli_epi32(s3, 1), s2);
        const __m256i o2 = _mm256_sub_epi32(s0, s1);
        const __m256i o3 =
            _mm256_sub_epi32(s3, _mm256_slli_epi32(s2, 1));
        int32_t *left = coefs + (half * 2 + 0) * 16;
        int32_t *right = coefs + (half * 2 + 1) * 16;
        const __m256i out[4] = {o0, o1, o2, o3};
        for (int i = 0; i < 4; ++i) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(left + i * 4),
                             _mm256_castsi256_si128(out[i]));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(right + i * 4),
                             _mm256_extracti128_si256(out[i], 1));
        }
    }
}

void
invTx8x8Avx2(const int32_t coefs[64], int16_t residual[64])
{
    const __m256i round = _mm256_set1_epi32(32);
    for (int half = 0; half < 2; ++half) {
        const int32_t *left = coefs + (half * 2 + 0) * 16;
        const int32_t *right = coefs + (half * 2 + 1) * 16;
        __m256i c[4];
        for (int i = 0; i < 4; ++i) {
            c[i] = _mm256_inserti128_si256(
                _mm256_castsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(left + i * 4))),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(right + i * 4)),
                1);
        }
        transpose4x32(c[0], c[1], c[2], c[3]);
        __m256i e0 = _mm256_add_epi32(c[0], c[2]);
        __m256i e1 = _mm256_sub_epi32(c[0], c[2]);
        __m256i e2 =
            _mm256_sub_epi32(_mm256_srai_epi32(c[1], 1), c[3]);
        __m256i e3 =
            _mm256_add_epi32(c[1], _mm256_srai_epi32(c[3], 1));
        __m256i t0 = _mm256_add_epi32(e0, e3);
        __m256i t1 = _mm256_add_epi32(e1, e2);
        __m256i t2 = _mm256_sub_epi32(e1, e2);
        __m256i t3 = _mm256_sub_epi32(e0, e3);
        transpose4x32(t0, t1, t2, t3);
        e0 = _mm256_add_epi32(t0, t2);
        e1 = _mm256_sub_epi32(t0, t2);
        e2 = _mm256_sub_epi32(_mm256_srai_epi32(t1, 1), t3);
        e3 = _mm256_add_epi32(t1, _mm256_srai_epi32(t3, 1));
        const __m256i o[4] = {
            _mm256_srai_epi32(
                _mm256_add_epi32(_mm256_add_epi32(e0, e3), round), 6),
            _mm256_srai_epi32(
                _mm256_add_epi32(_mm256_add_epi32(e1, e2), round), 6),
            _mm256_srai_epi32(
                _mm256_add_epi32(_mm256_sub_epi32(e1, e2), round), 6),
            _mm256_srai_epi32(
                _mm256_add_epi32(_mm256_sub_epi32(e0, e3), round), 6),
        };
        for (int i = 0; i < 4; ++i) {
            // Low lane = columns 0-3, high lane = columns 4-7 of the
            // same output row: one contiguous 8-int16 store.
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(residual +
                                            (half * 4 + i) * 8),
                wrapPack16(o[i]));
        }
    }
}

// ----- Quantization ------------------------------------------------

int
quant4x4Avx2(const int32_t coefs[16], int16_t levels[16], int qp,
             bool intra)
{
    const int rem = qp % 6;
    const int qbits = 15 + qp / 6;
    const int64_t f = (1ll << qbits) / (intra ? 3 : 6);
    const __m256i f64 = _mm256_set1_epi64x(f);
    // Rows 0-1 and rows 2-3 share the a,c,a,c / c,b,c,b multiplier
    // pattern, so one 8-lane vector covers both halves.
    const __m256i mf = _mm256_setr_epi32(
        kQuantMf[rem][0], kQuantMf[rem][2], kQuantMf[rem][0],
        kQuantMf[rem][2], kQuantMf[rem][2], kQuantMf[rem][1],
        kQuantMf[rem][2], kQuantMf[rem][1]);
    const __m128i zero = _mm_setzero_si128();
    int nonzero = 0;
    for (int half = 0; half < 2; ++half) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(coefs + half * 8));
        const __m256i sign = _mm256_srai_epi32(w, 31);
        const __m256i absw =
            _mm256_sub_epi32(_mm256_xor_si256(w, sign), sign);
        const __m256i prod02 = _mm256_mul_epu32(absw, mf);
        const __m256i prod13 = _mm256_mul_epu32(
            _mm256_srli_si256(absw, 4), _mm256_srli_si256(mf, 4));
        const __m256i mag02 =
            _mm256_srli_epi64(_mm256_add_epi64(prod02, f64), qbits);
        const __m256i mag13 =
            _mm256_srli_epi64(_mm256_add_epi64(prod13, f64), qbits);
        const __m256i mag = _mm256_unpacklo_epi32(
            _mm256_shuffle_epi32(mag02, _MM_SHUFFLE(3, 3, 2, 0)),
            _mm256_shuffle_epi32(mag13, _MM_SHUFFLE(3, 3, 2, 0)));
        const __m256i lvl32 =
            _mm256_sub_epi32(_mm256_xor_si256(mag, sign), sign);
        const __m128i lvl16 = wrapPack16(lvl32);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + half * 8),
                         lvl16);
        const int zmask = _mm_movemask_epi8(_mm_cmpeq_epi16(lvl16, zero));
        nonzero +=
            8 - __builtin_popcount(static_cast<unsigned>(zmask)) / 2;
    }
    return nonzero;
}

void
dequant4x4Avx2(const int16_t levels[16], int32_t coefs[16], int qp)
{
    const int rem = qp % 6;
    const int shift = qp / 6;
    const int16_t a = static_cast<int16_t>(kDequantV[rem][0]);
    const int16_t b = static_cast<int16_t>(kDequantV[rem][1]);
    const int16_t cc = static_cast<int16_t>(kDequantV[rem][2]);
    const __m256i v = _mm256_setr_epi16(a, cc, a, cc, cc, b, cc, b, a, cc,
                                        a, cc, cc, b, cc, b);
    const __m256i lv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(levels));
    const __m256i lo = _mm256_mullo_epi16(lv, v);
    const __m256i hi = _mm256_mulhi_epi16(lv, v);
    const __m256i p_lo =
        _mm256_slli_epi32(_mm256_unpacklo_epi16(lo, hi), shift);
    const __m256i p_hi =
        _mm256_slli_epi32(_mm256_unpackhi_epi16(lo, hi), shift);
    // Per-lane unpack order: p_lo = rows {0, 2}, p_hi = rows {1, 3}.
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 0),
                     _mm256_castsi256_si128(p_lo));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 4),
                     _mm256_castsi256_si128(p_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 8),
                     _mm256_extracti128_si256(p_lo, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 12),
                     _mm256_extracti128_si256(p_hi, 1));
}

// ----- Residual / reconstruction -----------------------------------

void
diffBlockAvx2(const uint8_t *src, int src_stride, const uint8_t *pred,
              int pred_stride, int16_t *out, int out_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        const uint8_t *p = pred + r * pred_stride;
        int16_t *o = out + r * out_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(o + c),
                _mm256_sub_epi16(load16u16(s + c), load16u16(p + c)));
        }
        if (c + 8 <= w) {
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(o + c),
                _mm_sub_epi16(load8u16(s + c), load8u16(p + c)));
            c += 8;
        }
        for (; c < w; ++c)
            o[c] = static_cast<int16_t>(s[c] - p[c]);
    }
}

// ----- Metrics -----------------------------------------------------

uint64_t
sse8Avx2(const uint8_t *a, const uint8_t *b, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t total = 0;
    size_t i = 0;
    // Chunk so the int32 accumulator lanes cannot overflow: each
    // 32-byte step adds at most 2 * 2 * 255^2 < 2^19 per lane.
    while (i + 32 <= n) {
        const size_t chunk_end =
            i + (((n - i) / 32 < 4096 ? (n - i) / 32 : 4096) * 32);
        __m256i acc = _mm256_setzero_si256();
        for (; i < chunk_end; i += 32) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i));
            const __m256i dlo =
                _mm256_sub_epi16(_mm256_unpacklo_epi8(va, zero),
                                 _mm256_unpacklo_epi8(vb, zero));
            const __m256i dhi =
                _mm256_sub_epi16(_mm256_unpackhi_epi8(va, zero),
                                 _mm256_unpackhi_epi8(vb, zero));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dlo, dlo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dhi, dhi));
        }
        // Fold lanes at 64 bits: the 8-lane total can exceed int32.
        uint32_t lanes[8];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (int k = 0; k < 8; ++k)
            total += lanes[k];
    }
    for (; i < n; ++i) {
        const int d = static_cast<int>(a[i]) - b[i];
        total += static_cast<uint64_t>(d * d);
    }
    return total;
}

} // namespace

const KernelOps *
avx2Ops()
{
    const KernelOps *base = sse2Ops();
    if (base == nullptr)
        base = scalarOps();
    static const KernelOps table = [base] {
        KernelOps t = *base;
        t.name = "avx2";
        t.isa = Isa::Avx2;
        t.sad = sadAvx2;
        t.interpV = interpVAvx2;
        t.interpHV = interpHVAvx2;
        t.fwdTx8x8 = fwdTx8x8Avx2;
        t.invTx8x8 = invTx8x8Avx2;
        t.quant4x4 = quant4x4Avx2;
        t.dequant4x4 = dequant4x4Avx2;
        t.diffBlock = diffBlockAvx2;
        t.sse8 = sse8Avx2;
        return t;
    }();
    return &table;
}

} // namespace vbench::kernels

#else // !defined(__AVX2__)

namespace vbench::kernels {

const KernelOps *
avx2Ops()
{
    return nullptr;
}

} // namespace vbench::kernels

#endif
