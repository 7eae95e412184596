#include "ngc/ngc_intra.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "codec/types.h"

namespace vbench::ngc {

using codec::clampPixel;

bool
ngcIntraAvailable(NgcIntraMode mode, int x, int y, int slice_top)
{
    switch (mode) {
      case NgcIntraMode::Dc:
        return true;
      case NgcIntraMode::Vertical:
      case NgcIntraMode::DiagDownLeft:
        return y > slice_top;
      case NgcIntraMode::Horizontal:
        return x > 0;
      case NgcIntraMode::TrueMotion:
      case NgcIntraMode::DiagDownRight:
        return x > 0 && y > slice_top;
    }
    return false;
}

namespace {

/** 1-2-1 smoothing: g[i] = (e[i] + 2 e[i+1] + e[i+2] + 2) >> 2. */
void
smooth121(const uint8_t *e, int count, uint8_t *g)
{
    for (int i = 0; i < count; ++i)
        g[i] = static_cast<uint8_t>((e[i] + 2 * e[i + 1] + e[i + 2] + 2) >> 2);
}

} // namespace

void
ngcIntraPredict(NgcIntraMode mode, const video::Plane &recon, int x, int y,
                int n, uint8_t *out, int slice_top)
{
    assert(n >= 1 && n <= kSbSize);
    const bool has_top = y > slice_top;
    const bool has_left = x > 0;
    const size_t row_bytes = static_cast<size_t>(n);

    // One edge line: the left column bottom-up in edge[0, n), the
    // corner at edge[n], then the top row top[k] = (x+k, y-1) for k in
    // [0, 2n], clamped at the plane's right edge. top[-1] is the corner.
    uint8_t edge[3 * kSbSize + 2] = {};
    uint8_t *const top = edge + n + 1;
    if (has_top) {
        const uint8_t *above = recon.row(y - 1);
        const int avail = std::min(2 * n + 1, recon.width() - x);
        std::memcpy(top, above + x, static_cast<size_t>(avail));
        std::memset(top + avail, above[recon.width() - 1],
                    static_cast<size_t>(2 * n + 1 - avail));
        if (has_left)
            top[-1] = above[x - 1];
    }
    if (has_left) {
        const uint8_t *col = recon.row(y) + x - 1;
        for (int k = 0; k < n; ++k)
            edge[n - 1 - k] = col[static_cast<size_t>(k) * recon.width()];
    }
    const auto left = [&](int k) { return edge[n - 1 - k]; };

    switch (mode) {
      case NgcIntraMode::Dc: {
        int sum = 0;
        int count = 0;
        if (has_top) {
            for (int i = 0; i < n; ++i)
                sum += top[i];
            count += n;
        }
        if (has_left) {
            for (int i = 0; i < n; ++i)
                sum += edge[i];
            count += n;
        }
        const uint8_t dc = count > 0
            ? static_cast<uint8_t>((sum + count / 2) / count)
            : 128;
        std::memset(out, dc, row_bytes * row_bytes);
        break;
      }
      case NgcIntraMode::Vertical:
        for (int r = 0; r < n; ++r)
            std::memcpy(out + r * n, top, row_bytes);
        break;
      case NgcIntraMode::Horizontal:
        for (int r = 0; r < n; ++r)
            std::memset(out + r * n, left(r), row_bytes);
        break;
      case NgcIntraMode::TrueMotion: {
        const int corner = top[-1];
        for (int r = 0; r < n; ++r) {
            const int base = left(r) - corner;
            for (int c = 0; c < n; ++c)
                out[r * n + c] = clampPixel(base + top[c]);
        }
        break;
      }
      case NgcIntraMode::DiagDownLeft: {
        // 45 degrees from the top row extended right: smooth it once,
        // then row r is the filtered row shifted left by r.
        uint8_t g[2 * kSbSize] = {};
        smooth121(top, 2 * n - 1, g);
        for (int r = 0; r < n; ++r)
            std::memcpy(out + r * n, g + r, row_bytes);
        break;
      }
      case NgcIntraMode::DiagDownRight: {
        // 45 degrees from the top-left corner along the edge line (left
        // column, corner, top row), whose 1-2-1 filter is symmetric:
        // g[i] is centred on edge[i + 1] and row r starts n - 1 - r in.
        uint8_t g[2 * kSbSize] = {};
        smooth121(edge, 2 * n - 1, g);
        for (int r = 0; r < n; ++r)
            std::memcpy(out + r * n, g + n - 1 - r, row_bytes);
        break;
      }
    }
}

} // namespace vbench::ngc
