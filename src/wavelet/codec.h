// Progressive wavelet codec.
//
// One 1-D stream format, HWV4 (EncodeSignalProgressive): Haar transform,
// threshold, quantize, then varint coefficient records ordered by
// resolution level and by decreasing magnitude within each level, with a
// per-level byte-offset table in the header. Any *byte* prefix of the
// stream is decodable on its own, so one stored stream serves every
// resolution: a server slices the first K bytes and the client
// reconstructs the best K-byte approximation plus a deterministic bound
// on any range sum, from the per-level coefficient maxima carried in the
// header ("the client works on approximated and aggregated versions of
// the original data", §6.3). Decoding the full stream is lossless up to
// quantization: the samples are exactly HaarInverse of the retained,
// quantized coefficients.
//
// HWV2 (EncodeImage2d) is the 2-D format of the StreamCorder's image
// previews.
#ifndef HEDC_WAVELET_CODEC_H_
#define HEDC_WAVELET_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"

namespace hedc::wavelet {

struct CodecOptions {
  // Quantization step: coefficients are stored as round(c / step).
  // Smaller = more fidelity, larger stream.
  double quant_step = 1e-6;
  // Coefficients with |c| < threshold are dropped entirely.
  double threshold = 0.0;
};

// Decodes an HWV4 stream using roughly the first `fraction` (0..1] of
// its coefficients, counted in stored (level-major) order. fraction >= 1
// uses everything; fraction <= 0 uses none.
Result<std::vector<double>> DecodeSignal(const std::vector<uint8_t>& stream,
                                         double fraction = 1.0);

// Number of coefficients retained in an HWV4 stream (post-threshold).
Result<size_t> CoefficientCount(const std::vector<uint8_t>& stream);

// Relative L2 error between two signals (||a-b|| / ||a||; 0 when a == 0).
double RelativeL2Error(const std::vector<double>& reference,
                       const std::vector<double>& approximation);

// --- prefix-decodable progressive streams (HWV4) -----------------------

// What a byte-prefix decode reconstructed, plus what bounds its error.
// The basis is orthonormal Haar, so the residual x - x_hat is
// sum_k (c_k - c_hat_k) psi_k and a range sum over bins R is off by at
// most sum_k coefficient_error[k] * |<1_R, psi_k>|. Only the supports
// that straddle an endpoint of R have a nonzero inner product — at most
// two per level — so RangeSumErrorBound costs O(levels).
struct PrefixInfo {
  size_t original_len = 0;
  size_t padded_len = 0;
  size_t coeffs_total = 0;    // retained in the full stream
  size_t coeffs_decoded = 0;  // present in this prefix
  size_t levels_total = 0;    // resolution levels (log2(padded_len) + 1)
  size_t levels_complete = 0; // levels fully covered by this prefix
  size_t prefix_bytes = 0;    // bytes of the stream actually consumed
  size_t full_bytes = 0;      // header-declared size of the full stream
  double quant_step = 0;
  // Per level: the header's bound on every |coefficient| of the level.
  std::vector<double> level_max;
  // Per coefficient index: a bound on |c_k - c_hat_k|. quant_step / 2
  // for a decoded coefficient; for a missing one, the level's maximum,
  // capped by the drop bound when the level arrived whole, or by the
  // level's last decoded magnitude + quant_step / 2 when the prefix
  // split it (records are stored in decreasing magnitude).
  std::vector<double> coefficient_error;

  // Upper bound on |sum over bins [from, to) of (x - x_hat)|, including
  // the floating-point error of the transforms and of the summation.
  double RangeSumErrorBound(size_t from, size_t to) const;
};

// Encodes `signal` (any length; padded internally) as a
// prefix-decodable HWV4 stream (level-major coefficient order, per-level
// byte offsets and coefficient maxima).
std::vector<uint8_t> EncodeSignalProgressive(
    const std::vector<double>& signal, const CodecOptions& options = {});

// Number of resolution levels in an HWV4 stream: level 0 is the single
// scaling (DC) coefficient, level l adds detail indices [2^(l-1), 2^l).
Result<size_t> ResolutionLevels(const std::vector<uint8_t>& stream);

// Size in bytes of the shortest prefix that fully covers resolution
// levels 0..level (header included). level >= levels-1 returns the full
// stream size.
Result<size_t> PrefixBytesForLevel(const std::vector<uint8_t>& stream,
                                   size_t level);

// Copies the prefix covering levels 0..level out of `stream` — what a
// server ships for a coarse request without touching the tail bytes.
Result<std::vector<uint8_t>> SlicePrefixForLevel(
    const std::vector<uint8_t>& stream, size_t level);

// Decodes the first `size` bytes of an HWV4 stream. The header must be
// complete; coefficient records are consumed while they fit (a record
// split by the prefix boundary is ignored, not an error — that is the
// expected shape of a truncated delivery). Corruption is still detected:
// bad magic, inconsistent header, out-of-range indices.
Result<std::vector<double>> DecodeSignalPrefix(const uint8_t* data,
                                               size_t size,
                                               PrefixInfo* info = nullptr);
inline Result<std::vector<double>> DecodeSignalPrefix(
    const std::vector<uint8_t>& prefix, PrefixInfo* info = nullptr) {
  return DecodeSignalPrefix(prefix.data(), prefix.size(), info);
}

// --- 2-D progressive codec (image previews in the StreamCorder) --------

// Encodes a row-major `width` x `height` image (any dimensions; padded to
// powers of two internally) with the 2-D Haar transform as an HWV2
// stream: varint coefficient records in decreasing-magnitude order.
std::vector<uint8_t> EncodeImage2d(const std::vector<double>& pixels,
                                   size_t width, size_t height,
                                   const CodecOptions& options = {});

// Decodes the first `fraction` of the coefficients; returns the pixels
// and writes the dimensions. Padded sides that are not powers of two,
// smaller than the image, or above the pixel cap are kCorruption.
Result<std::vector<double>> DecodeImage2d(const std::vector<uint8_t>& stream,
                                          double fraction, size_t* width,
                                          size_t* height);

}  // namespace hedc::wavelet

#endif  // HEDC_WAVELET_CODEC_H_
